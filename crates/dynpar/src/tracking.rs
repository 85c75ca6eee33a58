//! Parent/child relationship tracking.
//!
//! The locality analysis (paper Section III-A) needs, for every dynamic
//! batch, its *direct parent* TB, and for every launching TB, the set of
//! batches it launched (whose TBs are mutual *siblings*). [`FamilyTree`]
//! derives both from the engine's batch table.

use std::collections::HashMap;

use gpu_sim::cache::ReuseClass;
use gpu_sim::kernel::Batch;
use gpu_sim::types::{BatchId, TbRef};

/// Parent/child relations of one finished (or running) simulation.
#[derive(Debug, Clone, Default)]
pub struct FamilyTree {
    parent_of_batch: HashMap<BatchId, TbRef>,
    children_of_tb: HashMap<TbRef, Vec<BatchId>>,
}

impl FamilyTree {
    /// Builds the tree from the engine's batch table.
    pub fn from_batches(batches: &[Batch]) -> Self {
        let mut tree = FamilyTree::default();
        for b in batches {
            if let Some(origin) = &b.origin {
                let parent = TbRef { batch: origin.parent_batch, index: origin.parent_tb };
                tree.parent_of_batch.insert(b.id, parent);
                tree.children_of_tb.entry(parent).or_default().push(b.id);
            }
        }
        tree
    }

    /// The direct parent TB of a dynamic batch (`None` for host kernels).
    pub fn direct_parent(&self, batch: BatchId) -> Option<TbRef> {
        self.parent_of_batch.get(&batch).copied()
    }

    /// Batches launched by a given TB, in creation order.
    pub fn children(&self, tb: TbRef) -> &[BatchId] {
        self.children_of_tb.get(&tb).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All TBs that launched at least one batch.
    pub fn launching_tbs(&self) -> impl Iterator<Item = (TbRef, &[BatchId])> {
        self.children_of_tb.iter().map(|(tb, v)| (*tb, v.as_slice()))
    }

    /// Number of dynamic batches tracked.
    pub fn dynamic_batches(&self) -> usize {
        self.parent_of_batch.len()
    }

    /// Classifies the relation between two TBs, mirroring the rules the
    /// simulator's provenance profiler applies per cache hit
    /// ([`gpu_sim::cache::Lineage::classify`]): same TB is `SelfReuse`,
    /// direct parent and child (either way) is `ParentChild`, same batch
    /// or same launching TB is `Sibling`, a transitive ancestor relation
    /// at distance >= 2 is `Ancestor`, anything else `Unrelated`. Used to
    /// cross-check the in-cache classification from the batch table.
    pub fn classify(&self, a: TbRef, b: TbRef) -> ReuseClass {
        if a == b {
            return ReuseClass::SelfReuse;
        }
        let pa = self.direct_parent(a.batch);
        let pb = self.direct_parent(b.batch);
        if pa == Some(b) || pb == Some(a) {
            return ReuseClass::ParentChild;
        }
        if a.batch == b.batch || (pa.is_some() && pa == pb) {
            return ReuseClass::Sibling;
        }
        let is_ancestor = |anc: TbRef, mut desc: TbRef, skip_direct: bool| {
            let mut dist = 0u32;
            while let Some(parent) = self.direct_parent(desc.batch) {
                dist += 1;
                if parent == anc {
                    return !skip_direct || dist >= 2;
                }
                desc = parent;
                if dist as usize > self.parent_of_batch.len() {
                    break; // cycle guard
                }
            }
            false
        };
        if is_ancestor(b, a, true) || is_ancestor(a, b, true) {
            return ReuseClass::Ancestor;
        }
        ReuseClass::Unrelated
    }

    /// Nesting depth of a batch: 0 for host batches, 1 + parent's depth
    /// otherwise. `batches` must be the same table the tree was built
    /// from.
    pub fn depth(&self, batch: BatchId, batches: &[Batch]) -> u32 {
        let mut depth = 0;
        let mut current = batch;
        while let Some(parent) = self.direct_parent(current) {
            depth += 1;
            current = parent.batch;
            debug_assert!((current.index()) < batches.len());
            if depth > batches.len() as u32 {
                break; // cycle guard; cannot happen with engine-produced data
            }
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::kernel::{BatchKind, BatchState, Origin, ResourceReq};
    use gpu_sim::program::KernelKindId;
    use gpu_sim::types::{Priority, SmxId};

    fn batch(id: u32, origin: Option<(u32, u32)>) -> Batch {
        Batch {
            id: BatchId(id),
            batch_kind: if origin.is_some() {
                BatchKind::DeviceKernel
            } else {
                BatchKind::HostKernel
            },
            kind: KernelKindId(0),
            param: 0,
            num_tbs: 4,
            req: ResourceReq::new(32, 8, 0),
            origin: origin.map(|(b, t)| Origin {
                parent_batch: BatchId(b),
                parent_tb: t,
                parent_smx: SmxId(0),
                parent_priority: Priority::HOST,
            }),
            priority: Priority(u8::from(origin.is_some())),
            created_at: 0,
            matured_at: 0,
            schedulable_at: None,
            state: BatchState::Complete,
            next_tb: 4,
            finished_tbs: 4,
            kdu_entry: None,
        }
    }

    #[test]
    fn tree_links_children_to_direct_parents() {
        let batches = vec![
            batch(0, None),
            batch(1, Some((0, 2))),
            batch(2, Some((0, 2))),
            batch(3, Some((0, 4))),
        ];
        let tree = FamilyTree::from_batches(&batches);
        let p2 = TbRef { batch: BatchId(0), index: 2 };
        let p4 = TbRef { batch: BatchId(0), index: 4 };
        assert_eq!(tree.direct_parent(BatchId(1)), Some(p2));
        assert_eq!(tree.children(p2), &[BatchId(1), BatchId(2)]);
        assert_eq!(tree.children(p4), &[BatchId(3)]);
        assert_eq!(tree.dynamic_batches(), 3);
        assert_eq!(tree.direct_parent(BatchId(0)), None);
    }

    #[test]
    fn unknown_tb_has_no_children() {
        let tree = FamilyTree::from_batches(&[batch(0, None)]);
        assert!(tree.children(TbRef { batch: BatchId(0), index: 0 }).is_empty());
    }

    #[test]
    fn depth_counts_nesting() {
        let batches = vec![batch(0, None), batch(1, Some((0, 0))), batch(2, Some((1, 1)))];
        let tree = FamilyTree::from_batches(&batches);
        assert_eq!(tree.depth(BatchId(0), &batches), 0);
        assert_eq!(tree.depth(BatchId(1), &batches), 1);
        assert_eq!(tree.depth(BatchId(2), &batches), 2);
    }

    #[test]
    fn launching_tbs_iterates_all_parents() {
        let batches = vec![batch(0, None), batch(1, Some((0, 1))), batch(2, Some((0, 3)))];
        let tree = FamilyTree::from_batches(&batches);
        assert_eq!(tree.launching_tbs().count(), 2);
    }

    #[test]
    fn classify_matches_lineage_rules() {
        // batch 0: host; batches 1, 2 launched by TB (0,1); batch 3
        // launched by TB (0,2); batch 4 launched by TB (1,0).
        let batches = vec![
            batch(0, None),
            batch(1, Some((0, 1))),
            batch(2, Some((0, 1))),
            batch(3, Some((0, 2))),
            batch(4, Some((1, 0))),
        ];
        let tree = FamilyTree::from_batches(&batches);
        let t = |b: u32, i: u32| TbRef { batch: BatchId(b), index: i };

        assert_eq!(tree.classify(t(1, 0), t(1, 0)), ReuseClass::SelfReuse);
        assert_eq!(tree.classify(t(1, 0), t(0, 1)), ReuseClass::ParentChild);
        assert_eq!(tree.classify(t(0, 1), t(1, 0)), ReuseClass::ParentChild);
        // Same batch, and same launching parent across batches.
        assert_eq!(tree.classify(t(1, 0), t(1, 3)), ReuseClass::Sibling);
        assert_eq!(tree.classify(t(1, 0), t(2, 0)), ReuseClass::Sibling);
        // Grandparent relation at distance 2.
        assert_eq!(tree.classify(t(4, 0), t(0, 1)), ReuseClass::Ancestor);
        assert_eq!(tree.classify(t(0, 1), t(4, 0)), ReuseClass::Ancestor);
        // Different parents, no shared ancestry path.
        assert_eq!(tree.classify(t(1, 0), t(3, 0)), ReuseClass::Unrelated);
        // Host TBs of different batches share nothing.
        assert_eq!(tree.classify(t(0, 0), t(0, 3)), ReuseClass::Sibling);
    }
}
