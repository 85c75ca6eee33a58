//! The SMX-level thread-block scheduler interface and the baseline
//! round-robin policy.
//!
//! Each cycle the engine offers the scheduler a [`DispatchView`] of the
//! machine; the scheduler may dispatch at most one TB (the next
//! undispatched TB of a batch it names) to an SMX with room. The baseline
//! [`RoundRobinScheduler`] reproduces Section II-B of the paper; the
//! LaPerm policies in the `laperm` crate implement the same trait.
//!
//! Every dispatch decision made here is also a *provenance* decision:
//! the chosen SMX fixes which L1 a TB fills and which installed lines it
//! can reuse. When `GpuConfig::profile_locality` is set, the engine
//! snapshots the TB's lineage at dispatch time and the caches attribute
//! each later hit back to it (see `cache::ReuseClass`), which is how the
//! `repro locality` report scores scheduling policies mechanistically.
//!
//! It is also a *latency* decision: the gap between a batch turning
//! schedulable (`Batch::schedulable_at`) and each of its TBs
//! dispatching is the queue-wait the policies reorder. The engine
//! stamps both edges on every TB's `TbRecord`, and the `repro latency`
//! report compares policies by queue-wait percentiles and critical-path
//! inflation.

use crate::kernel::{Batch, ResourceReq};
use crate::smx::SmxResources;
use crate::trace::TraceEvent;
use crate::types::{BatchId, Cycle, SmxId, TbRef};

/// A read-only snapshot the scheduler uses to make one dispatch decision.
#[derive(Debug)]
pub struct DispatchView<'a> {
    /// Current cycle.
    pub cycle: Cycle,
    /// Batches visible in the KDU, FCFS order (base kernels followed by
    /// their coalesced groups). Includes batches with no TBs left.
    pub schedulable: &'a [BatchId],
    /// All batches ever created, indexed by [`BatchId`].
    pub batches: &'a [Batch],
    /// Free resources of each SMX.
    pub smx_free: &'a [SmxResources],
}

impl DispatchView<'_> {
    /// Looks up a batch.
    pub fn batch(&self, id: BatchId) -> &Batch {
        &self.batches[id.index()]
    }

    /// `true` if `req` fits on `smx` right now.
    pub fn fits(&self, smx: SmxId, req: &ResourceReq) -> bool {
        self.smx_free[smx.index()].fits(req)
    }

    /// Number of SMXs.
    pub fn num_smxs(&self) -> usize {
        self.smx_free.len()
    }

    /// The first SMX at or after `start` (wrapping) where `req` fits.
    pub fn first_fit_from(&self, start: usize, req: &ResourceReq) -> Option<SmxId> {
        let n = self.num_smxs();
        (0..n).map(|i| SmxId(((start + i) % n) as u16)).find(|&smx| self.fits(smx, req))
    }
}

/// A read-only, allocation-free view of the KMU's pending-kernel queue,
/// used for one [`kmu_pick`](TbScheduler::kmu_pick) decision.
///
/// `pending` is a slice over the KMU's own storage (FCFS order) and
/// `batches` the engine's batch table, so building the view copies
/// nothing per cycle.
#[derive(Debug)]
pub struct KmuView<'a> {
    /// Pending kernels, FCFS order (oldest first). Non-empty.
    pub pending: &'a [BatchId],
    /// All batches ever created, indexed by [`BatchId`].
    pub batches: &'a [Batch],
}

impl KmuView<'_> {
    /// Number of pending kernels.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` when nothing is pending (the engine never asks then).
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The batch of the `i`-th pending kernel.
    pub fn batch(&self, i: usize) -> &Batch {
        &self.batches[self.pending[i].index()]
    }
}

/// One dispatch: the next undispatched TB of `batch` goes to `smx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchDecision {
    /// Batch to take the TB from.
    pub batch: BatchId,
    /// Destination SMX.
    pub smx: SmxId,
}

/// An SMX-level TB scheduling policy.
///
/// Implementations receive lifecycle notifications (`on_*`) and are asked
/// for at most one [`DispatchDecision`] per cycle. Decisions the engine
/// cannot honor (batch not schedulable, TB does not fit) abort the
/// simulation with [`SimError::BadDispatch`](crate::error::SimError), so
/// policies must check resources through the view.
pub trait TbScheduler: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// A batch became visible in the KDU (its TBs may now be dispatched).
    fn on_batch_schedulable(&mut self, _batch: &Batch, _cycle: Cycle) {}

    /// A TB retired.
    fn on_tb_finished(&mut self, _tb: TbRef, _smx: SmxId, _cycle: Cycle) {}

    /// Chooses at most one TB dispatch for this cycle.
    fn pick(&mut self, view: &DispatchView<'_>) -> Option<DispatchDecision>;

    /// Chooses which pending KMU kernel to move into the KDU next, or
    /// `None` to decline this cycle (backpressure: a policy whose queues
    /// are at a configured hard cap leaves the kernel in the KMU).
    ///
    /// The view is FCFS-ordered and non-empty; the returned index selects
    /// from it. The baseline takes the oldest and never declines.
    fn kmu_pick(&mut self, _view: &KmuView<'_>) -> Option<usize> {
        Some(0)
    }

    /// Extra policy-specific counters for reports (steals, overflows, …).
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Enables or disables event reporting. The engine turns this on when
    /// a [`TraceSink`](crate::trace::TraceSink) is attached; while off (the
    /// default), implementations must not buffer or allocate anything, so
    /// untraced runs pay nothing.
    fn set_tracing(&mut self, _enabled: bool) {}

    /// Moves events buffered since the last drain into `out` (in the
    /// order they happened). The engine drains after every call that can
    /// produce events and timestamps them with the current cycle.
    fn drain_trace(&mut self, _out: &mut Vec<TraceEvent>) {}
}

impl std::fmt::Debug for Box<dyn TbScheduler> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TbScheduler({})", self.name())
    }
}

/// The baseline round-robin TB scheduler of Section II-B.
///
/// Each cycle it takes the next TB (in TB-id order) of the oldest KDU
/// batch that still has undispatched TBs, and places it on the next SMX —
/// scanning round-robin from a cursor — that has enough free resources.
/// Dynamic TBs are therefore dispatched strictly after the TBs already
/// queued, with no locality awareness.
#[derive(Debug, Default)]
pub struct RoundRobinScheduler {
    cursor: usize,
}

impl RoundRobinScheduler {
    /// Creates the baseline scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TbScheduler for RoundRobinScheduler {
    fn name(&self) -> &'static str {
        "rr"
    }

    fn pick(&mut self, view: &DispatchView<'_>) -> Option<DispatchDecision> {
        let batch_id =
            view.schedulable.iter().copied().find(|&b| view.batch(b).has_undispatched_tbs())?;
        let req = view.batch(batch_id).req;
        let smx = view.first_fit_from(self.cursor, &req)?;
        self.cursor = (smx.index() + 1) % view.num_smxs();
        Some(DispatchDecision { batch: batch_id, smx })
    }
}

/// A seeded random TB scheduler: picks a uniformly random schedulable
/// batch and a random SMX with room.
///
/// Not part of the paper — a control baseline for ablations: it has the
/// baseline's lack of locality awareness *and* gives up round-robin's
/// even spreading, bounding how much of LaPerm's gain is mere placement
/// luck.
#[derive(Debug)]
pub struct RandomScheduler {
    state: u64,
}

impl RandomScheduler {
    /// Creates a random scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler { state: seed | 1 }
    }

    fn next(&mut self) -> u64 {
        // xorshift64*: plenty for a control policy.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

impl TbScheduler for RandomScheduler {
    fn name(&self) -> &'static str {
        "random"
    }

    fn pick(&mut self, view: &DispatchView<'_>) -> Option<DispatchDecision> {
        let candidates: Vec<BatchId> = view
            .schedulable
            .iter()
            .copied()
            .filter(|&b| view.batch(b).has_undispatched_tbs())
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let batch = candidates[self.below(candidates.len())];
        let req = view.batch(batch).req;
        let start = self.below(view.num_smxs());
        let smx = view.first_fit_from(start, &req)?;
        Some(DispatchDecision { batch, smx })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::config::GpuConfig;
    use crate::kernel::{BatchKind, BatchState};
    use crate::program::KernelKindId;
    use crate::types::Priority;

    fn batch(id: u32, num_tbs: u32, next_tb: u32) -> Batch {
        Batch {
            id: BatchId(id),
            batch_kind: BatchKind::HostKernel,
            kind: KernelKindId(0),
            param: 0,
            num_tbs,
            req: ResourceReq::new(64, 8, 0),
            origin: None,
            priority: Priority::HOST,
            created_at: 0,
            matured_at: 0,
            schedulable_at: Some(0),
            state: BatchState::Schedulable,
            next_tb,
            finished_tbs: 0,
            kdu_entry: Some(0),
        }
    }

    fn free_smxs(n: usize) -> Vec<SmxResources> {
        let cfg = GpuConfig::small_test();
        (0..n).map(|_| SmxResources::full(&cfg)).collect()
    }

    #[test]
    fn rr_distributes_across_smxs_in_order() {
        let mut sched = RoundRobinScheduler::new();
        let mut batches = vec![batch(0, 10, 0)];
        let smxs = free_smxs(4);
        let schedulable = vec![BatchId(0)];
        let mut placements = Vec::new();
        for _ in 0..8 {
            let view = DispatchView {
                cycle: 0,
                schedulable: &schedulable,
                batches: &batches,
                smx_free: &smxs,
            };
            let d = sched.pick(&view).unwrap();
            placements.push(d.smx.0);
            batches[0].next_tb += 1;
        }
        assert_eq!(placements, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn rr_skips_full_smx() {
        let mut sched = RoundRobinScheduler::new();
        let batches = vec![batch(0, 10, 0)];
        let mut smxs = free_smxs(3);
        // SMX0 has no room.
        smxs[0].threads = 0;
        let schedulable = vec![BatchId(0)];
        let view = DispatchView {
            cycle: 0,
            schedulable: &schedulable,
            batches: &batches,
            smx_free: &smxs,
        };
        let d = sched.pick(&view).unwrap();
        assert_eq!(d.smx, SmxId(1));
    }

    #[test]
    fn rr_returns_none_when_everything_full() {
        let mut sched = RoundRobinScheduler::new();
        let batches = vec![batch(0, 10, 0)];
        let mut smxs = free_smxs(2);
        for s in &mut smxs {
            s.tb_slots = 0;
        }
        let schedulable = vec![BatchId(0)];
        let view = DispatchView {
            cycle: 0,
            schedulable: &schedulable,
            batches: &batches,
            smx_free: &smxs,
        };
        assert!(sched.pick(&view).is_none());
    }

    #[test]
    fn rr_moves_to_next_batch_when_first_exhausted() {
        let mut sched = RoundRobinScheduler::new();
        let batches = vec![batch(0, 4, 4), batch(1, 4, 0)];
        let smxs = free_smxs(2);
        let schedulable = vec![BatchId(0), BatchId(1)];
        let view = DispatchView {
            cycle: 0,
            schedulable: &schedulable,
            batches: &batches,
            smx_free: &smxs,
        };
        let d = sched.pick(&view).unwrap();
        assert_eq!(d.batch, BatchId(1));
    }

    #[test]
    fn rr_returns_none_with_no_work() {
        let mut sched = RoundRobinScheduler::new();
        let batches = vec![batch(0, 4, 4)];
        let smxs = free_smxs(2);
        let schedulable = vec![BatchId(0)];
        let view = DispatchView {
            cycle: 0,
            schedulable: &schedulable,
            batches: &batches,
            smx_free: &smxs,
        };
        assert!(sched.pick(&view).is_none());
    }

    #[test]
    fn first_fit_wraps_around() {
        let batches = vec![batch(0, 1, 0)];
        let mut smxs = free_smxs(3);
        smxs[2].tb_slots = 0;
        let schedulable = vec![BatchId(0)];
        let view = DispatchView {
            cycle: 0,
            schedulable: &schedulable,
            batches: &batches,
            smx_free: &smxs,
        };
        let req = ResourceReq::new(32, 8, 0);
        assert_eq!(view.first_fit_from(2, &req), Some(SmxId(0)));
    }

    #[test]
    fn default_kmu_pick_is_fcfs() {
        let mut sched = RoundRobinScheduler::new();
        let batches = vec![batch(0, 1, 0), batch(1, 1, 0)];
        let pending = vec![BatchId(0), BatchId(1)];
        let view = KmuView { pending: &pending, batches: &batches };
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        assert_eq!(view.batch(1).id, BatchId(1));
        assert_eq!(sched.kmu_pick(&view), Some(0));
    }

    #[test]
    fn random_scheduler_dispatches_valid_work() {
        let mut sched = RandomScheduler::new(42);
        let mut batches = vec![batch(0, 8, 0), batch(1, 8, 8)];
        let smxs = free_smxs(4);
        let schedulable = vec![BatchId(0), BatchId(1)];
        for _ in 0..8 {
            let view = DispatchView {
                cycle: 0,
                schedulable: &schedulable,
                batches: &batches,
                smx_free: &smxs,
            };
            let d = sched.pick(&view).expect("work available");
            // Batch 1 is exhausted; only batch 0 may be chosen.
            assert_eq!(d.batch, BatchId(0));
            assert!(d.smx.index() < 4);
            batches[0].next_tb += 1;
        }
        let view = DispatchView {
            cycle: 0,
            schedulable: &schedulable,
            batches: &batches,
            smx_free: &smxs,
        };
        assert!(sched.pick(&view).is_none());
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed() {
        let picks = |seed: u64| -> Vec<u16> {
            let mut sched = RandomScheduler::new(seed);
            let mut batches = vec![batch(0, 16, 0)];
            let smxs = free_smxs(8);
            let schedulable = vec![BatchId(0)];
            (0..16)
                .map(|_| {
                    let view = DispatchView {
                        cycle: 0,
                        schedulable: &schedulable,
                        batches: &batches,
                        smx_free: &smxs,
                    };
                    let d = sched.pick(&view).unwrap();
                    batches[0].next_tb += 1;
                    d.smx.0
                })
                .collect()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8));
    }
}
