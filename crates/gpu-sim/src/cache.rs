//! Set-associative cache model with LRU replacement.
//!
//! Used for both the per-SMX L1 data caches and the shared L2. The model
//! is a *tag store only*: probes hit or miss and fills happen atomically
//! at probe time. That simplification preserves what the LaPerm study
//! needs — reuse distances and eviction behavior — while keeping the
//! simulator fast and deterministic.

use crate::stats::Pow2Hist;
use crate::types::{Cycle, LineAddr, SmxId, TbRef};

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// The line was present.
    Hit,
    /// The line was absent (and allocated, if the probe allocates).
    Miss,
}

/// How a hitting access relates to the TB that installed the line
/// (paper Section III-A: the reuse the LaPerm schedulers create).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseClass {
    /// The accessor installed the line itself.
    SelfReuse,
    /// Installer and accessor are direct parent and child (either way).
    ParentChild,
    /// Same launching parent TB (or TBs of the same kernel launch).
    Sibling,
    /// One is an ancestor of the other at nesting distance >= 2.
    Ancestor,
    /// No lineage relation.
    Unrelated,
}

/// Number of [`ReuseClass`] variants (array sizing).
pub const NUM_REUSE_CLASSES: usize = 5;

impl ReuseClass {
    /// All classes, indexable by [`ReuseClass::index`].
    pub const ALL: [ReuseClass; NUM_REUSE_CLASSES] = [
        ReuseClass::SelfReuse,
        ReuseClass::ParentChild,
        ReuseClass::Sibling,
        ReuseClass::Ancestor,
        ReuseClass::Unrelated,
    ];

    /// Stable array index of this class.
    pub fn index(self) -> usize {
        match self {
            ReuseClass::SelfReuse => 0,
            ReuseClass::ParentChild => 1,
            ReuseClass::Sibling => 2,
            ReuseClass::Ancestor => 3,
            ReuseClass::Unrelated => 4,
        }
    }

    /// Short metric-friendly name.
    pub fn name(self) -> &'static str {
        match self {
            ReuseClass::SelfReuse => "self",
            ReuseClass::ParentChild => "parent_child",
            ReuseClass::Sibling => "sibling",
            ReuseClass::Ancestor => "ancestor",
            ReuseClass::Unrelated => "unrelated",
        }
    }
}

/// Maximum ancestor-chain length carried per TB. Deeper nesting is
/// clamped (the LaPerm nesting clamp `L` never exceeds 8 in this repo).
pub const MAX_ANCESTORS: usize = 8;

/// The identity and ancestry of one resident TB, computed once at
/// dispatch time and carried by every memory access the TB issues.
/// `Copy` and fixed-size so the hot loop never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lineage {
    /// The TB itself.
    pub tb: TbRef,
    /// The SMX the TB was dispatched to.
    pub smx: SmxId,
    /// Nesting depth (0 = host kernel TB).
    pub depth: u32,
    /// `ancestors[0]` is the direct parent, `ancestors[1]` the
    /// grandparent, …; only the first `num_ancestors` entries are valid.
    pub ancestors: [TbRef; MAX_ANCESTORS],
    /// Valid prefix length of `ancestors`.
    pub num_ancestors: u8,
    /// The SMX the direct parent ran on (`None` for host TBs). Used to
    /// attribute child reuse to bound vs stolen placements.
    pub parent_smx: Option<SmxId>,
}

impl Lineage {
    /// A lineage with no ancestry, for `tb` dispatched to `smx`.
    pub fn new(tb: TbRef, smx: SmxId) -> Self {
        Lineage {
            tb,
            smx,
            depth: 0,
            ancestors: [TbRef { batch: crate::types::BatchId(0), index: 0 }; MAX_ANCESTORS],
            num_ancestors: 0,
            parent_smx: None,
        }
    }

    /// Appends the next ancestor (direct parent first). Silently clamps
    /// beyond [`MAX_ANCESTORS`]; `depth` keeps counting regardless.
    pub fn push_ancestor(&mut self, tb: TbRef) {
        if (self.num_ancestors as usize) < MAX_ANCESTORS {
            self.ancestors[self.num_ancestors as usize] = tb;
            self.num_ancestors += 1;
        }
        self.depth += 1;
    }

    /// The direct parent TB, if any.
    pub fn parent(&self) -> Option<TbRef> {
        (self.num_ancestors > 0).then_some(self.ancestors[0])
    }

    /// The valid ancestor chain.
    pub fn ancestors(&self) -> &[TbRef] {
        &self.ancestors[..self.num_ancestors as usize]
    }

    /// Classifies a hit by `self` (the accessor) on a line installed by
    /// `installer`. The relation is symmetric except for `SelfReuse`.
    pub fn classify(&self, installer: &Lineage) -> ReuseClass {
        if installer.tb == self.tb {
            return ReuseClass::SelfReuse;
        }
        if self.parent() == Some(installer.tb) || installer.parent() == Some(self.tb) {
            return ReuseClass::ParentChild;
        }
        // TBs of the same launch, or launched by the same parent TB.
        if installer.tb.batch == self.tb.batch {
            return ReuseClass::Sibling;
        }
        if let (Some(pa), Some(pi)) = (self.parent(), installer.parent()) {
            if pa == pi {
                return ReuseClass::Sibling;
            }
        }
        if self.ancestors().iter().skip(1).any(|&a| a == installer.tb)
            || installer.ancestors().iter().skip(1).any(|&a| a == self.tb)
        {
            return ReuseClass::Ancestor;
        }
        ReuseClass::Unrelated
    }
}

/// Which class of thread block issued an access (for split statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// A TB of a host-launched (parent) kernel.
    Parent,
    /// A TB of a device-launched kernel or TB group.
    Child,
}

/// Per-[`ReuseClass`] hit counters, plus the same-vs-cross-SMX split.
/// Populated only while provenance profiling is enabled; all-zero
/// otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProvCounters {
    /// Hits by reuse class, indexed by [`ReuseClass::index`].
    pub by_class: [u64; NUM_REUSE_CLASSES],
    /// Hits where the accessor runs on the installing SMX.
    pub same_smx: u64,
    /// Hits where the accessor runs on a different SMX (L2 only in
    /// practice: an L1 is private to its SMX).
    pub cross_smx: u64,
}

impl ProvCounters {
    /// Total classified hits (equals the cache's `hits` when every
    /// access carried a lineage).
    pub fn total(&self) -> u64 {
        self.by_class.iter().sum()
    }

    /// Hits of one class.
    pub fn class(&self, class: ReuseClass) -> u64 {
        self.by_class[class.index()]
    }

    /// Share of classified hits in `class`; zero when nothing was
    /// classified.
    pub fn share(&self, class: ReuseClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.class(class) as f64 / total as f64
        }
    }

    /// Accumulates another counter block into this one.
    pub fn merge(&mut self, other: &ProvCounters) {
        for (a, b) in self.by_class.iter_mut().zip(other.by_class.iter()) {
            *a += b;
        }
        self.same_smx += other.same_smx;
        self.cross_smx += other.cross_smx;
    }
}

/// Hit/miss counters, overall and split by [`AccessClass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total hits.
    pub hits: u64,
    /// Total misses.
    pub misses: u64,
    /// Hits by parent-kernel TBs.
    pub parent_hits: u64,
    /// Misses by parent-kernel TBs.
    pub parent_misses: u64,
    /// Hits by child (dynamic) TBs.
    pub child_hits: u64,
    /// Misses by child (dynamic) TBs.
    pub child_misses: u64,
    /// Provenance split of the hits (zero unless profiling is enabled).
    pub prov: ProvCounters,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Hit rate of child-TB accesses only.
    pub fn child_hit_rate(&self) -> f64 {
        let total = self.child_hits + self.child_misses;
        if total == 0 {
            0.0
        } else {
            self.child_hits as f64 / total as f64
        }
    }

    /// Accumulates another stats block into this one, provenance
    /// counters included.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.parent_hits += other.parent_hits;
        self.parent_misses += other.parent_misses;
        self.child_hits += other.child_hits;
        self.child_misses += other.child_misses;
        self.prov.merge(&other.prov);
    }

    fn record(&mut self, class: AccessClass, hit: bool) {
        if hit {
            self.hits += 1;
            match class {
                AccessClass::Parent => self.parent_hits += 1,
                AccessClass::Child => self.child_hits += 1,
            }
        } else {
            self.misses += 1;
            match class {
                AccessClass::Parent => self.parent_misses += 1,
                AccessClass::Child => self.child_misses += 1,
            }
        }
    }
}

/// A line evicted by an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line address.
    pub line: LineAddr,
    /// `true` if the line had been written (needs write-back under a
    /// write-back policy).
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    last_use: u64,
    valid: bool,
    dirty: bool,
}

/// The installer record of one cache line.
#[derive(Debug, Clone, Copy)]
struct LineTag {
    lineage: Lineage,
    installed_at: Cycle,
    valid: bool,
}

/// Provenance profiling state: one installer tag per way plus the
/// per-class reuse-distance histograms. Allocated only by
/// [`Cache::enable_provenance`]; absent, the cache does no extra work.
#[derive(Debug, Clone)]
struct ProvState {
    tags: Vec<LineTag>,
    reuse_dist: [Pow2Hist; NUM_REUSE_CLASSES],
}

/// A set-associative, LRU, tag-only cache.
#[derive(Debug, Clone)]
pub struct Cache {
    ways: Vec<Way>,
    num_sets: usize,
    assoc: usize,
    tick: u64,
    stats: CacheStats,
    prov: Option<Box<ProvState>>,
}

impl Cache {
    /// Builds a cache of `bytes` capacity with `assoc` ways and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (zero sizes or associativity not
    /// dividing the line count). Validate configurations with
    /// [`GpuConfig::validate`] first.
    ///
    /// [`GpuConfig::validate`]: crate::config::GpuConfig::validate
    pub fn new(bytes: u32, assoc: u32, line_bytes: u32) -> Self {
        let lines = (bytes / line_bytes) as usize;
        let assoc = assoc as usize;
        assert!(lines > 0 && assoc > 0 && lines.is_multiple_of(assoc), "invalid cache geometry");
        let num_sets = lines / assoc;
        Cache {
            ways: vec![Way { tag: 0, last_use: 0, valid: false, dirty: false }; lines],
            num_sets,
            assoc,
            tick: 0,
            stats: CacheStats::default(),
            prov: None,
        }
    }

    /// Allocates the provenance tag store and reuse-distance histograms.
    /// From then on every [`access`](Self::access) classifies its hits;
    /// call before the first access so all fills are tagged.
    pub fn enable_provenance(&mut self) {
        let untagged = LineTag {
            lineage: Lineage::new(TbRef { batch: crate::types::BatchId(0), index: 0 }, SmxId(0)),
            installed_at: 0,
            valid: false,
        };
        self.prov = Some(Box::new(ProvState {
            tags: vec![untagged; self.ways.len()],
            reuse_dist: Default::default(),
        }));
    }

    /// Per-class reuse-distance histograms (cycles between a line's
    /// install and each hit on it), or `None` when profiling is off.
    pub fn reuse_dist(&self) -> Option<&[Pow2Hist; NUM_REUSE_CLASSES]> {
        self.prov.as_ref().map(|p| &p.reuse_dist)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Probes the cache for `line` on behalf of `lineage` at cycle `now`.
    /// On a miss, allocates the line (LRU victim) when `allocate` is
    /// true; `mark_dirty` dirties the line (stores under a write-back
    /// policy). Statistics are recorded under `class`. Returns any valid
    /// line the allocation evicted.
    ///
    /// With provenance profiling enabled, a hit on a tagged line is
    /// recorded per [`ReuseClass`] (with reuse distance
    /// `now - installed_at`) and a fill stamps `lineage` as the line's
    /// installer. Without it, `lineage` and `now` are unused.
    pub fn access(
        &mut self,
        line: LineAddr,
        allocate: bool,
        class: AccessClass,
        mark_dirty: bool,
        lineage: &Lineage,
        now: Cycle,
    ) -> (ProbeResult, Option<EvictedLine>) {
        let (res, evicted, way) = self.access_indexed(line, allocate, class, mark_dirty);
        if let (Some(state), Some(wi)) = (self.prov.as_mut(), way) {
            match res {
                ProbeResult::Hit => {
                    let tag = &state.tags[wi];
                    if tag.valid {
                        let reuse = lineage.classify(&tag.lineage);
                        self.stats.prov.by_class[reuse.index()] += 1;
                        if tag.lineage.smx == lineage.smx {
                            self.stats.prov.same_smx += 1;
                        } else {
                            self.stats.prov.cross_smx += 1;
                        }
                        state.reuse_dist[reuse.index()]
                            .record(now.saturating_sub(tag.installed_at));
                    }
                }
                ProbeResult::Miss => {
                    state.tags[wi] = LineTag { lineage: *lineage, installed_at: now, valid: true };
                }
            }
        }
        (res, evicted)
    }

    /// The probe/fill core of [`access`](Self::access). The third return
    /// is the global way index that was hit or (on an allocating miss)
    /// filled.
    fn access_indexed(
        &mut self,
        line: LineAddr,
        allocate: bool,
        class: AccessClass,
        mark_dirty: bool,
    ) -> (ProbeResult, Option<EvictedLine>, Option<usize>) {
        self.tick += 1;
        let set = (line % self.num_sets as u64) as usize;
        let tag = line / self.num_sets as u64;
        let num_sets = self.num_sets as u64;
        let base = set * self.assoc;
        let ways = &mut self.ways[base..base + self.assoc];

        for (i, way) in ways.iter_mut().enumerate() {
            if way.valid && way.tag == tag {
                way.last_use = self.tick;
                way.dirty |= mark_dirty;
                self.stats.record(class, true);
                return (ProbeResult::Hit, None, Some(base + i));
            }
        }
        self.stats.record(class, false);
        let mut evicted = None;
        let mut filled = None;
        if allocate {
            let (vi, victim) = ways
                .iter_mut()
                .enumerate()
                .min_by_key(|(_, w)| if w.valid { w.last_use } else { 0 })
                .expect("assoc > 0");
            if victim.valid {
                evicted = Some(EvictedLine {
                    line: victim.tag * num_sets + set as u64,
                    dirty: victim.dirty,
                });
            }
            victim.tag = tag;
            victim.valid = true;
            victim.dirty = mark_dirty;
            victim.last_use = self.tick;
            filled = Some(base + vi);
        }
        (ProbeResult::Miss, evicted, filled)
    }

    /// `true` if `line` is currently resident (no statistics recorded,
    /// no LRU update).
    pub fn contains(&self, line: LineAddr) -> bool {
        let set = (line % self.num_sets as u64) as usize;
        let tag = line / self.num_sets as u64;
        let base = set * self.assoc;
        self.ways[base..base + self.assoc].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Invalidates all lines and clears statistics (and, when profiling
    /// is enabled, the installer tags and reuse histograms).
    pub fn reset(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
        }
        self.tick = 0;
        self.stats = CacheStats::default();
        if let Some(state) = self.prov.as_mut() {
            for t in &mut state.tags {
                t.valid = false;
            }
            state.reuse_dist = Default::default();
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 128B lines = 1 KiB.
        Cache::new(1024, 2, 128)
    }

    /// A clean probe by an ancestry-free TB at cycle 0.
    fn touch(c: &mut Cache, line: LineAddr, allocate: bool, class: AccessClass) -> ProbeResult {
        c.access(line, allocate, class, false, &Lineage::new(tbr(0, 0), SmxId(0)), 0).0
    }

    /// An allocating parent-class probe that dirties the line when
    /// `dirty`; returns the evicted line.
    fn fill(c: &mut Cache, line: LineAddr, dirty: bool) -> Option<EvictedLine> {
        c.access(line, true, AccessClass::Parent, dirty, &Lineage::new(tbr(0, 0), SmxId(0)), 0).1
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.num_sets(), 4);
        assert_eq!(c.assoc(), 2);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert_eq!(touch(&mut c, 42, true, AccessClass::Parent), ProbeResult::Miss);
        assert_eq!(touch(&mut c, 42, true, AccessClass::Parent), ProbeResult::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn no_allocate_probe_does_not_fill() {
        let mut c = tiny();
        assert_eq!(touch(&mut c, 7, false, AccessClass::Child), ProbeResult::Miss);
        assert_eq!(touch(&mut c, 7, false, AccessClass::Child), ProbeResult::Miss);
        assert!(!c.contains(7));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        touch(&mut c, 0, true, AccessClass::Parent);
        touch(&mut c, 4, true, AccessClass::Parent);
        touch(&mut c, 0, true, AccessClass::Parent); // 0 is now MRU
        touch(&mut c, 8, true, AccessClass::Parent); // evicts 4
        assert!(c.contains(0));
        assert!(!c.contains(4));
        assert!(c.contains(8));
    }

    #[test]
    fn class_split_stats() {
        let mut c = tiny();
        touch(&mut c, 1, true, AccessClass::Parent);
        touch(&mut c, 1, true, AccessClass::Child);
        assert_eq!(c.stats().parent_misses, 1);
        assert_eq!(c.stats().child_hits, 1);
        assert!((c.stats().child_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_bounds() {
        let mut c = tiny();
        assert_eq!(c.stats().hit_rate(), 0.0);
        for i in 0..100 {
            touch(&mut c, i % 3, true, AccessClass::Parent);
        }
        let r = c.stats().hit_rate();
        assert!((0.0..=1.0).contains(&r));
    }

    #[test]
    fn reset_clears_state() {
        let mut c = tiny();
        touch(&mut c, 5, true, AccessClass::Parent);
        c.reset();
        assert!(!c.contains(5));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CacheStats { hits: 1, misses: 2, ..Default::default() };
        let b = CacheStats { hits: 3, misses: 4, child_hits: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.hits, 4);
        assert_eq!(a.misses, 6);
        assert_eq!(a.child_hits, 1);
    }

    #[test]
    #[should_panic(expected = "invalid cache geometry")]
    fn bad_geometry_panics() {
        let _ = Cache::new(1024, 3, 128);
    }

    #[test]
    fn eviction_reports_victim_line() {
        let mut c = tiny();
        // Set 0 ways: fill with lines 0 and 4; line 8 evicts line 0.
        touch(&mut c, 0, true, AccessClass::Parent);
        touch(&mut c, 4, true, AccessClass::Parent);
        assert_eq!(fill(&mut c, 8, false), Some(EvictedLine { line: 0, dirty: false }));
    }

    #[test]
    fn dirty_bit_tracks_stores() {
        let mut c = tiny();
        fill(&mut c, 0, true); // dirty fill
        touch(&mut c, 4, true, AccessClass::Parent);
        assert_eq!(fill(&mut c, 8, false), Some(EvictedLine { line: 0, dirty: true }));
    }

    #[test]
    fn hit_can_set_dirty_later() {
        let mut c = tiny();
        touch(&mut c, 0, true, AccessClass::Parent); // clean fill
        fill(&mut c, 0, true); // store hit
        touch(&mut c, 4, true, AccessClass::Parent);
        touch(&mut c, 4, true, AccessClass::Parent); // make 4 MRU
        assert_eq!(fill(&mut c, 8, false), Some(EvictedLine { line: 0, dirty: true }));
    }

    #[test]
    fn no_eviction_reported_for_invalid_victim() {
        let mut c = tiny();
        assert_eq!(fill(&mut c, 0, false), None);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        for line in 0..4 {
            touch(&mut c, line, true, AccessClass::Parent);
        }
        for line in 0..4 {
            assert!(c.contains(line), "line {line} should still be resident");
        }
    }

    use crate::types::BatchId;

    fn tbr(batch: u32, index: u32) -> TbRef {
        TbRef { batch: BatchId(batch), index }
    }

    /// A depth-1 lineage: `tb` launched by `parent`, running on `smx`.
    fn child_lineage(tb: TbRef, parent: TbRef, smx: u16) -> Lineage {
        let mut l = Lineage::new(tb, SmxId(smx));
        l.push_ancestor(parent);
        l.parent_smx = Some(SmxId(0));
        l
    }

    #[test]
    fn zero_access_rates_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.child_hit_rate(), 0.0);
        assert_eq!(s.prov.share(ReuseClass::ParentChild), 0.0);
        assert_eq!(s.prov.total(), 0);
    }

    #[test]
    fn child_hit_rate_ignores_parent_traffic() {
        let mut s = CacheStats::default();
        s.record(AccessClass::Parent, true);
        s.record(AccessClass::Parent, false);
        assert_eq!(s.child_hit_rate(), 0.0, "no child accesses yet");
        s.record(AccessClass::Child, true);
        assert!((s.child_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_preserves_provenance_counters() {
        let mut a = CacheStats { hits: 2, ..Default::default() };
        a.prov.by_class[ReuseClass::SelfReuse.index()] = 1;
        a.prov.same_smx = 1;
        let mut b = CacheStats { hits: 3, ..Default::default() };
        b.prov.by_class[ReuseClass::ParentChild.index()] = 2;
        b.prov.cross_smx = 2;
        a.merge(&b);
        assert_eq!(a.prov.class(ReuseClass::SelfReuse), 1);
        assert_eq!(a.prov.class(ReuseClass::ParentChild), 2);
        assert_eq!(a.prov.same_smx, 1);
        assert_eq!(a.prov.cross_smx, 2);
        assert_eq!(a.prov.total(), 3);
    }

    #[test]
    fn classify_covers_all_relations() {
        let parent = Lineage::new(tbr(0, 1), SmxId(0));
        let child_a = child_lineage(tbr(1, 0), tbr(0, 1), 0);
        let child_b = child_lineage(tbr(1, 1), tbr(0, 1), 1);
        let cousin = child_lineage(tbr(2, 0), tbr(0, 2), 1);
        let mut grandchild = Lineage::new(tbr(3, 0), SmxId(2));
        grandchild.push_ancestor(tbr(1, 0)); // direct parent: child_a
        grandchild.push_ancestor(tbr(0, 1)); // grandparent: parent

        assert_eq!(parent.classify(&parent), ReuseClass::SelfReuse);
        assert_eq!(child_a.classify(&parent), ReuseClass::ParentChild);
        assert_eq!(parent.classify(&child_a), ReuseClass::ParentChild);
        assert_eq!(child_a.classify(&child_b), ReuseClass::Sibling);
        assert_eq!(child_a.classify(&cousin), ReuseClass::Unrelated);
        assert_eq!(grandchild.classify(&parent), ReuseClass::Ancestor);
        assert_eq!(parent.classify(&grandchild), ReuseClass::Ancestor);
        assert_eq!(grandchild.classify(&child_a), ReuseClass::ParentChild);
    }

    #[test]
    fn same_batch_without_common_parent_is_sibling() {
        let a = Lineage::new(tbr(0, 0), SmxId(0));
        let b = Lineage::new(tbr(0, 5), SmxId(1));
        assert_eq!(a.classify(&b), ReuseClass::Sibling);
    }

    #[test]
    fn ancestor_chain_clamps_but_depth_counts() {
        let mut l = Lineage::new(tbr(99, 0), SmxId(0));
        for i in 0..(MAX_ANCESTORS as u32 + 3) {
            l.push_ancestor(tbr(i, 0));
        }
        assert_eq!(l.num_ancestors as usize, MAX_ANCESTORS);
        assert_eq!(l.depth, MAX_ANCESTORS as u32 + 3);
        assert_eq!(l.parent(), Some(tbr(0, 0)));
    }

    #[test]
    fn tagged_hits_classified_and_partition_holds() {
        let mut c = tiny();
        c.enable_provenance();
        let parent = Lineage::new(tbr(0, 1), SmxId(0));
        let child = child_lineage(tbr(1, 0), tbr(0, 1), 1);
        // Parent installs at cycle 10, child hits at cycle 42, parent
        // re-hits at cycle 50.
        c.access(0, true, AccessClass::Parent, false, &parent, 10);
        c.access(0, true, AccessClass::Child, false, &child, 42);
        c.access(0, true, AccessClass::Parent, false, &parent, 50);
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.prov.class(ReuseClass::ParentChild), 1);
        assert_eq!(s.prov.class(ReuseClass::SelfReuse), 1);
        assert_eq!(s.prov.total(), s.hits, "every hit classified");
        assert_eq!(s.prov.same_smx, 1);
        assert_eq!(s.prov.cross_smx, 1);
        let dist = c.reuse_dist().unwrap();
        let pc = &dist[ReuseClass::ParentChild.index()];
        assert_eq!(pc.count, 1);
        assert_eq!(pc.sum, 32); // 42 - 10
    }

    #[test]
    fn hit_rehit_measures_distance_from_install_not_last_hit() {
        let mut c = tiny();
        c.enable_provenance();
        let l = Lineage::new(tbr(0, 0), SmxId(0));
        c.access(0, true, AccessClass::Parent, false, &l, 0);
        c.access(0, true, AccessClass::Parent, false, &l, 100);
        c.access(0, true, AccessClass::Parent, false, &l, 300);
        let dist = c.reuse_dist().unwrap();
        let sr = &dist[ReuseClass::SelfReuse.index()];
        assert_eq!(sr.count, 2);
        assert_eq!(sr.sum, 400); // 100 + 300, both from install at 0
    }

    #[test]
    fn refill_retags_the_line() {
        let mut c = tiny();
        c.enable_provenance();
        let a = Lineage::new(tbr(0, 0), SmxId(0));
        let b = Lineage::new(tbr(5, 0), SmxId(1));
        // a installs 0; 4 and 8 (same set) evict it; b reinstalls 0;
        // a's hit on it must classify against b, not the stale tag.
        c.access(0, true, AccessClass::Parent, false, &a, 0);
        c.access(4, true, AccessClass::Parent, false, &a, 1);
        c.access(8, true, AccessClass::Parent, false, &a, 2);
        c.access(0, true, AccessClass::Parent, false, &b, 3);
        c.access(0, true, AccessClass::Parent, false, &a, 4);
        assert_eq!(c.stats().prov.class(ReuseClass::Unrelated), 1);
        assert_eq!(c.stats().prov.class(ReuseClass::SelfReuse), 0);
    }

    #[test]
    fn lines_filled_before_profiling_are_not_classified() {
        let mut c = tiny();
        touch(&mut c, 0, true, AccessClass::Parent); // untagged fill
        c.enable_provenance();
        let l = Lineage::new(tbr(0, 0), SmxId(0));
        c.access(0, true, AccessClass::Parent, false, &l, 5);
        // Hit on an untagged line: counted as a hit, not classified.
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().prov.total(), 0);
    }

    #[test]
    fn disabled_provenance_is_plain_access() {
        let mut c = tiny();
        let l = Lineage::new(tbr(0, 0), SmxId(0));
        c.access(0, true, AccessClass::Parent, false, &l, 0);
        c.access(0, true, AccessClass::Parent, false, &l, 1);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().prov.total(), 0);
        assert!(c.reuse_dist().is_none());
    }

    #[test]
    fn reset_clears_provenance_state() {
        let mut c = tiny();
        c.enable_provenance();
        let l = Lineage::new(tbr(0, 0), SmxId(0));
        c.access(0, true, AccessClass::Parent, false, &l, 0);
        c.access(0, true, AccessClass::Parent, false, &l, 9);
        c.reset();
        assert_eq!(c.stats().prov.total(), 0);
        assert_eq!(c.reuse_dist().unwrap()[ReuseClass::SelfReuse.index()].count, 0);
        // A post-reset hit on a refilled line classifies fresh.
        c.access(0, true, AccessClass::Parent, false, &l, 20);
        c.access(0, true, AccessClass::Parent, false, &l, 21);
        assert_eq!(c.stats().prov.class(ReuseClass::SelfReuse), 1);
    }
}
