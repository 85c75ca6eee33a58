//! The memory hierarchy: per-SMX L1 caches, shared L2, MSHRs, and DRAM.
//!
//! Write policy follows GPU convention: L1 is write-through
//! no-write-allocate (stores update the line if present but never fill),
//! L2 is write-back write-allocate (dirty evictions send write-back
//! traffic to DRAM). L2 misses allocate an MSHR entry; a second miss to a
//! line whose fill is already in flight *merges* with it instead of
//! issuing another DRAM transaction — exactly the mechanism that makes
//! temporally-close sharers (LaPerm's prioritized children) cheaper than
//! far-apart ones.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;

use crate::cache::{AccessClass, Cache, CacheStats, Lineage, ProbeResult};
use crate::config::GpuConfig;
use crate::dram::Dram;
use crate::types::{Cycle, LineAddr, LineHasher, SmxId};

/// Maximum in-flight L2 misses tracked by the MSHR file.
const MSHR_ENTRIES: usize = 1024;

type LineMap = HashMap<LineAddr, Cycle, BuildHasherDefault<LineHasher>>;

/// The MSHR file: in-flight L2 fills, line → cycle the data arrives.
///
/// A min-heap of `(fill cycle, line)` orders the entries by expiry, so
/// freeing the fills that have landed pops just those instead of
/// sweeping the whole file. The heap may hold stale items (an entry
/// dropped by [`pending`](Self::pending), or re-allocated with a new
/// fill cycle); an item only counts while the map holds its exact
/// `(line, fill)`.
#[derive(Debug, Default)]
struct Mshrs {
    map: LineMap,
    by_fill: BinaryHeap<Reverse<(Cycle, LineAddr)>>,
}

impl Mshrs {
    /// The fill cycle of `line` if its fill lands after `ready_at`, the
    /// cycle the access would otherwise have its data. An entry whose
    /// fill has landed by then is dropped.
    fn pending(&mut self, line: LineAddr, ready_at: Cycle) -> Option<Cycle> {
        let fill_at = *self.map.get(&line)?;
        if fill_at > ready_at {
            return Some(fill_at);
        }
        self.map.remove(&line);
        None
    }

    /// Tracks the fill of `line` (not [`pending`](Self::pending)),
    /// landing at `fill_at`, issued at `now`. A full file first frees
    /// every entry whose fill has landed by `now`; returns `false` if it
    /// is still full, and the fill goes untracked.
    fn allocate(&mut self, line: LineAddr, fill_at: Cycle, now: Cycle) -> bool {
        if self.map.len() >= MSHR_ENTRIES {
            while let Some(&Reverse((t, l))) = self.by_fill.peek() {
                if t > now {
                    break;
                }
                self.by_fill.pop();
                if self.map.get(&l) == Some(&t) {
                    self.map.remove(&l);
                }
            }
            if self.map.len() >= MSHR_ENTRIES {
                return false;
            }
        }
        self.map.insert(line, fill_at);
        self.by_fill.push(Reverse((fill_at, line)));
        // Stale items pile up while the file never fills; rebuilding
        // from the live entries bounds the heap at a few files' worth.
        if self.by_fill.len() > 4 * MSHR_ENTRIES {
            self.by_fill = self.map.iter().map(|(&l, &t)| Reverse((t, l))).collect();
        }
        true
    }
}

/// The full memory system below the SMX load/store units.
#[derive(Debug)]
pub struct MemorySystem {
    l1s: Vec<Cache>,
    l2: Cache,
    dram: Dram,
    /// In-flight L2 fills: line → cycle the data arrives.
    outstanding: Mshrs,
    l1_hit_latency: u32,
    l2_hit_latency: u32,
    transaction_issue_cycles: u32,
    mshr_merges: u64,
    mshr_full_events: u64,
    l2_writebacks: u64,
}

impl MemorySystem {
    /// Builds the memory system for a configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        MemorySystem {
            l1s: (0..cfg.num_smxs)
                .map(|_| Cache::new(cfg.l1_bytes, cfg.l1_assoc, cfg.line_bytes))
                .collect(),
            l2: Cache::new(cfg.l2_bytes, cfg.l2_assoc, cfg.line_bytes),
            dram: Dram::new(cfg.dram_channels, cfg.dram_latency, cfg.dram_service_cycles),
            outstanding: Mshrs::default(),
            l1_hit_latency: cfg.l1_hit_latency,
            l2_hit_latency: cfg.l2_hit_latency,
            transaction_issue_cycles: cfg.transaction_issue_cycles,
            mshr_merges: 0,
            mshr_full_events: 0,
            l2_writebacks: 0,
        }
    }

    /// Enables locality provenance profiling on every cache: installer
    /// tags plus per-class reuse-distance histograms. Call before the
    /// first access so all fills are tagged.
    pub fn enable_provenance(&mut self) {
        for l1 in &mut self.l1s {
            l1.enable_provenance();
        }
        self.l2.enable_provenance();
    }

    /// Services one warp memory instruction made of the given coalesced
    /// line transactions, issued from `smx` at cycle `now` by the TB
    /// `lineage` names.
    ///
    /// Returns the cycles until the warp's data is ready: the maximum
    /// transaction latency, plus per-extra-transaction serialization.
    /// With provenance profiling enabled, hits are also attributed to a
    /// [`ReuseClass`](crate::cache::ReuseClass); timing is identical
    /// either way.
    pub fn warp_access(
        &mut self,
        smx: SmxId,
        lines: &[LineAddr],
        is_store: bool,
        class: AccessClass,
        now: Cycle,
        lineage: &Lineage,
    ) -> u64 {
        if lines.is_empty() {
            return 0;
        }
        let mut worst = 0u64;
        for (i, &line) in lines.iter().enumerate() {
            let serialization = u64::from(self.transaction_issue_cycles) * i as u64;
            let lat = serialization + self.line_access(smx, line, is_store, class, now, lineage);
            worst = worst.max(lat);
        }
        worst
    }

    fn line_access(
        &mut self,
        smx: SmxId,
        line: LineAddr,
        is_store: bool,
        class: AccessClass,
        now: Cycle,
        lineage: &Lineage,
    ) -> u64 {
        let l1 = &mut self.l1s[smx.index()];
        // L1: loads allocate, stores are write-through no-allocate.
        let (l1_result, _) = l1.access(line, !is_store, class, false, lineage, now);
        if l1_result == ProbeResult::Hit && !is_store {
            return u64::from(self.l1_hit_latency);
        }

        // Stores always propagate to L2 (write-through L1); load misses
        // fetch from L2. L2 is write-back: stores dirty the line and
        // dirty victims cost DRAM write-back bandwidth.
        let (l2_result, evicted) = self.l2.access(line, true, class, is_store, lineage, now);
        let base = u64::from(self.l1_hit_latency) + u64::from(self.l2_hit_latency);
        if let Some(victim) = evicted {
            if victim.dirty {
                self.l2_writebacks += 1;
                // Bandwidth charge only: the requester does not wait for
                // the write-back to finish.
                let _ = self.dram.access(victim.line, now + base);
            }
        }
        // The tag store fills atomically at miss time, so a "hit" may be
        // on a line whose data is still in flight: both hits and misses
        // consult the MSHR file and wait for (merge with) a pending fill.
        if let Some(fill_at) = self.outstanding.pending(line, now + base) {
            self.mshr_merges += 1;
            return fill_at - now;
        }
        if l2_result == ProbeResult::Hit {
            return base;
        }

        let dram_latency = self.dram.access(line, now + base);
        if !self.outstanding.allocate(line, now + base + dram_latency, now) {
            self.mshr_full_events += 1;
        }
        base + dram_latency
    }

    /// Statistics of one SMX's L1 cache.
    pub fn l1_stats(&self, smx: SmxId) -> &CacheStats {
        self.l1s[smx.index()].stats()
    }

    /// Aggregated statistics over all L1 caches.
    pub fn l1_stats_total(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.l1s {
            total.merge(c.stats());
        }
        total
    }

    /// Statistics of the shared L2 cache.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Per-class L1 reuse-distance histograms merged over all SMXs
    /// (all-empty when profiling is off).
    pub fn l1_reuse_dist_total(&self) -> [crate::stats::Pow2Hist; crate::cache::NUM_REUSE_CLASSES] {
        let mut total: [crate::stats::Pow2Hist; crate::cache::NUM_REUSE_CLASSES] =
            Default::default();
        for c in &self.l1s {
            if let Some(hists) = c.reuse_dist() {
                for (t, h) in total.iter_mut().zip(hists.iter()) {
                    t.merge(h);
                }
            }
        }
        total
    }

    /// Per-class L2 reuse-distance histograms (all-empty when profiling
    /// is off).
    pub fn l2_reuse_dist(&self) -> [crate::stats::Pow2Hist; crate::cache::NUM_REUSE_CLASSES] {
        match self.l2.reuse_dist() {
            Some(hists) => *hists,
            None => Default::default(),
        }
    }

    /// DRAM transaction count (fills plus write-backs).
    pub fn dram_accesses(&self) -> u64 {
        self.dram.accesses()
    }

    /// Mean DRAM queueing delay (cycles per transaction).
    pub fn dram_mean_queueing(&self) -> f64 {
        self.dram.mean_queueing()
    }

    /// DRAM row-buffer hit rate.
    pub fn dram_row_hit_rate(&self) -> f64 {
        self.dram.row_hit_rate()
    }

    /// L2 misses that merged with an in-flight fill.
    pub fn mshr_merges(&self) -> u64 {
        self.mshr_merges
    }

    /// Misses that found the MSHR file full (modeled without stall).
    pub fn mshr_full_events(&self) -> u64 {
        self.mshr_full_events
    }

    /// Dirty L2 evictions written back to DRAM.
    pub fn l2_writebacks(&self) -> u64 {
        self.l2_writebacks
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn system() -> MemorySystem {
        MemorySystem::new(&GpuConfig::small_test())
    }

    /// A warp access by an ancestry-free TB running on `smx`.
    fn access(
        m: &mut MemorySystem,
        smx: SmxId,
        lines: &[LineAddr],
        is_store: bool,
        class: AccessClass,
        now: Cycle,
    ) -> u64 {
        let tb = crate::types::TbRef { batch: crate::types::BatchId(0), index: 0 };
        m.warp_access(smx, lines, is_store, class, now, &Lineage::new(tb, smx))
    }

    fn cold_latency(cfg: &GpuConfig) -> u64 {
        // First touch: L1 miss + L2 miss + DRAM row miss.
        u64::from(cfg.l1_hit_latency + cfg.l2_hit_latency + cfg.dram_latency) + 12
    }

    #[test]
    fn cold_load_costs_full_path() {
        let mut m = system();
        let cfg = GpuConfig::small_test();
        let lat = access(&mut m, SmxId(0), &[1000], false, AccessClass::Parent, 0);
        assert_eq!(lat, cold_latency(&cfg));
    }

    #[test]
    fn warm_load_hits_l1() {
        let mut m = system();
        let cfg = GpuConfig::small_test();
        access(&mut m, SmxId(0), &[1000], false, AccessClass::Parent, 0);
        let lat = access(&mut m, SmxId(0), &[1000], false, AccessClass::Parent, 10_000);
        assert_eq!(lat, u64::from(cfg.l1_hit_latency));
    }

    #[test]
    fn other_smx_misses_l1_hits_l2() {
        let mut m = system();
        let cfg = GpuConfig::small_test();
        access(&mut m, SmxId(0), &[1000], false, AccessClass::Parent, 0);
        let lat = access(&mut m, SmxId(1), &[1000], false, AccessClass::Child, 10_000);
        assert_eq!(lat, u64::from(cfg.l1_hit_latency + cfg.l2_hit_latency));
        assert_eq!(m.l1_stats(SmxId(1)).child_misses, 1);
        assert_eq!(m.l2_stats().child_hits, 1);
    }

    #[test]
    fn stores_do_not_allocate_l1() {
        let mut m = system();
        access(&mut m, SmxId(0), &[2000], true, AccessClass::Parent, 0);
        let cfg = GpuConfig::small_test();
        // Load after store: line is in L2 (write-allocate) but not L1.
        let lat = access(&mut m, SmxId(0), &[2000], false, AccessClass::Parent, 10_000);
        assert_eq!(lat, u64::from(cfg.l1_hit_latency + cfg.l2_hit_latency));
    }

    #[test]
    fn concurrent_misses_to_same_line_merge_in_mshr() {
        let mut m = system();
        let cfg = GpuConfig::small_test();
        let first = access(&mut m, SmxId(0), &[5000], false, AccessClass::Parent, 0);
        // A second SMX misses the same line 10 cycles later, while the
        // fill is still in flight: it waits for the same fill instead of
        // paying a full DRAM trip.
        let second = access(&mut m, SmxId(1), &[5000], false, AccessClass::Child, 10);
        assert_eq!(m.mshr_merges(), 1);
        assert_eq!(second, first - 10);
        // Only one DRAM transaction happened.
        assert_eq!(m.dram_accesses(), 1);
        let _ = cfg;
    }

    #[test]
    fn expired_mshr_entry_is_not_merged() {
        let mut m = system();
        access(&mut m, SmxId(0), &[5000], false, AccessClass::Parent, 0);
        // Far in the future the line was evicted from L2? No — it was
        // filled; touch enough lines to evict it, then miss again.
        let cfg = GpuConfig::small_test();
        let lines_to_evict: Vec<u64> =
            (0..(cfg.l2_bytes / cfg.line_bytes) as u64 + 64).map(|i| 5000 + (i + 1) * 8).collect();
        for chunk in lines_to_evict.chunks(16) {
            access(&mut m, SmxId(0), chunk, false, AccessClass::Parent, 100_000);
        }
        let lat = access(&mut m, SmxId(0), &[5000], false, AccessClass::Parent, 1_000_000);
        assert!(lat > u64::from(cfg.l1_hit_latency + cfg.l2_hit_latency));
        assert_eq!(m.mshr_merges(), 0);
    }

    #[test]
    fn dirty_eviction_generates_writeback_traffic() {
        let mut m = system();
        let cfg = GpuConfig::small_test();
        let l2_lines = u64::from(cfg.l2_bytes / cfg.line_bytes);
        // Dirty one line, then stream enough lines through L2 to evict it.
        access(&mut m, SmxId(0), &[0], true, AccessClass::Parent, 0);
        for i in 0..l2_lines + cfg.l2_assoc as u64 {
            access(&mut m, SmxId(0), &[i + 1], false, AccessClass::Parent, 1000 + i);
        }
        assert!(m.l2_writebacks() >= 1, "dirty line should be written back");
        assert!(m.dram_accesses() > l2_lines, "write-back adds DRAM traffic");
    }

    #[test]
    fn multiple_transactions_serialize() {
        let mut m = system();
        let cfg = GpuConfig::small_test();
        access(&mut m, SmxId(0), &[10], false, AccessClass::Parent, 0);
        access(&mut m, SmxId(0), &[11], false, AccessClass::Parent, 0);
        let lat = access(&mut m, SmxId(0), &[10, 11], false, AccessClass::Parent, 10_000);
        assert_eq!(lat, u64::from(cfg.l1_hit_latency) + u64::from(cfg.transaction_issue_cycles));
    }

    #[test]
    fn empty_access_is_free() {
        let mut m = system();
        assert_eq!(access(&mut m, SmxId(0), &[], false, AccessClass::Parent, 0), 0);
    }

    #[test]
    fn l1_total_aggregates_across_smxs() {
        let mut m = system();
        access(&mut m, SmxId(0), &[1], false, AccessClass::Parent, 0);
        access(&mut m, SmxId(1), &[2], false, AccessClass::Parent, 0);
        assert_eq!(m.l1_stats_total().accesses(), 2);
    }

    #[test]
    fn dram_accessed_only_on_l2_miss() {
        let mut m = system();
        access(&mut m, SmxId(0), &[5], false, AccessClass::Parent, 0);
        assert_eq!(m.dram_accesses(), 1);
        access(&mut m, SmxId(1), &[5], false, AccessClass::Parent, 10_000);
        assert_eq!(m.dram_accesses(), 1);
    }

    /// The reference MSHR file: a full file sweeps every entry with
    /// `retain`, which is obviously "free every landed fill".
    #[derive(Default)]
    struct RetainMshrs(LineMap);

    fn sorted(map: &LineMap) -> Vec<(LineAddr, Cycle)> {
        let mut e: Vec<_> = map.iter().map(|(&l, &t)| (l, t)).collect();
        e.sort_unstable();
        e
    }

    trait MshrFile {
        fn pending(&mut self, line: LineAddr, ready_at: Cycle) -> Option<Cycle>;
        fn allocate(&mut self, line: LineAddr, fill_at: Cycle, now: Cycle) -> bool;
        fn entries(&self) -> Vec<(LineAddr, Cycle)>;
    }

    impl MshrFile for RetainMshrs {
        fn pending(&mut self, line: LineAddr, ready_at: Cycle) -> Option<Cycle> {
            let fill_at = *self.0.get(&line)?;
            if fill_at > ready_at {
                return Some(fill_at);
            }
            self.0.remove(&line);
            None
        }

        fn allocate(&mut self, line: LineAddr, fill_at: Cycle, now: Cycle) -> bool {
            if self.0.len() >= MSHR_ENTRIES {
                self.0.retain(|_, &mut t| t > now);
                if self.0.len() >= MSHR_ENTRIES {
                    return false;
                }
            }
            self.0.insert(line, fill_at);
            true
        }

        fn entries(&self) -> Vec<(LineAddr, Cycle)> {
            sorted(&self.0)
        }
    }

    impl MshrFile for Mshrs {
        fn pending(&mut self, line: LineAddr, ready_at: Cycle) -> Option<Cycle> {
            Mshrs::pending(self, line, ready_at)
        }

        fn allocate(&mut self, line: LineAddr, fill_at: Cycle, now: Cycle) -> bool {
            Mshrs::allocate(self, line, fill_at, now)
        }

        fn entries(&self) -> Vec<(LineAddr, Cycle)> {
            sorted(&self.map)
        }
    }

    /// One L2-level access as `line_access` drives the MSHR file:
    /// `(latency, merged, found the file full)`.
    fn mshr_step(
        file: &mut impl MshrFile,
        line: LineAddr,
        now: Cycle,
        base: u64,
        l2_hit: bool,
        dram_latency: u64,
    ) -> (u64, bool, bool) {
        if let Some(fill_at) = file.pending(line, now + base) {
            return (fill_at - now, true, false);
        }
        if l2_hit {
            return (base, false, false);
        }
        let full = !file.allocate(line, now + base + dram_latency, now);
        (base + dram_latency, false, full)
    }

    #[test]
    fn expiry_heap_matches_retain_sweep_on_random_streams() {
        // Streams alternate quiet phases (one access every 1-4 cycles)
        // and busy ones (`per_cycle` accesses a cycle) against fills of
        // up to 3000 cycles: busy phases keep the 1024-entry file full,
        // quiet ones let it drain. On 256 lines the file never fills,
        // and re-touched lines leave stale heap items until the heap is
        // rebuilt. `jitter` lets `now` step back by up to that many
        // cycles.
        let (mut merges, mut full, mut heap_peak) = (0u64, 0u64, 0usize);
        for (seed, lines, per_cycle, jitter) in [
            (1u64, 1 << 16, 1u64, 0u64),
            (2, 3000, 2, 0),
            (3, 1 << 20, 3, 40),
            (4, 1 << 12, 2, 0),
            (5, 256, 2, 0),
        ] {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |bound: u64| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
            };
            let (mut heap, mut sweep) = (Mshrs::default(), RetainMshrs::default());
            let mut clock = 1_000u64;
            for i in 0..40_000 {
                clock += if (i / 10_000) % 2 == 0 {
                    1 + next(4)
                } else {
                    u64::from(next(per_cycle) == 0)
                };
                let now = clock - next(jitter + 1);
                let line = next(lines);
                let base = 20 + next(40);
                let l2_hit = next(10) < 3;
                let dram = 200 + next(2_800);
                let got = mshr_step(&mut heap, line, now, base, l2_hit, dram);
                let want = mshr_step(&mut sweep, line, now, base, l2_hit, dram);
                assert_eq!(got, want, "seed {seed}, access {i}");
                merges += u64::from(got.1);
                full += u64::from(got.2);
                heap_peak = heap_peak.max(heap.by_fill.len());
                if i % 97 == 0 {
                    assert_eq!(heap.entries(), sweep.entries(), "seed {seed}, access {i}");
                }
            }
            assert_eq!(heap.entries(), sweep.entries(), "seed {seed}");
        }
        assert!(merges > 0 && full > 0, "{merges} merges, {full} full events");
        assert!(
            (2 * MSHR_ENTRIES..=4 * MSHR_ENTRIES).contains(&heap_peak),
            "heap peaked at {heap_peak} items: stale items never built up, or went unbounded"
        );
    }

    #[test]
    fn row_hit_rate_reflects_spatial_locality() {
        let mut m = system();
        // Sequential lines on one channel share rows.
        let cfg = GpuConfig::small_test();
        let seq: Vec<u64> = (0..64u64).map(|i| i * u64::from(cfg.dram_channels)).collect();
        for (i, &l) in seq.iter().enumerate() {
            access(&mut m, SmxId(0), &[l], false, AccessClass::Parent, 10_000 * i as u64);
        }
        assert!(m.dram_row_hit_rate() > 0.5);
    }
}
