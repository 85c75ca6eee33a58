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

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::cache::{AccessClass, Cache, CacheStats, Lineage, ProbeResult};
use crate::config::GpuConfig;
use crate::dram::Dram;
use crate::types::{Cycle, LineAddr, SmxId};

/// Maximum in-flight L2 misses tracked by the MSHR file.
const MSHR_ENTRIES: usize = 1024;

/// Multiply-mix hasher for `u64` line addresses. The MSHR map is probed
/// on every transaction that reaches L2, where SipHash shows up in
/// profiles; a fixed-key mix is plenty for cache-line keys and, unlike
/// `RandomState`, is deterministic across processes.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }
}

type LineMap = HashMap<LineAddr, Cycle, BuildHasherDefault<LineHasher>>;

/// The full memory system below the SMX load/store units.
#[derive(Debug)]
pub struct MemorySystem {
    l1s: Vec<Cache>,
    l2: Cache,
    dram: Dram,
    /// In-flight L2 fills: line → cycle the data arrives.
    outstanding: LineMap,
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
            outstanding: LineMap::default(),
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
        if let Some(&fill_at) = self.outstanding.get(&line) {
            if fill_at > now + base {
                self.mshr_merges += 1;
                return fill_at - now;
            }
            self.outstanding.remove(&line);
        }
        if l2_result == ProbeResult::Hit {
            return base;
        }

        let dram_latency = self.dram.access(line, now + base);
        let fill_at = now + base + dram_latency;
        if self.outstanding.len() >= MSHR_ENTRIES {
            self.outstanding.retain(|_, &mut t| t > now);
            if self.outstanding.len() >= MSHR_ENTRIES {
                self.mshr_full_events += 1;
            } else {
                self.outstanding.insert(line, fill_at);
            }
        } else {
            self.outstanding.insert(line, fill_at);
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
