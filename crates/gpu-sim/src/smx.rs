//! Stream multiprocessor (SMX) model.
//!
//! An SMX holds resident thread blocks subject to resource limits
//! (threads, registers, shared memory, TB slots), and each cycle issues up
//! to `issue_width` warp instructions chosen by its warp scheduler.
//! Memory instructions send their warp's precomputed line run (see
//! [`crate::lowered`]) to the memory system; the issuing warp blocks
//! until the data returns.

use std::sync::Arc;

use crate::cache::{AccessClass, Lineage, ReuseClass};
use crate::config::GpuConfig;
use crate::kernel::ResourceReq;
use crate::lowered::{LoweredOp, LoweredProgram};
use crate::mem::MemorySystem;
use crate::stats::{BindReuse, StallBreakdown, StallCause};
use crate::types::{Cycle, SmxId, TbRef};
use crate::warp::Warp;
use crate::warp_sched::{WarpCandidate, WarpScheduler};

/// Free resource pool of one SMX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmxResources {
    /// Free thread contexts.
    pub threads: u32,
    /// Free registers.
    pub regs: u32,
    /// Free shared memory in bytes.
    pub smem: u32,
    /// Free TB slots.
    pub tb_slots: u32,
}

impl SmxResources {
    /// The full pool for a configuration.
    pub fn full(cfg: &GpuConfig) -> Self {
        SmxResources {
            threads: cfg.max_threads_per_smx,
            regs: cfg.max_regs_per_smx,
            smem: cfg.max_smem_per_smx,
            tb_slots: cfg.max_tbs_per_smx,
        }
    }

    /// `true` if one TB with requirement `req` fits in the free pool.
    pub fn fits(&self, req: &ResourceReq) -> bool {
        self.tb_slots >= 1
            && self.threads >= req.threads
            && self.regs >= req.regs_per_tb()
            && self.smem >= req.smem_bytes
    }

    fn take(&mut self, req: &ResourceReq) {
        debug_assert!(self.fits(req));
        self.threads -= req.threads;
        self.regs -= req.regs_per_tb();
        self.smem -= req.smem_bytes;
        self.tb_slots -= 1;
    }

    fn release(&mut self, req: &ResourceReq) {
        self.threads += req.threads;
        self.regs += req.regs_per_tb();
        self.smem += req.smem_bytes;
        self.tb_slots += 1;
    }
}

/// A thread block resident on an SMX.
#[derive(Debug)]
pub struct ResidentTb {
    /// Identity of the TB.
    pub tb: TbRef,
    /// Statistics class (parent vs child).
    pub class: AccessClass,
    /// The TB's program, lowered for its geometry.
    pub program: Arc<LoweredProgram>,
    /// Warp execution contexts.
    pub warps: Vec<Warp>,
    /// Threads in the TB.
    pub threads: u32,
    /// Resources held.
    pub req: ResourceReq,
    /// Monotone dispatch sequence number (for warp-scheduler age).
    pub dispatch_seq: u64,
    /// Identity and ancestry carried by every memory access this TB
    /// issues (meaningful only when locality profiling is on; a default
    /// ancestry-free lineage otherwise).
    pub lineage: Lineage,
    /// Cycle the TB's first instruction issued; `Cycle::MAX` until then.
    /// Stamped on every run; the sentinel flows through [`TbCompletion`]
    /// and the engine falls back to `finished_at` for TBs that retire
    /// without issuing (empty programs).
    pub first_issue_at: Cycle,
    /// Earliest cycle any of this TB's warps can act (issue, finalize,
    /// or leave a barrier), packed as in [`Warp::set_ready`]: cycle in
    /// the high bits, the [`StallCause`] the wait is attributable to in
    /// the low three. Recomputed by the post-issue pass and reset
    /// whenever one of the TB's warps issues; lets both scan loops skip
    /// TBs that are provably asleep with a single compare, and keeps the
    /// cause across cycles the TB is skipped.
    next_packed: u64,
}

impl ResidentTb {
    /// Earliest cycle any of this TB's warps can act.
    fn next_ready(&self) -> Cycle {
        self.next_packed >> 3
    }
}

/// A retired thread block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbCompletion {
    /// Identity of the TB.
    pub tb: TbRef,
    /// SMX it ran on.
    pub smx: SmxId,
    /// Dispatch sequence number the engine placed it with.
    pub dispatch_seq: u64,
    /// Cycle its first instruction issued (`Cycle::MAX` when the TB
    /// never issued).
    pub first_issue_at: Cycle,
    /// Cycle it retired.
    pub finished_at: Cycle,
}

/// A device-side launch issued by a running TB.
#[derive(Debug, Clone)]
pub struct IssuedLaunch {
    /// The launch parameters from the program.
    pub spec: crate::program::LaunchSpec,
    /// The launching (direct parent) TB.
    pub by: TbRef,
    /// The SMX the parent is running on.
    pub smx: SmxId,
}

/// Events produced by one SMX cycle.
#[derive(Debug, Default)]
pub struct SmxEvents {
    /// TBs that retired this cycle.
    pub completions: Vec<TbCompletion>,
    /// Launches issued this cycle.
    pub launches: Vec<IssuedLaunch>,
}

/// One stream multiprocessor.
#[derive(Debug)]
pub struct Smx {
    id: SmxId,
    free: SmxResources,
    resident: Vec<ResidentTb>,
    warp_sched: Box<dyn WarpScheduler>,
    next_event: Cycle,
    // Scratch buffers reused across cycles so the issue loop allocates
    // nothing in steady state.
    cand_scratch: Vec<WarpCandidate>,
    loc_scratch: Vec<(usize, usize)>,
    /// Cycles in which at least one warp instruction issued.
    pub busy_cycles: u64,
    /// Stall cycles by cause; `busy_cycles + stall.total()` equals the
    /// cycles this SMX was stepped (or skipped by the event engine) over.
    stall: StallBreakdown,
    /// Cause charged for cycles `step` skips before `next_event`
    /// (recomputed by every full post-issue pass).
    wait_cause: StallCause,
    /// First cycle not yet accounted in `stall`/`busy_cycles`: skip
    /// paths do no per-cycle work, and `[stall_anchor, now)` is charged
    /// to `wait_cause` in bulk on the next active step (or read).
    stall_anchor: Cycle,
    /// Warp instructions issued.
    pub warp_instructions: u64,
    /// Thread instructions issued (warp instructions × active threads).
    pub thread_instructions: u64,
    /// Issued warp instructions by kind.
    pub instruction_mix: crate::stats::InstructionMix,
    /// TBs dispatched to this SMX over the whole run.
    pub tbs_executed: u64,
    /// Child-TB L1 reuse split by bound vs stolen placement (only
    /// accumulated while locality profiling is on).
    pub bind_reuse: BindReuse,
}

impl std::fmt::Debug for Box<dyn WarpScheduler> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WarpScheduler({})", self.name())
    }
}

impl Smx {
    /// Creates an idle SMX.
    pub fn new(id: SmxId, cfg: &GpuConfig, warp_sched: Box<dyn WarpScheduler>) -> Self {
        Smx {
            id,
            free: SmxResources::full(cfg),
            resident: Vec::new(),
            warp_sched,
            next_event: 0,
            cand_scratch: Vec::new(),
            loc_scratch: Vec::new(),
            busy_cycles: 0,
            stall: StallBreakdown::default(),
            wait_cause: StallCause::NoTb,
            stall_anchor: 0,
            warp_instructions: 0,
            thread_instructions: 0,
            instruction_mix: crate::stats::InstructionMix::default(),
            tbs_executed: 0,
            bind_reuse: BindReuse::default(),
        }
    }

    /// This SMX's id.
    pub fn id(&self) -> SmxId {
        self.id
    }

    /// Current free resources.
    pub fn free(&self) -> SmxResources {
        self.free
    }

    /// Number of resident TBs.
    pub fn resident_tbs(&self) -> usize {
        self.resident.len()
    }

    /// The earliest cycle at which this SMX can next make progress.
    ///
    /// [`step`](Self::step) is a no-op for any `now` strictly before this
    /// (and for an empty SMX), which is what lets the event engine skip
    /// idle stretches without changing any statistics.
    pub fn next_event(&self) -> Cycle {
        self.next_event
    }

    /// `true` if a TB with requirement `req` can be placed now.
    pub fn fits(&self, req: &ResourceReq) -> bool {
        self.free.fits(req)
    }

    /// Identities of the TBs currently resident on this SMX, in placement
    /// order. Used by the forward-progress watchdog to name suspects.
    pub fn resident_refs(&self) -> impl Iterator<Item = TbRef> + '_ {
        self.resident.iter().map(|t| t.tb)
    }

    /// What this SMX is currently waiting on (the cause skipped cycles
    /// are charged to).
    pub fn wait_cause(&self) -> StallCause {
        self.wait_cause
    }

    /// Stall-cycle breakdown accumulated up to cycle `now` (exclusive).
    ///
    /// Accounting is deferred: the skip paths of [`step`](Self::step) do
    /// no bookkeeping, and the span since the last active step — during
    /// which nothing mutated, so the cause cannot have changed — is
    /// charged in bulk here and at the start of the next active step.
    /// This also makes the event engine's idle-cycle skipping
    /// accounting-free.
    pub fn stalls(&self, now: Cycle) -> StallBreakdown {
        let mut stalls = self.stall;
        stalls.add(self.wait_cause, now.saturating_sub(self.stall_anchor));
        stalls
    }

    /// Places a TB onto this SMX; `program` must be lowered for
    /// `req.threads` threads and this configuration's warp width.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the TB does not fit; the engine
    /// validates dispatch decisions before placing.
    pub fn place(
        &mut self,
        tb: TbRef,
        class: AccessClass,
        program: Arc<LoweredProgram>,
        req: ResourceReq,
        dispatch_seq: u64,
        now: Cycle,
    ) {
        let lineage = Lineage::new(tb, self.id);
        self.place_traced(tb, class, program, req, dispatch_seq, now, lineage);
    }

    /// [`place`](Self::place) with an explicit ancestry, for runs with
    /// locality profiling on (the engine computes the lineage from its
    /// batch table at dispatch time).
    #[allow(clippy::too_many_arguments)]
    pub fn place_traced(
        &mut self,
        tb: TbRef,
        class: AccessClass,
        program: Arc<LoweredProgram>,
        req: ResourceReq,
        dispatch_seq: u64,
        now: Cycle,
        lineage: Lineage,
    ) {
        debug_assert_eq!(program.threads(), req.threads, "program lowered for another TB size");
        self.free.take(&req);
        let mut warps: Vec<Warp> = (0..program.num_warps()).map(|w| Warp::new(w, now)).collect();
        if program.is_empty() {
            // Nothing to issue: mark all warps done so the TB retires on
            // the next step.
            for w in &mut warps {
                w.done = true;
            }
        }
        self.resident.push(ResidentTb {
            tb,
            class,
            program,
            warps,
            threads: req.threads,
            req,
            dispatch_seq,
            lineage,
            first_issue_at: Cycle::MAX,
            next_packed: (now << 3) | StallCause::Scoreboard.code(),
        });
        self.tbs_executed += 1;
        self.next_event = self.next_event.min(now);
    }

    /// Advances the SMX by one cycle with an unbounded launch path.
    pub fn step(&mut self, now: Cycle, mem: &mut MemorySystem, cfg: &GpuConfig) -> SmxEvents {
        let mut credits = u64::MAX;
        self.step_gated(now, mem, cfg, &mut credits)
    }

    /// Advances the SMX by one cycle, drawing device launches from
    /// `launch_credits` — the remaining pending-launch-buffer slots this
    /// cycle, shared across SMXs by the engine. Each issued launch
    /// consumes one credit; at zero credits a launching warp blocks and
    /// retries next cycle, with the blocked cycles attributed to
    /// [`StallCause::LaunchPath`]. Pass `u64::MAX` (what
    /// [`step`](Self::step) does) for the unbounded machine — the gate is
    /// then never taken and behavior is bit-identical to the ungated
    /// path.
    pub fn step_gated(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        cfg: &GpuConfig,
        launch_credits: &mut u64,
    ) -> SmxEvents {
        let mut events = SmxEvents::default();
        if self.resident.is_empty() || now < self.next_event {
            // Skipped cycles are charged in bulk by the next active step
            // (or by `stalls`): `wait_cause` cannot change while the SMX
            // is skipping, and it is `NoTb` whenever nothing is resident.
            return events;
        }
        // Charge the cycles skipped since the last active step, then
        // account this cycle below (busy, or `entry_cause` if the full
        // pass issues nothing — the cycle went to finalization or a
        // barrier release).
        let entry_cause = self.wait_cause;
        if now > self.stall_anchor {
            self.stall.add(entry_cause, now - self.stall_anchor);
        }
        self.stall_anchor = now + 1;

        // The ready set is computed once per cycle: nothing issued within
        // a cycle can wake another warp (every op costs >= 1 cycle, a
        // `Sync` parks the issuer, and barriers release only after the
        // issue loop), so each slot's fresh rescan would yield exactly
        // the previous set minus the issued warp. `Vec::remove` keeps the
        // scan order, so the warp scheduler sees identical candidates.
        let mut issued_any = false;
        let mut candidates = std::mem::take(&mut self.cand_scratch);
        let mut locations = std::mem::take(&mut self.loc_scratch);
        candidates.clear();
        locations.clear();
        for (ti, tb) in self.resident.iter().enumerate() {
            if tb.next_ready() > now {
                // No warp of this TB can be ready before `next_ready`;
                // skipping it leaves the candidate order unchanged.
                continue;
            }
            for (wi, warp) in tb.warps.iter().enumerate() {
                if warp.is_ready(now) && warp.pc < tb.program.len() {
                    candidates.push(WarpCandidate {
                        tb: tb.tb,
                        warp: warp.index,
                        tb_dispatch_seq: tb.dispatch_seq,
                    });
                    locations.push((ti, wi));
                }
            }
        }
        for _slot in 0..cfg.issue_width {
            if candidates.is_empty() {
                break;
            }
            let Some(choice) = self.warp_sched.select(&candidates) else {
                break;
            };
            let (ti, wi) = locations[choice];
            candidates.remove(choice);
            locations.remove(choice);
            issued_any |= self.execute_warp_op(ti, wi, now, mem, cfg, launch_credits, &mut events);
        }
        self.cand_scratch = candidates;
        self.loc_scratch = locations;

        self.finalize_retire_recompute(now, &mut events);

        if issued_any {
            self.busy_cycles += 1;
        } else {
            self.stall.bump(entry_cause);
        }
        events
    }

    /// Executes one warp op. Returns `true` if an instruction issued
    /// (`false` only when a launching warp blocked on an exhausted
    /// launch-path credit).
    #[allow(clippy::too_many_arguments)]
    fn execute_warp_op(
        &mut self,
        ti: usize,
        wi: usize,
        now: Cycle,
        mem: &mut MemorySystem,
        cfg: &GpuConfig,
        launch_credits: &mut u64,
        events: &mut SmxEvents,
    ) -> bool {
        let smx_id = self.id;
        // (bound-to-parent-SMX, L1 hits, parent-child L1 hits) from a
        // profiled child access; applied to `bind_reuse` after the TB
        // borrow ends.
        let mut bind_delta: Option<(bool, u64, u64)> = None;
        let tb = &mut self.resident[ti];
        // Issuing changes this TB's warp state; force the post-issue pass
        // to rescan it and recompute its `next_packed`.
        tb.next_packed = now << 3;
        let op = tb.program.ops()[tb.warps[wi].pc];
        let warp_index = tb.warps[wi].index;
        let active_threads =
            cfg.warp_size.min(tb.threads.saturating_sub(warp_index * cfg.warp_size));

        let mut counted_threads = active_threads;
        match op {
            LoweredOp::Compute(c) => {
                self.instruction_mix.compute += 1;
                let cost = u64::from(c.max(1)) + u64::from(cfg.alu_latency);
                tb.warps[wi].set_ready(now + cost, StallCause::Scoreboard);
                tb.warps[wi].pc += 1;
            }
            LoweredOp::ComputeMasked { cycles, active } => {
                self.instruction_mix.compute += 1;
                counted_threads = active.min(active_threads);
                let cost = u64::from(cycles.max(1)) + u64::from(cfg.alu_latency);
                tb.warps[wi].set_ready(now + cost, StallCause::Scoreboard);
                tb.warps[wi].pc += 1;
            }
            LoweredOp::Shared { passes } => {
                self.instruction_mix.shared += 1;
                let passes = u64::from(tb.program.passes(passes, warp_index));
                let latency = u64::from(cfg.smem_latency) * passes;
                tb.warps[wi].set_ready(now + latency, StallCause::Scoreboard);
                tb.warps[wi].pc += 1;
            }
            LoweredOp::Global { is_store, runs } => {
                if is_store {
                    self.instruction_mix.stores += 1;
                } else {
                    self.instruction_mix.loads += 1;
                }
                let lines = tb.program.lines(runs, warp_index);
                let (latency, wait) = if lines.is_empty() {
                    (1, StallCause::Scoreboard)
                } else {
                    let mshr_full_before = mem.mshr_full_events();
                    let lat = if cfg.profile_locality {
                        let before = *mem.l1_stats(smx_id);
                        let lat = mem
                            .warp_access_traced(
                                smx_id,
                                lines,
                                is_store,
                                tb.class,
                                now,
                                Some(&tb.lineage),
                            )
                            .max(1);
                        if tb.class == AccessClass::Child {
                            let after = mem.l1_stats(smx_id);
                            let pc_idx = ReuseClass::ParentChild.index();
                            bind_delta = Some((
                                tb.lineage.parent_smx == Some(smx_id),
                                after.hits - before.hits,
                                after.prov.by_class[pc_idx] - before.prov.by_class[pc_idx],
                            ));
                        }
                        lat
                    } else {
                        mem.warp_access(smx_id, lines, is_store, tb.class, now).max(1)
                    };
                    let wait = if mem.mshr_full_events() > mshr_full_before {
                        StallCause::MshrFull
                    } else {
                        StallCause::MemoryPending
                    };
                    (lat, wait)
                };
                tb.warps[wi].set_ready(now + latency, wait);
                tb.warps[wi].pc += 1;
            }
            LoweredOp::Launch(launch) => {
                if warp_index == 0 {
                    if *launch_credits == 0 {
                        // Pending-launch buffer exhausted under the
                        // StallParent policy: the warp holds its pc and
                        // retries next cycle. No instruction issues; the
                        // blocked cycle is charged to LaunchPath.
                        tb.warps[wi].set_ready(now + 1, StallCause::LaunchPath);
                        return false;
                    }
                    *launch_credits -= 1;
                    self.instruction_mix.launches += 1;
                    events.launches.push(IssuedLaunch {
                        spec: tb.program.launch(launch).clone(),
                        by: tb.tb,
                        smx: smx_id,
                    });
                    tb.warps[wi].set_ready(
                        now + u64::from(cfg.launch_issue_cycles),
                        StallCause::Scoreboard,
                    );
                } else {
                    self.instruction_mix.launches += 1;
                    tb.warps[wi].set_ready(now + 1, StallCause::Scoreboard);
                }
                tb.warps[wi].pc += 1;
            }
            LoweredOp::Sync => {
                self.instruction_mix.barriers += 1;
                tb.warps[wi].at_barrier = true;
                // pc advances when the barrier releases.
            }
        }

        // Every path that reaches here issued an instruction (the
        // credit-blocked launch returned above); the first one sticks.
        tb.first_issue_at = tb.first_issue_at.min(now);

        self.warp_instructions += 1;
        self.thread_instructions += u64::from(counted_threads);
        if let Some((bound, hits, parent_child)) = bind_delta {
            if bound {
                self.bind_reuse.bound_hits += hits;
                self.bind_reuse.bound_parent_child += parent_child;
            } else {
                self.bind_reuse.stolen_hits += hits;
                self.bind_reuse.stolen_parent_child += parent_child;
            }
        }
        true
    }

    /// The single post-issue pass over the resident TBs: marks warps
    /// *done* (every op executed and the final op's latency elapsed),
    /// releases barriers where every live warp has arrived, retires TBs
    /// whose warps are all done, and recomputes `next_event` — each step
    /// is per-TB-local, so one interleaved pass is equivalent to running
    /// them as four separate sweeps.
    fn finalize_retire_recompute(&mut self, now: Cycle, events: &mut SmxEvents) {
        let mut next_packed = u64::MAX;
        let mut i = 0;
        while i < self.resident.len() {
            let tb = &mut self.resident[i];
            if tb.next_ready() > now {
                // Asleep: no warp issued this cycle and none can finalize
                // or leave a barrier before `next_ready`, so the TB's
                // state is exactly as the pass that computed it left it.
                next_packed = next_packed.min(tb.next_packed);
                i += 1;
                continue;
            }
            let len = tb.program.len();
            let mut all_arrived = !tb.warps.is_empty();
            let mut any_waiting = false;
            let mut all_done = true;
            // Critical-path tracking stays branchless: the warps' packed
            // `(ready_at, wait)` words keep the inner loop a plain `min`,
            // exactly as hot as tracking the cycle alone. Ties on the
            // cycle resolve to the smallest cause code — deterministic.
            let mut tb_packed = u64::MAX;
            for w in &mut tb.warps {
                if !w.done && !w.at_barrier && w.pc >= len && w.ready_at() <= now {
                    w.done = true;
                }
                any_waiting |= w.at_barrier;
                all_arrived &= w.at_barrier || w.done;
                all_done &= w.done;
                if !w.done && !w.at_barrier {
                    tb_packed = tb_packed.min(w.ready_packed());
                }
            }
            if all_arrived && any_waiting {
                for w in &mut tb.warps {
                    if w.at_barrier {
                        w.at_barrier = false;
                        w.pc += 1;
                        w.set_ready(now + 1, StallCause::Barrier);
                    }
                }
                // Released warps become ready at `now + 1`, which is
                // already the floor `next_event` is clamped to.
                all_done = false;
                tb_packed = ((now + 1) << 3) | StallCause::Barrier.code();
            }
            if all_done || tb.program.is_empty() {
                let tb = self.resident.remove(i);
                self.free.release(&tb.req);
                events.completions.push(TbCompletion {
                    tb: tb.tb,
                    smx: self.id,
                    dispatch_seq: tb.dispatch_seq,
                    first_issue_at: tb.first_issue_at,
                    finished_at: now,
                });
            } else {
                // A surviving awake TB has a live warp (else it retired
                // or released a barrier above), so `tb_packed` is real.
                self.resident[i].next_packed = tb_packed;
                next_packed = next_packed.min(tb_packed);
                i += 1;
            }
        }
        // A TB whose warps are all at a barrier is released within the same
        // step, so `next_packed` only stays MAX when nothing is resident.
        if next_packed == u64::MAX {
            self.next_event = now + 1;
            self.wait_cause = StallCause::NoTb;
        } else {
            self.next_event = (next_packed >> 3).max(now + 1);
            self.wait_cause = StallCause::from_code(next_packed & 7);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::program::{AddrPattern, MemOp, TbOp, TbProgram};
    use crate::types::BatchId;
    use crate::warp_sched::GreedyThenOldest;

    fn smx(cfg: &GpuConfig) -> Smx {
        Smx::new(SmxId(0), cfg, Box::new(GreedyThenOldest::new()))
    }

    /// Places `program` as TB `i` with `threads` threads, lowered for
    /// `cfg`.
    fn place(s: &mut Smx, cfg: &GpuConfig, i: u32, program: TbProgram, threads: u32) {
        let lowered = LoweredProgram::lower(&program, threads, cfg.warp_size, cfg.line_bits());
        let req = ResourceReq::new(threads, 8, 0);
        s.place(tb_ref(i), AccessClass::Parent, Arc::new(lowered), req, u64::from(i), 0);
    }

    fn tb_ref(i: u32) -> TbRef {
        TbRef { batch: BatchId(0), index: i }
    }

    fn run_until_empty(s: &mut Smx, mem: &mut MemorySystem, cfg: &GpuConfig) -> Vec<TbCompletion> {
        let mut completions = Vec::new();
        for now in 0..100_000 {
            let ev = s.step(now, mem, cfg);
            completions.extend(ev.completions);
            if s.resident_tbs() == 0 {
                break;
            }
        }
        completions
    }

    #[test]
    fn resources_take_and_release_roundtrip() {
        let cfg = GpuConfig::small_test();
        let mut r = SmxResources::full(&cfg);
        let req = ResourceReq::new(64, 16, 512);
        assert!(r.fits(&req));
        r.take(&req);
        assert_eq!(r.threads, cfg.max_threads_per_smx - 64);
        r.release(&req);
        assert_eq!(r, SmxResources::full(&cfg));
    }

    #[test]
    fn fits_rejects_oversized() {
        let cfg = GpuConfig::small_test();
        let r = SmxResources::full(&cfg);
        assert!(!r.fits(&ResourceReq::new(cfg.max_threads_per_smx + 1, 1, 0)));
        assert!(!r.fits(&ResourceReq::new(1, cfg.max_regs_per_smx + 1, 0)));
        assert!(!r.fits(&ResourceReq::new(1, 1, cfg.max_smem_per_smx + 1)));
    }

    #[test]
    fn compute_only_tb_retires() {
        let cfg = GpuConfig::small_test();
        let mut mem = MemorySystem::new(&cfg);
        let mut s = smx(&cfg);
        let prog = TbProgram::new(vec![TbOp::Compute(3), TbOp::Compute(3)]);
        place(&mut s, &cfg, 0, prog, 32);
        let completions = run_until_empty(&mut s, &mut mem, &cfg);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].tb, tb_ref(0));
        assert!(completions[0].finished_at > 0);
        assert_eq!(s.free(), SmxResources::full(&cfg));
    }

    #[test]
    fn memory_op_blocks_warp_for_latency() {
        let cfg = GpuConfig::small_test();
        let mut mem = MemorySystem::new(&cfg);
        let mut s = smx(&cfg);
        let prog = TbProgram::new(vec![TbOp::Mem(MemOp::load(AddrPattern::Broadcast(0)))]);
        place(&mut s, &cfg, 0, prog, 32);
        let completions = run_until_empty(&mut s, &mut mem, &cfg);
        let total = u64::from(cfg.l1_hit_latency + cfg.l2_hit_latency + cfg.dram_latency);
        assert!(completions[0].finished_at >= total);
    }

    #[test]
    fn each_warp_sends_its_own_lines() {
        let cfg = GpuConfig::small_test();
        let mut mem = MemorySystem::new(&cfg);
        let mut s = smx(&cfg);
        // Thread t loads line t: warp 0 touches lines 0..32, warp 1
        // lines 32..64, so every access is a cold miss.
        let stride = cfg.line_bytes;
        let load = MemOp::load(AddrPattern::Strided { base: 0, stride });
        place(&mut s, &cfg, 0, TbProgram::new(vec![TbOp::Mem(load)]), 64);
        run_until_empty(&mut s, &mut mem, &cfg);
        let l1 = mem.l1_stats(SmxId(0));
        assert_eq!((l1.hits, l1.misses), (0, 64));
    }

    #[test]
    fn barrier_waits_for_all_warps() {
        let cfg = GpuConfig::small_test();
        let mut mem = MemorySystem::new(&cfg);
        let mut s = smx(&cfg);
        // Two warps; barrier between two compute phases.
        let prog = TbProgram::new(vec![TbOp::Compute(2), TbOp::Sync, TbOp::Compute(2)]);
        place(&mut s, &cfg, 0, prog, 64);
        let completions = run_until_empty(&mut s, &mut mem, &cfg);
        assert_eq!(completions.len(), 1);
    }

    #[test]
    fn launch_emitted_once_by_warp_zero() {
        let cfg = GpuConfig::small_test();
        let mut mem = MemorySystem::new(&cfg);
        let mut s = smx(&cfg);
        let spec = crate::program::LaunchSpec {
            kind: crate::program::KernelKindId(1),
            param: 7,
            num_tbs: 2,
            req: ResourceReq::new(32, 8, 0),
        };
        // Two warps but only warp 0 should emit the launch.
        let prog = TbProgram::new(vec![TbOp::Launch(spec.clone())]);
        place(&mut s, &cfg, 0, prog, 64);
        let mut launches = Vec::new();
        for now in 0..1000 {
            let ev = s.step(now, &mut mem, &cfg);
            launches.extend(ev.launches);
            if s.resident_tbs() == 0 {
                break;
            }
        }
        assert_eq!(launches.len(), 1);
        assert_eq!(launches[0].spec, spec);
        assert_eq!(launches[0].by, tb_ref(0));
    }

    #[test]
    fn launch_blocks_at_zero_credits_and_retries() {
        let cfg = GpuConfig::small_test();
        let mut mem = MemorySystem::new(&cfg);
        let mut s = smx(&cfg);
        let spec = crate::program::LaunchSpec {
            kind: crate::program::KernelKindId(1),
            param: 0,
            num_tbs: 1,
            req: ResourceReq::new(32, 8, 0),
        };
        place(&mut s, &cfg, 0, TbProgram::new(vec![TbOp::Launch(spec)]), 32);
        // No credits: the warp blocks, nothing issues, cause is LaunchPath.
        let mut credits = 0u64;
        for now in 0..3 {
            let ev = s.step_gated(now, &mut mem, &cfg, &mut credits);
            assert!(ev.launches.is_empty());
        }
        assert_eq!(s.warp_instructions, 0);
        assert_eq!(s.instruction_mix.launches, 0);
        assert_eq!(s.wait_cause(), StallCause::LaunchPath);
        assert!(s.stalls(3).launch_path >= 2);
        // A credit frees the warp; the launch issues and consumes it.
        let mut credits = 1u64;
        let ev = s.step_gated(3, &mut mem, &cfg, &mut credits);
        assert_eq!(ev.launches.len(), 1);
        assert_eq!(credits, 0);
        assert_eq!(s.instruction_mix.launches, 1);
    }

    #[test]
    fn empty_program_retires_immediately() {
        let cfg = GpuConfig::small_test();
        let mut mem = MemorySystem::new(&cfg);
        let mut s = smx(&cfg);
        place(&mut s, &cfg, 0, TbProgram::default(), 32);
        let completions = run_until_empty(&mut s, &mut mem, &cfg);
        assert_eq!(completions.len(), 1);
    }

    #[test]
    fn two_tbs_share_smx_and_both_finish() {
        let cfg = GpuConfig::small_test();
        let mut mem = MemorySystem::new(&cfg);
        let mut s = smx(&cfg);
        for i in 0..2 {
            place(&mut s, &cfg, i, TbProgram::new(vec![TbOp::Compute(4)]), 32);
        }
        let completions = run_until_empty(&mut s, &mut mem, &cfg);
        assert_eq!(completions.len(), 2);
    }

    #[test]
    fn masked_compute_counts_only_active_lanes() {
        let cfg = GpuConfig::small_test();
        let mut mem = MemorySystem::new(&cfg);
        let mut s = smx(&cfg);
        place(
            &mut s,
            &cfg,
            0,
            TbProgram::new(vec![TbOp::Compute(1), TbOp::ComputeMasked { cycles: 1, active: 5 }]),
            32,
        );
        run_until_empty(&mut s, &mut mem, &cfg);
        assert_eq!(s.warp_instructions, 2);
        assert_eq!(s.thread_instructions, 32 + 5);
        assert_eq!(s.instruction_mix.compute, 2);
    }

    #[test]
    fn instruction_counters_advance() {
        let cfg = GpuConfig::small_test();
        let mut mem = MemorySystem::new(&cfg);
        let mut s = smx(&cfg);
        place(&mut s, &cfg, 0, TbProgram::new(vec![TbOp::Compute(1), TbOp::Compute(1)]), 32);
        run_until_empty(&mut s, &mut mem, &cfg);
        assert_eq!(s.warp_instructions, 2);
        assert_eq!(s.thread_instructions, 64);
        assert!(s.busy_cycles >= 2);
        assert_eq!(s.tbs_executed, 1);
    }
}
