//! Machine-checkable shape assertions over a sweep document.
//!
//! EXPERIMENTS.md argues that this reproduction validates the paper's
//! *shapes* — orderings between schedulers, which benchmarks win and
//! lose, where the outliers sit — rather than absolute numbers. Each
//! assertion here encodes one of those qualitative claims as a predicate
//! over `repro.json` ([`SweepDoc`]), with an ID that EXPERIMENTS.md
//! cross-references, so `repro check` turns the repository's scientific
//! claim into an enforced invariant instead of prose.
//!
//! Thresholds are deliberately looser than the measured paper-scale
//! values: they must hold at every scale the CI gate runs (`ci` and
//! up), not just at the scale the numbers in EXPERIMENTS.md were
//! measured at. Claims that only fully develop at full input sizes
//! (TB-Pri's L2 gain, the zero-overflow queue budget) check their
//! strict form when the document was swept at paper scale and a
//! relaxed form otherwise; the `detail` line records which form ran.

use crate::experiments::MatrixRecords;
use crate::sweep::SweepDoc;
use gpu_sim::cache::ReuseClass;
use gpu_sim::stats::Pow2Hist;
use sim_metrics::harness::{LocalityRecord, RunRecord, SchedulerKind};
use sim_metrics::report::mean;

/// The result of evaluating one shape assertion.
#[derive(Debug, Clone)]
pub struct ShapeOutcome {
    /// Stable assertion ID (cross-referenced from EXPERIMENTS.md).
    pub id: &'static str,
    /// The qualitative claim being checked, in one sentence.
    pub claim: &'static str,
    /// Whether the sweep satisfies the claim.
    pub passed: bool,
    /// Measured values behind the verdict.
    pub detail: String,
}

const RR: &str = "rr";
const TBPRI: &str = "tb-pri";
const SMX: &str = "smx-bind";
const ADAPTIVE: &str = "adaptive-bind";
const DTBL: &str = "dtbl";
const CDP: &str = "cdp";

struct Ctx<'a> {
    doc: &'a SweepDoc,
    matrix: MatrixRecords,
}

impl Ctx<'_> {
    fn runs(&self, model: &str, sched: &str) -> Vec<&RunRecord> {
        self.matrix
            .records()
            .iter()
            .filter(|r| r.launch_model == model && r.scheduler == sched)
            .collect()
    }

    /// Mean of a metric over all runs of one (model, scheduler) column.
    fn mean_metric(&self, model: &str, sched: &str, f: impl Fn(&RunRecord) -> f64) -> f64 {
        let vs: Vec<f64> = self.runs(model, sched).into_iter().map(f).collect();
        mean(&vs)
    }

    /// IPC normalized to the same workload/model round-robin baseline.
    fn norm_ipc(&self, workload: &str, model: &str, sched: &str) -> Option<f64> {
        let r = self.matrix.get(workload, model, sched)?;
        self.matrix.normalized_ipc(r)
    }

    /// Suite-mean normalized IPC of one (model, scheduler) column.
    fn mean_norm_ipc(&self, model: &str, sched: &str) -> f64 {
        let vs: Vec<f64> =
            self.matrix.workloads().iter().filter_map(|w| self.norm_ipc(w, model, sched)).collect();
        mean(&vs)
    }

    /// Whether the document was swept at full paper scale, where the
    /// strict (EXPERIMENTS.md-measured) form of a claim is enforced.
    fn paper_scale(&self) -> bool {
        self.doc.scale == "paper"
    }

    /// Mean of a locality-provenance metric over the profiled runs of
    /// one (model, scheduler) column. Runs without a locality record
    /// (pre-v2 documents) are skipped; the mean of none is 0.
    fn mean_loc(&self, model: &str, sched: &str, f: impl Fn(&LocalityRecord) -> f64) -> f64 {
        let vs: Vec<f64> = self
            .runs(model, sched)
            .into_iter()
            .filter_map(|r| r.locality.as_ref().map(&f))
            .collect();
        mean(&vs)
    }

    /// Bound/stolen child-hit counters pooled over the profiled runs of
    /// one column (per-run shares are noisy when a run steals little).
    fn pooled_bind(&self, model: &str, sched: &str) -> (u64, u64, u64, u64) {
        let mut t = (0u64, 0u64, 0u64, 0u64);
        for r in self.runs(model, sched) {
            if let Some(loc) = &r.locality {
                t.0 += loc.bound_hits;
                t.1 += loc.bound_parent_child;
                t.2 += loc.stolen_hits;
                t.3 += loc.stolen_parent_child;
            }
        }
        t
    }
}

type Check = fn(&Ctx) -> (bool, String);

/// The assertion catalog: `(id, claim, check)`.
const SHAPES: &[(&str, &str, Check)] = &[
    (
        "matrix-complete",
        "The sweep ran every workload x launch model x scheduler cell without failures",
        |ctx| {
            let workloads = ctx.matrix.workloads().len();
            let expected = workloads * 2 * SchedulerKind::all().len();
            let got = ctx.matrix.records().len();
            let ok = ctx.doc.failures.is_empty() && workloads == 16 && got == expected;
            (
                ok,
                format!(
                    "{got} records over {workloads} workloads (expected 16 x 2 x 4 = 128), \
                     {} failures",
                    ctx.doc.failures.len()
                ),
            )
        },
    ),
    (
        "fig9-dtbl-ordering",
        "Under DTBL the suite-mean normalized IPC orders RR < TB-Pri < SMX-Bind <= Adaptive-Bind",
        |ctx| {
            let t = ctx.mean_norm_ipc(DTBL, TBPRI);
            let s = ctx.mean_norm_ipc(DTBL, SMX);
            let a = ctx.mean_norm_ipc(DTBL, ADAPTIVE);
            // TB-Pri's gain is an L2-reuse effect that only develops at
            // full input sizes; below paper scale the enforced shape is
            // TB-Pri <= SMX-Bind <= Adaptive-Bind with a real Adaptive
            // gain.
            let ok = if ctx.paper_scale() {
                t > 1.02 && s > t && a >= s - 0.02
            } else {
                s >= t && a >= s - 0.02 && a > 1.05
            };
            (
                ok,
                format!(
                    "tb-pri {t:.3}x, smx-bind {s:.3}x, adaptive-bind {a:.3}x (rr = 1){}",
                    if ctx.paper_scale() { "" } else { " [relaxed below paper scale]" }
                ),
            )
        },
    ),
    (
        "fig9-adaptive-ge-tbpri-dtbl",
        "Adaptive-Bind IPC >= TB-Pri on at least 12 of the 16 DTBL benchmark pairs",
        |ctx| {
            let mut wins = 0usize;
            let mut total = 0usize;
            for w in ctx.matrix.workloads() {
                let (Some(a), Some(t)) =
                    (ctx.norm_ipc(&w, DTBL, ADAPTIVE), ctx.norm_ipc(&w, DTBL, TBPRI))
                else {
                    continue;
                };
                total += 1;
                if a >= t - 0.01 {
                    wins += 1;
                }
            }
            (total == 16 && wins >= 12, format!("{wins} of {total} pairs"))
        },
    ),
    (
        "fig9-dtbl-headline",
        "Adaptive-Bind delivers a double-digit suite-mean gain over RR under DTBL",
        |ctx| {
            let a = ctx.mean_norm_ipc(DTBL, ADAPTIVE);
            // Measured 1.47x at paper scale, 1.14x at ci scale.
            let floor = if ctx.paper_scale() { 1.15 } else { 1.10 };
            (a >= floor, format!("adaptive-bind {a:.3}x (floor {floor:.2}x)"))
        },
    ),
    (
        "fig9-cdp-muted",
        "CDP gains are smaller than DTBL gains (launch-bound; Section IV-C/D)",
        |ctx| {
            let a_cdp = ctx.mean_norm_ipc(CDP, ADAPTIVE);
            let a_dtbl = ctx.mean_norm_ipc(DTBL, ADAPTIVE);
            let t_cdp = ctx.mean_norm_ipc(CDP, TBPRI);
            let t_dtbl = ctx.mean_norm_ipc(DTBL, TBPRI);
            // The TB-Pri comparison needs TB-Pri's DTBL gain to exist,
            // which only happens at paper scale (see fig9-dtbl-ordering).
            let ok = a_cdp < a_dtbl && (!ctx.paper_scale() || t_cdp < t_dtbl);
            (
                ok,
                format!(
                    "adaptive {a_cdp:.3}x CDP vs {a_dtbl:.3}x DTBL; \
                     tb-pri {t_cdp:.3}x CDP vs {t_dtbl:.3}x DTBL{}",
                    if ctx.paper_scale() { "" } else { " [adaptive leg only below paper scale]" }
                ),
            )
        },
    ),
    (
        "fig9-smxbind-skew-pathology",
        "Adaptive-Bind recovers the skewed join workloads where pure SMX binding load-imbalances",
        |ctx| {
            let mut ok = true;
            let mut parts = Vec::new();
            for w in ["join-uniform", "join-gaussian"] {
                let (Some(a), Some(s)) =
                    (ctx.norm_ipc(w, DTBL, ADAPTIVE), ctx.norm_ipc(w, DTBL, SMX))
                else {
                    ok = false;
                    parts.push(format!("{w}: missing"));
                    continue;
                };
                ok &= a > s;
                parts.push(format!("{w}: adaptive {a:.3}x vs smx-bind {s:.3}x"));
            }
            (ok, parts.join("; "))
        },
    ),
    ("fig7-tbpri-l2-dtbl", "TB-Pri raises the suite-mean L2 hit rate over RR under DTBL", |ctx| {
        let rr = ctx.mean_metric(DTBL, RR, |r| r.l2_hit_rate);
        let t = ctx.mean_metric(DTBL, TBPRI, |r| r.l2_hit_rate);
        (t > rr, format!("tb-pri {:.1}% vs rr {:.1}%", t * 100.0, rr * 100.0))
    }),
    (
        "fig7-binding-trades-l2-dtbl",
        "SMX binding trades L2 hits for L1 hits: SMX-Bind's L2 hit rate sits below TB-Pri's",
        |ctx| {
            let t = ctx.mean_metric(DTBL, TBPRI, |r| r.l2_hit_rate);
            let s = ctx.mean_metric(DTBL, SMX, |r| r.l2_hit_rate);
            (s < t, format!("smx-bind {:.1}% vs tb-pri {:.1}%", s * 100.0, t * 100.0))
        },
    ),
    (
        "fig8-binding-l1-dtbl",
        "The binding policies lift the suite-mean L1 hit rate well above RR under DTBL",
        |ctx| {
            let rr = ctx.mean_metric(DTBL, RR, |r| r.l1_hit_rate);
            let s = ctx.mean_metric(DTBL, SMX, |r| r.l1_hit_rate);
            let a = ctx.mean_metric(DTBL, ADAPTIVE, |r| r.l1_hit_rate);
            let ok = s > rr + 0.03 && a > rr + 0.03;
            (
                ok,
                format!(
                    "rr {:.1}%, smx-bind {:.1}%, adaptive-bind {:.1}%",
                    rr * 100.0,
                    s * 100.0,
                    a * 100.0
                ),
            )
        },
    ),
    (
        "fig8-tbpri-l1-flat-dtbl",
        "TB-Pri's gain is an L2 effect: its L1 hit rate stays within 3pp of RR under DTBL",
        |ctx| {
            let rr = ctx.mean_metric(DTBL, RR, |r| r.l1_hit_rate);
            let t = ctx.mean_metric(DTBL, TBPRI, |r| r.l1_hit_rate);
            ((t - rr).abs() < 0.03, format!("tb-pri {:.1}% vs rr {:.1}%", t * 100.0, rr * 100.0))
        },
    ),
    (
        "fig2-parent-child-dominant",
        "Parent-child sharing dominates adjacent parent-parent sharing: the suite average is \
         at least 1.5x higher and nearly every workload follows (bht is Figure 2's outlier)",
        |ctx| {
            let n = ctx.doc.footprints.len();
            let pc = mean(&ctx.doc.footprints.iter().map(|f| f.parent_child).collect::<Vec<_>>());
            let pp = mean(&ctx.doc.footprints.iter().map(|f| f.parent_parent).collect::<Vec<_>>());
            let wins =
                ctx.doc.footprints.iter().filter(|f| f.parent_child > f.parent_parent).count();
            let ok = n == 16 && pc > pp * 1.5 && wins >= 14;
            (
                ok,
                format!(
                    "avg parent-child {:.1}% vs parent-parent {:.1}%; holds on {wins} of {n} \
                     workloads",
                    pc * 100.0,
                    pp * 100.0
                ),
            )
        },
    ),
    (
        "fig2-regx-sibling-outlier",
        "regx is the child-sibling sharing outlier: every regx input outranks every other workload",
        |ctx| {
            let regx_min = ctx
                .doc
                .footprints
                .iter()
                .filter(|f| f.workload.starts_with("regx"))
                .map(|f| f.child_sibling)
                .fold(f64::INFINITY, f64::min);
            let other_max = ctx
                .doc
                .footprints
                .iter()
                .filter(|f| !f.workload.starts_with("regx"))
                .map(|f| f.child_sibling)
                .fold(0.0f64, f64::max);
            (
                regx_min.is_finite() && regx_min > other_max,
                format!(
                    "regx min {:.1}% vs best non-regx {:.1}%",
                    regx_min * 100.0,
                    other_max * 100.0
                ),
            )
        },
    ),
    (
        "fig2-amr-join-sibling-low",
        "amr and join children own private regions: child-sibling sharing below 10%",
        |ctx| {
            let mut ok = true;
            let mut parts = Vec::new();
            let mut seen = 0;
            for f in &ctx.doc.footprints {
                if f.workload == "amr" || f.workload.starts_with("join") {
                    seen += 1;
                    ok &= f.child_sibling < 0.10;
                    parts.push(format!("{} {:.1}%", f.workload, f.child_sibling * 100.0));
                }
            }
            (ok && seen == 3, parts.join(", "))
        },
    ),
    (
        "overhead-queue-budget",
        "The Section IV-E benchmarks respect the 128-entry on-chip queue budget under \
         Adaptive-Bind/DTBL: zero overflows at paper scale, spills under 5% of pushes otherwise",
        |ctx| {
            let names = ["bfs-citation", "amr", "join-gaussian", "regx-strings"];
            let mut ok = true;
            let mut parts = Vec::new();
            let mut seen = 0usize;
            for r in ctx.runs(DTBL, ADAPTIVE) {
                if !names.contains(&r.workload.as_str()) {
                    continue;
                }
                seen += 1;
                if ctx.paper_scale() {
                    ok &= r.max_queue_depth <= 128 && r.queue_overflows == 0;
                } else {
                    // Smaller inputs launch burstier relative to drain
                    // rate; the spill path may fire but must stay rare.
                    ok &= r.queue_overflows * 20 <= r.queue_pushes;
                }
                parts.push(format!(
                    "{} depth {} ovf {}/{}",
                    r.workload, r.max_queue_depth, r.queue_overflows, r.queue_pushes
                ));
            }
            ok &= seen == names.len();
            (ok, parts.join("; "))
        },
    ),
    (
        "launch-table-overflow-accounting",
        "DTBL aggregation-table overflow accounting is sound: exactly zero overflows on the \
         CDP path (which has no table), never more overflows than dynamic TBs under DTBL, \
         and the binding schedulers accumulate no more overflows than RR (locality-aware \
         scheduling relieves launch-path pressure, it never adds to it)",
        |ctx| {
            let cdp_ovf: u64 = ctx
                .matrix
                .records()
                .iter()
                .filter(|r| r.launch_model == CDP)
                .map(|r| r.table_overflows)
                .sum();
            let mut bounded = true;
            let mut per_sched = Vec::new();
            for sched in [RR, TBPRI, SMX, ADAPTIVE] {
                let mut ovf = 0u64;
                for r in ctx.runs(DTBL, sched) {
                    bounded &= r.table_overflows <= r.dynamic_tbs as u64;
                    ovf += r.table_overflows;
                }
                per_sched.push((sched, ovf));
            }
            let rr_ovf = per_sched[0].1;
            let relieved = per_sched[1..].iter().all(|&(_, ovf)| ovf <= rr_ovf);
            let ok = cdp_ovf == 0 && bounded && relieved;
            let detail = format!(
                "cdp {cdp_ovf}; dtbl {}",
                per_sched.iter().map(|(s, o)| format!("{s} {o}")).collect::<Vec<_>>().join(", ")
            );
            (ok, detail)
        },
    ),
    (
        "sched-smxbind-binding-invariants",
        "Pure SMX-Bind never steals and places every child on its parent's SMX",
        |ctx| {
            let mut ok = true;
            let mut bad = Vec::new();
            for model in [CDP, DTBL] {
                for r in ctx.runs(model, SMX) {
                    if r.parent_smx_affinity != 1.0 || r.steals != 0 {
                        ok = false;
                        bad.push(format!(
                            "{}/{}: affinity {:.2}, steals {}",
                            r.workload, r.launch_model, r.parent_smx_affinity, r.steals
                        ));
                    }
                }
            }
            (
                ok,
                if bad.is_empty() {
                    "all smx-bind runs fully bound".to_string()
                } else {
                    bad.join("; ")
                },
            )
        },
    ),
    (
        "sched-adaptive-steals-active",
        "Adaptive-Bind's stage-3 stealing actually fires under DTBL",
        |ctx| {
            let total: u64 = ctx.runs(DTBL, ADAPTIVE).iter().map(|r| r.steals).sum();
            (total > 0, format!("{total} steals across the DTBL suite"))
        },
    ),
    (
        "loc-hits-partition",
        "Provenance is total: in every profiled run the per-class hit counts sum exactly to \
         the cache's hits, at both levels",
        |ctx| {
            let mut checked = 0usize;
            let mut bad = Vec::new();
            for r in ctx.matrix.records() {
                let Some(loc) = &r.locality else { continue };
                checked += 1;
                let l1: u64 = loc.l1_class_hits.iter().sum();
                let l2: u64 = loc.l2_class_hits.iter().sum();
                if l1 != loc.l1_hits
                    || l2 != loc.l2_hits
                    || loc.l2_same_smx + loc.l2_cross_smx != loc.l2_hits
                {
                    bad.push(format!(
                        "{}/{}/{}: L1 {l1}/{}, L2 {l2}/{}",
                        r.workload, r.launch_model, r.scheduler, loc.l1_hits, loc.l2_hits
                    ));
                }
            }
            let ok = checked == ctx.matrix.records().len() && checked > 0 && bad.is_empty();
            (
                ok,
                if bad.is_empty() {
                    format!("{checked} profiled runs, all partitions exact")
                } else {
                    bad.join("; ")
                },
            )
        },
    ),
    (
        "loc-l1-parent-child-ordering",
        "The binding policies convert L1 hits into parent-child reuse: SMX-Bind's \
         parent-child share of L1 hits exceeds TB-Pri's, which is at least RR's, under DTBL",
        |ctx| {
            let pc = |loc: &LocalityRecord| loc.l1_share(ReuseClass::ParentChild);
            let rr = ctx.mean_loc(DTBL, RR, pc);
            let t = ctx.mean_loc(DTBL, TBPRI, pc);
            let s = ctx.mean_loc(DTBL, SMX, pc);
            let ok = s > t && t >= rr - 0.005 && s > rr + 0.02;
            (
                ok,
                format!(
                    "parent-child L1 share: rr {:.1}%, tb-pri {:.1}%, smx-bind {:.1}%",
                    rr * 100.0,
                    t * 100.0,
                    s * 100.0
                ),
            )
        },
    ),
    (
        "loc-l2-tbpri-parent-child",
        "TB-Pri's L2 gain is lineage reuse: its parent-child share of L2 hits exceeds RR's \
         under DTBL",
        |ctx| {
            let pc = |loc: &LocalityRecord| loc.l2_share(ReuseClass::ParentChild);
            let rr = ctx.mean_loc(DTBL, RR, pc);
            let t = ctx.mean_loc(DTBL, TBPRI, pc);
            (
                t > rr,
                format!("parent-child L2 share: tb-pri {:.1}% vs rr {:.1}%", t * 100.0, rr * 100.0),
            )
        },
    ),
    (
        "loc-adaptive-stolen-reuse",
        "Stealing costs locality: under Adaptive-Bind/DTBL, stolen child TBs hit their \
         parent's lines at a lower rate than bound ones",
        |ctx| {
            let (bh, bpc, sh, spc) = ctx.pooled_bind(DTBL, ADAPTIVE);
            let bound = if bh == 0 { 0.0 } else { bpc as f64 / bh as f64 };
            let stolen = if sh == 0 { 0.0 } else { spc as f64 / sh as f64 };
            // Stolen TBs exist whenever stage 3 fires (see
            // sched-adaptive-steals-active); require real traffic so the
            // comparison is meaningful.
            let ok = bh > 0 && sh > 0 && bound > stolen;
            (
                ok,
                format!(
                    "bound parent-child rate {:.1}% ({bpc}/{bh}) vs stolen {:.1}% ({spc}/{sh})",
                    bound * 100.0,
                    stolen * 100.0
                ),
            )
        },
    ),
    (
        "engine-wake-partition",
        "Engine introspection is total: in every engine-profiled run the per-source wake \
         counts sum exactly to the loop-iteration count (vacuously true on unprofiled \
         documents)",
        |ctx| {
            let mut checked = 0usize;
            let mut bad = Vec::new();
            for r in ctx.matrix.records() {
                let Some(eng) = &r.engine else { continue };
                checked += 1;
                let total: u64 = eng.wake_counts.iter().sum();
                if total != eng.loop_iterations || eng.loop_iterations == 0 {
                    bad.push(format!(
                        "{}/{}/{}: wake sum {total} vs {} iterations",
                        r.workload, r.launch_model, r.scheduler, eng.loop_iterations
                    ));
                }
            }
            let ok = bad.is_empty();
            (
                ok,
                if checked == 0 {
                    "no engine introspection in this document (run `repro profile`)".to_string()
                } else if ok {
                    format!("{checked} profiled runs, all partitions exact")
                } else {
                    bad.join("; ")
                },
            )
        },
    ),
    (
        "engine-event-elides-idle",
        "The event engine earns its keep: every engine-profiled run's loop iterations plus \
         recorded jump lengths reconstruct its cycle count exactly, and across the matrix \
         the engine elides a strictly positive share of all simulated cycles (vacuously \
         true on unprofiled documents)",
        |ctx| {
            let mut checked = 0usize;
            let mut bad = Vec::new();
            let mut total_iters = 0u64;
            let mut total_cycles = 0u64;
            for r in ctx.matrix.records() {
                let Some(eng) = &r.engine else { continue };
                checked += 1;
                total_iters += eng.loop_iterations;
                total_cycles += r.cycles;
                // Every iteration advances the clock by exactly one,
                // plus its recorded jump; a completed run's cycle count
                // is therefore reconstructible to the cycle.
                let covered = eng.loop_iterations + eng.jump_len.sum;
                if covered != r.cycles {
                    bad.push(format!(
                        "{}/{}/{}: {} iterations + {} jumped != {} cycles",
                        r.workload,
                        r.launch_model,
                        r.scheduler,
                        eng.loop_iterations,
                        eng.jump_len.sum,
                        r.cycles
                    ));
                }
            }
            let elided_ok = checked == 0 || total_iters < total_cycles;
            let ok = bad.is_empty() && elided_ok;
            (
                ok,
                if checked == 0 {
                    "no engine introspection in this document (run `repro profile`)".to_string()
                } else if ok {
                    format!(
                        "{checked} profiled runs; {total_iters} iterations over {total_cycles} \
                         cycles ({:.1}% elided)",
                        100.0 * (1.0 - total_iters as f64 / total_cycles.max(1) as f64)
                    )
                } else if bad.is_empty() {
                    format!(
                        "only {:.1}% of {total_cycles} cycles elided ({total_iters} iterations)",
                        100.0 * (1.0 - total_iters as f64 / total_cycles.max(1) as f64)
                    )
                } else {
                    bad.join("; ")
                },
            )
        },
    ),
    (
        "lat-partition-exact",
        "Latency attribution is total: in every latency-profiled run the lifecycle \
         components (launch path, queue wait, dispatch gap, exec) partition each TB's \
         lifetime exactly — zero ordering violations, every component histogram covers \
         every dispatched TB, and the component sums telescope to the lifetime sum \
         (vacuously true on unprofiled documents)",
        |ctx| {
            let mut checked = 0usize;
            let mut bad = Vec::new();
            for r in ctx.matrix.records() {
                let Some(lat) = &r.latency else { continue };
                checked += 1;
                let counts_ok = [&lat.launch_path, &lat.queue_wait, &lat.dispatch_gap, &lat.exec]
                    .iter()
                    .all(|h| h.count == lat.lifetime.count);
                let parts_sum =
                    lat.launch_path.sum + lat.queue_wait.sum + lat.dispatch_gap.sum + lat.exec.sum;
                let covered = lat.tbs == r.total_tbs as u64 && lat.lifetime.count == lat.tbs;
                if lat.partition_violations != 0
                    || !counts_ok
                    || parts_sum != lat.lifetime.sum
                    || !covered
                {
                    bad.push(format!(
                        "{}/{}/{}: {} violations, {} of {} TBs, component sum {parts_sum} vs \
                         lifetime {}",
                        r.workload,
                        r.launch_model,
                        r.scheduler,
                        lat.partition_violations,
                        lat.lifetime.count,
                        r.total_tbs,
                        lat.lifetime.sum
                    ));
                }
            }
            let ok = bad.is_empty();
            (
                ok,
                if checked == 0 {
                    "no latency attribution in this document (run `repro profile`)".to_string()
                } else if ok {
                    format!("{checked} profiled runs, all partitions exact")
                } else {
                    bad.join("; ")
                },
            )
        },
    ),
    (
        "lat-child-queue-wait-ordering",
        "Priority-aware dispatch shortens child queueing: pooled over the DTBL column, \
         the child queue-wait p95 under TB-Pri sits below RR's (vacuously true on \
         unprofiled documents)",
        |ctx| {
            // Pool each column's child queue-wait histograms: per-run
            // quantiles are noisy for workloads that launch few children.
            let pooled = |sched: &str| -> Pow2Hist {
                let mut acc = Pow2Hist::default();
                for r in ctx.runs(DTBL, sched) {
                    if let Some(lat) = &r.latency {
                        acc.merge(&lat.child_queue_wait);
                    }
                }
                acc
            };
            let (t, rr) = (pooled(TBPRI), pooled(RR));
            if t.count == 0 || rr.count == 0 {
                return (
                    true,
                    "no latency attribution in this document (run `repro profile`)".to_string(),
                );
            }
            let (tp, rp) = (t.percentile(0.95), rr.percentile(0.95));
            (
                tp < rp,
                format!(
                    "child queue-wait p95: tb-pri {tp} vs rr {rp} cycles \
                     (means {:.0} vs {:.0}, n {} vs {})",
                    t.sum as f64 / t.count as f64,
                    rr.sum as f64 / rr.count as f64,
                    t.count,
                    rr.count
                ),
            )
        },
    ),
];

/// The overall verdict `repro check` reports for one document, mapped
/// onto its exit codes: 0 pass, 1 assertion violation, 2 degraded input
/// (3, I/O or corruption, never reaches evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckVerdict {
    /// Healthy document; every assertion passed.
    Pass,
    /// Healthy document; at least one assertion was violated.
    Violation,
    /// The document carries failed cells. Assertions were evaluated
    /// over the surviving cells only, so FAIL verdicts may be vacuous
    /// (caused by the missing cells, not by the claims). Degradation
    /// dominates: `matrix-complete` necessarily fails here, and the
    /// caller should treat the run as incomplete, not as refuted.
    Degraded,
}

/// Evaluates a document and classifies the overall outcome. Degraded
/// documents (any failed cells) report [`CheckVerdict::Degraded`]
/// whatever the per-assertion verdicts say — with cells missing, a
/// failed assertion cannot be distinguished from a vacuously-failed one.
pub fn check_document(doc: &SweepDoc) -> (Vec<ShapeOutcome>, CheckVerdict) {
    let outcomes = evaluate_shapes(doc);
    let verdict = if !doc.failures.is_empty() {
        CheckVerdict::Degraded
    } else if outcomes.iter().any(|o| !o.passed) {
        CheckVerdict::Violation
    } else {
        CheckVerdict::Pass
    };
    (outcomes, verdict)
}

/// [`render_shape_report`] with the degraded-mode preamble: for a
/// partial document the `DEGRADED` banner and failures table come
/// first, plus a note that the assertions ran over survivors only. For
/// a healthy document the output is byte-identical to
/// [`render_shape_report`] (the CI goldens depend on that).
pub fn render_check_report(doc: &SweepDoc, outcomes: &[ShapeOutcome]) -> String {
    let mut out = String::new();
    if let Some(banner) = doc.degraded_banner() {
        out.push_str(&banner);
        out.push_str(&format!(
            "note: {} of {} cells survive; the assertions below were evaluated over \
             survivors only, and FAIL verdicts may be vacuous (missing cells, not \
             refuted claims)\n\n",
            doc.records.len(),
            doc.total_cells()
        ));
    }
    out.push_str(&render_shape_report(outcomes));
    out
}

/// Evaluates every shape assertion against a sweep document.
pub fn evaluate_shapes(doc: &SweepDoc) -> Vec<ShapeOutcome> {
    let ctx = Ctx { doc, matrix: MatrixRecords::from_records(doc.records.clone()) };
    SHAPES
        .iter()
        .map(|(id, claim, check)| {
            let (passed, detail) = check(&ctx);
            ShapeOutcome { id, claim, passed, detail }
        })
        .collect()
}

/// Renders the `repro check` report: one PASS/FAIL line per assertion
/// plus a summary line.
pub fn render_shape_report(outcomes: &[ShapeOutcome]) -> String {
    let mut out = String::from("Shape assertions (EXPERIMENTS.md claims as invariants)\n\n");
    for o in outcomes {
        out.push_str(&format!(
            "{} {}\n    {}\n    measured: {}\n",
            if o.passed { "PASS" } else { "FAIL" },
            o.id,
            o.claim,
            o.detail
        ));
    }
    let failed = outcomes.iter().filter(|o| !o.passed).count();
    out.push_str(&format!(
        "\n{} of {} assertions passed{}\n",
        outcomes.len() - failed,
        outcomes.len(),
        if failed > 0 { format!(", {failed} FAILED") } else { String::new() }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assertion_ids_are_unique_and_plentiful() {
        let mut ids: Vec<&str> = SHAPES.iter().map(|(id, _, _)| *id).collect();
        assert!(ids.len() >= 10, "the reproduction gate needs at least 10 shape assertions");
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), SHAPES.len(), "duplicate assertion IDs");
    }

    #[test]
    fn report_marks_failures() {
        let outcomes = vec![
            ShapeOutcome { id: "a", claim: "c", passed: true, detail: "d".into() },
            ShapeOutcome { id: "b", claim: "c", passed: false, detail: "d".into() },
        ];
        let report = render_shape_report(&outcomes);
        assert!(report.contains("PASS a"));
        assert!(report.contains("FAIL b"));
        assert!(report.contains("1 of 2 assertions passed, 1 FAILED"));
    }
}
