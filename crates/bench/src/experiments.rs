//! Table and figure regeneration (see the experiment index in DESIGN.md).

use std::sync::Arc;

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::{GpuConfig, WarpSchedPolicy};
use sim_metrics::footprint::{FootprintAnalysis, FootprintSummary};
use sim_metrics::harness::{LocalityRecord, RunRecord, SchedulerKind};
use sim_metrics::report::{mean, pct, ratio, Table};
use workloads::{Scale, Workload};

use crate::session::Session;
use crate::sweep::{suite_for_path, GpuOverride, MatrixCell};

/// All runs of the main evaluation matrix: every workload under both
/// launch models and all four schedulers.
#[derive(Debug, Clone)]
pub struct MatrixRecords {
    records: Vec<RunRecord>,
}

impl MatrixRecords {
    /// Wraps records collected elsewhere (e.g. parsed from `repro.json`)
    /// so the figure renderers and shape assertions can query them.
    pub fn from_records(records: Vec<RunRecord>) -> Self {
        MatrixRecords { records }
    }

    /// The raw records.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Looks up one run.
    pub fn get(&self, workload: &str, model: &str, scheduler: &str) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.workload == workload && r.launch_model == model && r.scheduler == scheduler)
    }

    /// Workload names in run order (deduplicated).
    pub fn workloads(&self) -> Vec<String> {
        let mut names = Vec::new();
        for r in &self.records {
            if !names.contains(&r.workload) {
                names.push(r.workload.clone());
            }
        }
        names
    }

    /// IPC of a run normalized to the round-robin baseline of the same
    /// workload and launch model.
    ///
    /// Returns `None` when the matrix holds no round-robin record for
    /// that workload/model (an incomplete matrix); silently normalizing
    /// to the run itself would fabricate a 1.0x "gain".
    pub fn normalized_ipc(&self, r: &RunRecord) -> Option<f64> {
        let base = self.get(&r.workload, &r.launch_model, SchedulerKind::RoundRobin.name())?.ipc;
        if base == 0.0 {
            Some(0.0)
        } else {
            Some(r.ipc / base)
        }
    }
}

/// Table I: the simulated GPU configuration.
pub fn table1() -> String {
    let cfg = GpuConfig::kepler_k20c();
    let mut t = Table::new(vec!["parameter", "value"]);
    t.row(vec!["SMXs".to_string(), cfg.num_smxs.to_string()]);
    t.row(vec!["threads / SMX".to_string(), cfg.max_threads_per_smx.to_string()]);
    t.row(vec!["TBs / SMX".to_string(), cfg.max_tbs_per_smx.to_string()]);
    t.row(vec!["registers / SMX".to_string(), cfg.max_regs_per_smx.to_string()]);
    t.row(vec!["shared memory / SMX".to_string(), format!("{} KB", cfg.max_smem_per_smx / 1024)]);
    t.row(vec!["L1 cache / SMX".to_string(), format!("{} KB", cfg.l1_bytes / 1024)]);
    t.row(vec!["L2 cache".to_string(), format!("{} KB", cfg.l2_bytes / 1024)]);
    t.row(vec!["cache line".to_string(), format!("{} bytes", cfg.line_bytes)]);
    t.row(vec!["max concurrent kernels".to_string(), cfg.max_concurrent_kernels.to_string()]);
    t.row(vec!["warp scheduler".to_string(), "greedy-then-oldest".to_string()]);
    format!("Table I: GPGPU configuration (Kepler K20c)\n{}", t.render())
}

/// The workload of `all` called `name`. Every study names workloads of
/// the Table II suite, so a missing one is a caller bug.
fn by_name<'a>(all: &'a [Arc<dyn Workload>], name: &str) -> &'a Arc<dyn Workload> {
    all.iter()
        .find(|w| w.full_name() == name)
        .unwrap_or_else(|| panic!("{name} is not in the suite"))
}

/// `w` under DTBL delivery with round-robin and with Adaptive-Bind at
/// each of `points`, which `vary` applies to a cell: the cell pairs
/// every gain study compares, in point order.
fn gain_cells<P: Copy>(
    w: &Arc<dyn Workload>,
    points: &[P],
    vary: impl Fn(MatrixCell, P) -> MatrixCell,
) -> Vec<MatrixCell> {
    let scheds = [SchedulerKind::RoundRobin, SchedulerKind::AdaptiveBind];
    points
        .iter()
        .flat_map(|&p| {
            scheds.map(|k| vary(MatrixCell::new(w.clone(), LaunchModelKind::Dtbl, k), p))
        })
        .collect()
}

/// The table row `label | rr IPC | adaptive IPC | gain` of one
/// [`gain_cells`] pair's records.
fn gain_row(label: String, pair: &[RunRecord]) -> Vec<String> {
    let (rr, ad) = (&pair[0], &pair[1]);
    vec![label, format!("{:.1}", rr.ipc), format!("{:.1}", ad.ipc), ratio(ad.ipc / rr.ipc)]
}

/// Table II: the benchmark suite `all`, generated at `scale`.
pub fn table2(scale: Scale, all: &[Arc<dyn Workload>]) -> String {
    let mut t = Table::new(vec!["application", "input", "parent TBs", "device launches"]);
    for w in all {
        let hk = w.host_kernels();
        let parent_tbs: u32 = hk.iter().map(|k| k.num_tbs).sum();
        let launches: usize = hk
            .iter()
            .flat_map(|k| (0..k.num_tbs).map(move |tb| (k.kind, k.param, tb)))
            .map(|(kind, param, tb)| w.tb_program(kind, param, tb).launches().count())
            .sum();
        t.row(vec![w.name().to_string(), w.input(), parent_tbs.to_string(), launches.to_string()]);
    }
    format!("Table II: benchmarks ({scale} scale)\n{}", t.render())
}

/// Figure 2: shared footprint ratios for parent-child and child-sibling
/// TBs (plus the parent-parent baseline quoted in the text), rendered
/// from the suite's footprint analyses in suite order.
pub fn render_fig2(scale: Scale, rows: &[FootprintAnalysis]) -> String {
    let summary = FootprintSummary { rows: rows.to_vec() };
    let mut t = Table::new(vec![
        "workload",
        "parent-child",
        "child-sibling",
        "parent-parent",
        "launching TBs",
        "child TBs",
    ]);
    for r in &summary.rows {
        t.row(vec![
            r.workload.clone(),
            pct(r.parent_child),
            pct(r.child_sibling),
            pct(r.parent_parent),
            r.launching_tbs.to_string(),
            r.child_tbs.to_string(),
        ]);
    }
    t.row(vec![
        "AVERAGE".to_string(),
        pct(summary.mean_parent_child()),
        pct(summary.mean_child_sibling()),
        pct(summary.mean_parent_parent()),
        String::new(),
        String::new(),
    ]);
    format!(
        "Figure 2: shared footprint ratios ({scale} scale)\n\
         (paper: parent-child avg 38.4%, child-sibling avg 30.5%, parent-parent 9.3%)\n{}",
        t.render()
    )
}

fn hit_rate_figure(
    m: &MatrixRecords,
    title: &str,
    paper_note: &str,
    value: impl Fn(&RunRecord) -> f64,
) -> String {
    let mut out = format!("{title}\n{paper_note}\n");
    for model in LaunchModelKind::all() {
        let mut t = Table::new(vec!["workload", "rr", "tb-pri", "smx-bind", "adaptive-bind"]);
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for w in m.workloads() {
            let mut row = vec![w.clone()];
            for (i, sched) in SchedulerKind::all().iter().enumerate() {
                let v = m.get(&w, model.name(), sched.name()).map(&value).unwrap_or(0.0);
                columns[i].push(v);
                row.push(pct(v));
            }
            t.row(row);
        }
        let mut avg = vec!["AVERAGE".to_string()];
        for col in &columns {
            avg.push(pct(mean(col)));
        }
        t.row(avg);
        out.push_str(&format!("\nlaunch model: {model}\n{}", t.render()));
    }
    out
}

/// Figure 7: L2 cache hit rate per scheduler, CDP and DTBL.
pub fn fig7(m: &MatrixRecords) -> String {
    hit_rate_figure(
        m,
        "Figure 7: L2 cache hit rate",
        "(paper: TB-Pri +6.7% CDP / +8.7% DTBL over RR; binding policies trade \
         some L2 hits for L1 hits)",
        |r| r.l2_hit_rate,
    )
}

/// Figure 8: L1 cache hit rate per scheduler, CDP and DTBL.
pub fn fig8(m: &MatrixRecords) -> String {
    hit_rate_figure(
        m,
        "Figure 8: L1 cache hit rate",
        "(paper: TB-Pri +1.1% CDP / +2.1% DTBL; SMX binding gives the large L1 gains)",
        |r| r.l1_hit_rate,
    )
}

/// Locality provenance: attributes every cache hit to the lineage
/// relation between the TB that installed the line and the TB that hit
/// it. This is the mechanism behind Figures 7–9: the binding policies
/// win *because* children reuse lines their parents installed, not
/// merely alongside that effect.
pub fn locality(m: &MatrixRecords) -> String {
    use gpu_sim::cache::ReuseClass;
    let mut out = String::from(
        "Locality provenance: share of cache hits by installer lineage\n\
         (mechanism behind Figs 7-9: binding raises the parent-child share of L1 hits)\n",
    );
    for model in LaunchModelKind::all() {
        let mut header = vec!["scheduler".to_string()];
        for class in ReuseClass::ALL {
            header.push(format!("l1 {}", class.name()));
        }
        header.push("l2 parent_child".to_string());
        header.push("l2 same-smx".to_string());
        header.push("l1 pc dist".to_string());
        let mut t = Table::new(header);
        for sched in SchedulerKind::all() {
            let locs: Vec<&LocalityRecord> = m
                .records
                .iter()
                .filter(|r| r.launch_model == model.name() && r.scheduler == sched.name())
                .filter_map(|r| r.locality.as_ref())
                .collect();
            let avg = |f: &dyn Fn(&LocalityRecord) -> f64| {
                let vs: Vec<f64> = locs.iter().map(|l| f(l)).collect();
                mean(&vs)
            };
            let mut row = vec![sched.name().to_string()];
            for class in ReuseClass::ALL {
                row.push(pct(avg(&|l| l.l1_share(class))));
            }
            row.push(pct(avg(&|l| l.l2_share(ReuseClass::ParentChild))));
            row.push(pct(avg(&|l| {
                let total = l.l2_same_smx + l.l2_cross_smx;
                if total == 0 {
                    0.0
                } else {
                    l.l2_same_smx as f64 / total as f64
                }
            })));
            row.push(format!("{:.0} cyc", avg(&|l| l.l1_pc_mean_dist)));
            t.row(row);
        }
        out.push_str(&format!("\nlaunch model: {model}\n{}", t.render()));
        // Adaptive-Bind's bound-vs-stolen split: hits pooled over all
        // workloads because single runs can have few stolen child hits.
        let (mut bh, mut bpc, mut sh, mut spc) = (0u64, 0u64, 0u64, 0u64);
        for r in &m.records {
            if r.launch_model == model.name() && r.scheduler == SchedulerKind::AdaptiveBind.name() {
                if let Some(l) = &r.locality {
                    bh += l.bound_hits;
                    bpc += l.bound_parent_child;
                    sh += l.stolen_hits;
                    spc += l.stolen_parent_child;
                }
            }
        }
        let share = |part: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                part as f64 / total as f64
            }
        };
        out.push_str(&format!(
            "adaptive-bind child L1 hits: bound TBs {} parent-child (of {}), \
             stolen TBs {} parent-child (of {})\n",
            pct(share(bpc, bh)),
            bh,
            pct(share(spc, sh)),
            sh,
        ));
    }
    out
}

/// Figure 9: IPC normalized to the round-robin baseline, CDP (a) and
/// DTBL (b).
pub fn fig9(m: &MatrixRecords) -> String {
    let mut out = String::from(
        "Figure 9: IPC normalized to RR\n(paper: TB-Pri +4% CDP / +13% DTBL; \
         Adaptive-Bind best overall, ~27% average)\n",
    );
    for (label, model) in [("(a) CDP", LaunchModelKind::Cdp), ("(b) DTBL", LaunchModelKind::Dtbl)] {
        let mut t = Table::new(vec!["workload", "rr", "tb-pri", "smx-bind", "adaptive-bind"]);
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for w in m.workloads() {
            let mut row = vec![w.clone()];
            for (i, sched) in SchedulerKind::all().iter().enumerate() {
                let v = m
                    .get(&w, model.name(), sched.name())
                    .and_then(|r| {
                        let norm = m.normalized_ipc(r);
                        if norm.is_none() {
                            eprintln!(
                                "WARNING: no {} baseline for {w}/{} — omitting \
                                 normalized IPC for {}",
                                SchedulerKind::RoundRobin.name(),
                                model.name(),
                                sched.name()
                            );
                        }
                        norm
                    })
                    .unwrap_or(0.0);
                columns[i].push(v);
                row.push(ratio(v));
            }
            t.row(row);
        }
        let mut avg = vec!["AVERAGE".to_string()];
        for col in &columns {
            avg.push(ratio(mean(col)));
        }
        t.row(avg);
        out.push_str(&format!("\nFigure 9{label}\n{}", t.render()));
    }
    out
}

/// Launch-latency sensitivity (Section IV-D): how the Adaptive-Bind gain
/// decays as the device-launch latency grows.
pub fn latency_sweep(s: &mut Session, all: &[Arc<dyn Workload>]) -> String {
    let bases = [0u32, 500, 1000, 2000, 4000, 8000, 16000];
    let cells = gain_cells(by_name(all, "bfs-citation"), &bases, |c, base| MatrixCell {
        latency: Some(LaunchLatency::uniform(base)),
        ..c
    });
    let mut t =
        Table::new(vec!["launch latency", "rr IPC", "adaptive IPC", "gain", "child wait (rr)"]);
    for (base, pair) in bases.iter().zip(s.run(0, &cells).chunks(2)) {
        let mut row = gain_row(base.to_string(), pair);
        row.push(format!("{:.0}", pair[0].mean_child_wait));
        t.row(row);
    }
    format!(
        "Launch-latency sensitivity on bfs-citation, DTBL delivery ({} scale)\n\
         (Section IV-D: long launch latency erodes the exploitable locality)\n{}",
        s.scale,
        t.render()
    )
}

/// Overhead analysis (Section IV-E): queue hardware budget and observed
/// dynamic overheads.
pub fn overhead(s: &mut Session, all: &[Arc<dyn Workload>]) -> String {
    let mut out = String::from(
        "Overhead analysis (Section IV-E)\n\
         Hardware budget: 3 KB SRAM per SMX = 128 entries x 24 B (~1% of \
         register file + shared memory area); shared queue 0: 768 B (32 x 24 B).\n\n",
    );
    let mut t = Table::new(vec![
        "workload",
        "queue pushes",
        "onchip overflows",
        "max depth",
        "search cycles",
        "steals",
    ]);
    let names = ["bfs-citation", "amr", "join-gaussian", "regx-strings"];
    let cells = names.map(|name| {
        MatrixCell::new(
            by_name(all, name).clone(),
            LaunchModelKind::Dtbl,
            SchedulerKind::AdaptiveBind,
        )
    });
    for rec in s.run(0, &cells) {
        t.row(vec![
            rec.workload.clone(),
            rec.queue_pushes.to_string(),
            rec.queue_overflows.to_string(),
            rec.max_queue_depth.to_string(),
            rec.queue_search_cycles.to_string(),
            rec.steals.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Input-seed variance: the headline gain measured over several
/// independently generated input instances (mean ± sample std), showing
/// the result is a property of the input *structure*, not of one lucky
/// instance. `all` is the session's seed-0 suite; each other seed's
/// suite is generated once on the same program path, run as its own
/// batch, and dropped before the next.
pub fn variance(s: &mut Session, all: &[Arc<dyn Workload>]) -> String {
    use sim_metrics::report::mean_std;

    let scale = s.scale;
    let seeds: [u64; 5] = [0, 11, 2025, 424242, 7_777_777];
    let names = ["bfs-citation", "bfs-graph500", "join-gaussian", "regx-strings"];
    let mut out =
        format!("Input-seed variance over {} instances, DTBL ({scale} scale)\n\n", seeds.len());
    let mut t = Table::new(vec!["workload", "adaptive gain over rr (mean ± std)"]);
    // gains[i]: the gains of workload `names[i]`, in seed order.
    let mut gains = vec![Vec::new(); names.len()];
    for seed in seeds {
        let seeded = (seed != 0).then(|| {
            suite_for_path(scale, seed, s.programs).unwrap_or_else(|e| panic!("seed {seed}: {e}"))
        });
        let suite = seeded.as_deref().unwrap_or(all);
        let cells: Vec<MatrixCell> = names
            .iter()
            .flat_map(|name| gain_cells(by_name(suite, name), &[()], |c, ()| c))
            .collect();
        for (g, pair) in gains.iter_mut().zip(s.run(seed, &cells).chunks(2)) {
            g.push(pair[1].ipc / pair[0].ipc);
        }
    }
    for (name, g) in names.iter().zip(&gains) {
        let (m, s) = mean_std(g);
        t.row(vec![name.to_string(), format!("{m:.2}x ± {s:.2}")]);
    }
    out.push_str(&t.render());
    out
}

/// Cache-size sensitivity: how the LaPerm gain depends on L1 and L2
/// capacity (the hardware-parameter study the paper's Section IV-F
/// explicitly leaves to future work).
pub fn sweep_cache(s: &mut Session, all: &[Arc<dyn Workload>]) -> String {
    let l1_kbs = [16u32, 32, 48, 64];
    let l2_kbs = [768u32, 1536, 3072, 6144];
    let changes: Vec<GpuOverride> = (l1_kbs.iter().map(|kb| GpuOverride::L1Bytes(kb * 1024)))
        .chain(l2_kbs.iter().map(|kb| GpuOverride::L2Bytes(kb * 1024)))
        .collect();
    let cells = gain_cells(by_name(all, "bfs-citation"), &changes, |c, change| MatrixCell {
        gpu: Some(change),
        ..c
    });
    let recs = s.run(0, &cells);
    let (l1, l2) = recs.split_at(2 * l1_kbs.len());
    let table = |label: &str, kbs: &[u32], recs: &[RunRecord]| {
        let mut t = Table::new(vec![label, "rr IPC", "adaptive IPC", "gain"]);
        for (kb, pair) in kbs.iter().zip(recs.chunks(2)) {
            t.row(gain_row(format!("{kb} KB"), pair));
        }
        t.render()
    };
    format!(
        "Cache-size sensitivity on bfs-citation, DTBL ({} scale)\n\
         (Section IV-F: the paper leaves cache-size effects to future work)\n\n{}\n{}",
        s.scale,
        table("L1 per SMX", &l1_kbs, l1),
        table("L2 total", &l2_kbs, l2)
    )
}

/// Architecture generality: the Kepler config of Table I vs a
/// Maxwell-like machine (more, narrower SMs; bigger L2).
pub fn generality(s: &mut Session, all: &[Arc<dyn Workload>]) -> String {
    use sim_metrics::report::bar_chart;
    let machines = [("kepler-k20c", None), ("maxwell-like", Some(GpuOverride::MaxwellLike))];
    let changes = machines.map(|(_, change)| change);
    let cells =
        gain_cells(by_name(all, "bfs-citation"), &changes, |c, gpu| MatrixCell { gpu, ..c });
    let mut out = format!("Architecture generality on bfs-citation, DTBL ({} scale)\n\n", s.scale);
    let mut bars = Vec::new();
    for ((name, _), pair) in machines.iter().zip(s.run(0, &cells).chunks(2)) {
        bars.push((format!("{name} rr"), pair[0].ipc));
        bars.push((format!("{name} adaptive"), pair[1].ipc));
    }
    out.push_str(&bar_chart(&bars, 40));
    out.push_str("\nThe LaPerm gain survives the architecture change (Section II).\n");
    out
}

/// Timeline: windowed IPC and L1 hit rate over the run, RR vs
/// Adaptive-Bind, showing *when* the locality benefit materializes (the
/// parent/child overlap phase).
pub fn timeline(scale: Scale, all: &[Arc<dyn Workload>], jobs: usize) -> String {
    use sim_metrics::timeline::{downsample, run_timeline};
    let cfg = GpuConfig::kepler_k20c();
    let w = by_name(all, "bfs-citation");
    let mut out =
        format!("Timeline: windowed IPC / L1 hit rate on bfs-citation, DTBL ({scale} scale)\n\n");
    let scheds = [SchedulerKind::RoundRobin, SchedulerKind::AdaptiveBind];
    let traces = crate::sweep::parallel_map(&scheds, jobs, |&sched| {
        run_timeline(w, LaunchModelKind::Dtbl, sched, &cfg, 2000).expect("timeline run")
    });
    for (sched, points) in scheds.iter().zip(traces) {
        let mut t = Table::new(vec!["cycle", "IPC", "L1 hit", "L2 hit", "resident", "queued"]);
        for p in downsample(&points, 16) {
            t.row(vec![
                p.cycle.to_string(),
                format!("{:.1}", p.ipc),
                pct(p.l1_hit_rate),
                pct(p.l2_hit_rate),
                p.resident_tbs.to_string(),
                p.undispatched_tbs.to_string(),
            ]);
        }
        out.push_str(&format!("{sched}\n{}\n", t.render()));
    }
    out
}

/// Design-choice ablations: nesting clamp `L`, SMX cluster size, steal
/// hysteresis, the DTBL on-chip table capacity, the mechanism
/// decomposition, TB throttling and the warp scheduler, run as one
/// batch.
pub fn ablate(s: &mut Session, all: &[Arc<dyn Workload>]) -> String {
    use laperm::LaPermConfig;
    use SchedulerKind::{AdaptiveBind, BindOnly, RoundRobin, SmxBind, TbPri};

    let kepler = GpuConfig::kepler_k20c();
    let base = LaPermConfig::for_gpu(&kepler);
    let w = by_name(all, "bfs-citation");
    // The nesting clamp only matters on a workload that actually nests:
    // AMR refines recursively (depth 2).
    let amr = by_name(all, "amr");
    let dtbl = |w: &Arc<dyn Workload>, k| MatrixCell::new(w.clone(), LaunchModelKind::Dtbl, k);
    let tuned = |w, k, laperm| MatrixCell { laperm: Some(laperm), ..dtbl(w, k) };

    let levels = [1u8, 2, 4, 8];
    let clusters = [1u16, 2, 4];
    let slot_counts = [0u32, 4, 8, 16];
    let caps = [8usize, 32, 128, 512];
    // Mechanism decomposition: how much of the gain is *when* children
    // run (prioritization) vs *where* they run (binding)?
    let mechanisms = [
        ("neither (rr)", RoundRobin),
        ("priority only (tb-pri)", TbPri),
        ("binding only", BindOnly),
        ("both (smx-bind)", SmxBind),
    ];
    // Contention-aware TB throttling (Section IV-F's suggested
    // combination with prior work): cap resident TBs per SMX.
    let throttles = [4u32, 8, 12, 16];
    // Orthogonality to the warp scheduler (paper Section IV-F): the
    // LaPerm gain should survive swapping GTO for loose round-robin.
    let policies = [WarpSchedPolicy::Gto, WarpSchedPolicy::Lrr];

    let mut cells = Vec::new();
    cells.extend(levels.map(|level| tuned(amr, AdaptiveBind, base.with_max_level(level))));
    cells.extend(clusters.map(|size| tuned(w, SmxBind, base.with_cluster_size(size))));
    cells.extend(slot_counts.map(|n| tuned(w, AdaptiveBind, base.with_steal_min_free_slots(n))));
    cells.extend(caps.map(|cap| MatrixCell { table_entries: Some(cap), ..dtbl(w, AdaptiveBind) }));
    cells.extend(mechanisms.map(|(_, k)| dtbl(w, k)));
    cells.extend(throttles.map(|tbs| tuned(w, AdaptiveBind, base.with_throttle_tbs(tbs))));
    cells.extend(gain_cells(w, &policies, |c, policy| MatrixCell {
        gpu: Some(GpuOverride::WarpScheduler(policy)),
        ..c
    }));
    let recs = s.run(0, &cells);
    let mut next = recs.iter();
    let mut ipc_table = |header: [&str; 2], labels: Vec<String>| {
        let mut t = Table::new(header.to_vec());
        for (label, r) in labels.into_iter().zip(next.by_ref()) {
            t.row(vec![label, format!("{:.1}", r.ipc)]);
        }
        t.render()
    };
    let amr_table = ipc_table(["max nesting level L (amr)", "adaptive-bind IPC"], labels(&levels));
    let mut tables = vec![
        ipc_table(["SMX cluster size", "smx-bind IPC"], labels(&clusters)),
        ipc_table(["steal min free slots", "adaptive-bind IPC"], labels(&slot_counts)),
        ipc_table(["DTBL on-chip table entries", "adaptive-bind IPC"], labels(&caps)),
        ipc_table(["mechanisms", "IPC"], mechanisms.iter().map(|(l, _)| l.to_string()).collect()),
        ipc_table(
            ["TB throttle / SMX", "adaptive-bind IPC"],
            throttles
                .iter()
                .map(|&tbs| {
                    if tbs >= kepler.max_tbs_per_smx {
                        format!("{tbs} (= hw limit)")
                    } else {
                        tbs.to_string()
                    }
                })
                .collect(),
        ),
    ];
    let mut t = Table::new(vec!["warp scheduler", "rr IPC", "adaptive IPC", "gain"]);
    let warp = &recs[recs.len() - 2 * policies.len()..];
    for (policy, pair) in policies.iter().zip(warp.chunks(2)) {
        t.row(gain_row(policy.to_string(), pair));
    }
    tables.push(t.render());
    format!(
        "Design-choice ablations, DTBL ({} scale)\n\n{amr_table}\nbfs-citation sweeps:\n\n{}",
        s.scale,
        tables.join("\n")
    )
}

/// Each point's display label.
fn labels<T: ToString>(points: &[T]) -> Vec<String> {
    points.iter().map(T::to_string).collect()
}

/// Launch-path saturation sweep: IPC versus the DTBL aggregation-table
/// size, per scheduler, on the launch-heaviest suite workload. Shrinking
/// the table below the working set forces every extra launch through the
/// overflow penalty, so this shows where each scheduler's gain survives a
/// saturated launch path and where it collapses. Not part of the `all`
/// report (the golden predates it); run `repro saturation`.
pub fn saturation(s: &mut Session, all: &[Arc<dyn Workload>]) -> String {
    let w = by_name(all, "bfs-citation");
    let caps = [8usize, 16, 32, 64, 128, 256];
    let scheds = SchedulerKind::all();
    let cells: Vec<MatrixCell> = caps
        .iter()
        .flat_map(|&cap| {
            scheds.map(|k| MatrixCell {
                table_entries: Some(cap),
                ..MatrixCell::new(w.clone(), LaunchModelKind::Dtbl, k)
            })
        })
        .collect();

    let mut out = format!(
        "Launch-path saturation: IPC vs DTBL aggregation-table size on bfs-citation \
         ({} scale)\n\n",
        s.scale
    );
    let mut t = Table::new(vec![
        "table entries",
        "rr IPC",
        "tb-pri IPC",
        "smx-bind IPC",
        "adaptive IPC",
        "overflows (adaptive)",
    ]);
    for (cap, row) in caps.iter().zip(s.run(0, &cells).chunks(scheds.len())) {
        let mut cells = vec![cap.to_string()];
        cells.extend(row.iter().map(|r| format!("{:.1}", r.ipc)));
        cells.push(row[scheds.len() - 1].table_overflows.to_string());
        t.row(cells);
    }
    out.push_str(&t.render());
    out
}

/// The complete `repro profile` text report over a profiled matrix (`m`
/// from a sweep under [`crate::sweep::sweep_config`]`(_, true)`): engine
/// introspection, the wake-source decomposition of the simulation loop
/// pooled per launch model and scheduler, then [`latency_attribution`].
/// Only simulated-side counters appear here — host wall time is
/// nondeterministic, so it lives in `laperm-trace`'s run summary, never
/// in a golden-diffed report. Not part of the `all` report (the matrix
/// profiles neither the engine nor latency, and the golden predates
/// both). `tests/repro_snapshot.rs` diffs this byte-for-byte against the
/// checked-in ci-scale golden.
pub fn profile(m: &MatrixRecords) -> String {
    use gpu_sim::stats::{Pow2Hist, WakeSource};

    let mut out = String::from(
        "Engine introspection: wake-source decomposition of the event loop\n\
         (loop iterations partitioned by what woke the engine; jumps are cycles\n\
         the event engine skipped without work; host time: laperm-trace)\n",
    );
    let profiled = m.records.iter().filter(|r| r.engine.is_some()).count();
    if profiled == 0 {
        out.push_str("\nno engine introspection in these records (run `repro profile`)\n");
        return out;
    }
    for model in LaunchModelKind::all() {
        let mut header = vec!["scheduler".to_string(), "iters".to_string(), "cycles".to_string()];
        header.push("iters/cycle".to_string());
        for src in WakeSource::ALL {
            header.push(src.name().to_string());
        }
        header.push("mean jump".to_string());
        header.push("max jump".to_string());
        let mut t = Table::new(header);
        for sched in SchedulerKind::all() {
            let mut iters = 0u64;
            let mut cycles = 0u64;
            let mut wake = [0u64; gpu_sim::stats::NUM_WAKE_SOURCES];
            let mut jump = Pow2Hist::default();
            for r in &m.records {
                if r.launch_model != model.name() || r.scheduler != sched.name() {
                    continue;
                }
                if let Some(eng) = &r.engine {
                    iters += eng.loop_iterations;
                    cycles += r.cycles;
                    for (w, c) in wake.iter_mut().zip(eng.wake_counts) {
                        *w += c;
                    }
                    jump.merge(&eng.jump_len);
                }
            }
            let mut row = vec![sched.name().to_string(), iters.to_string(), cycles.to_string()];
            row.push(if cycles == 0 {
                "-".to_string()
            } else {
                format!("{:.3}", iters as f64 / cycles as f64)
            });
            for src in WakeSource::ALL {
                let c = wake[src.index()];
                row.push(if iters == 0 { "-".to_string() } else { pct(c as f64 / iters as f64) });
            }
            row.push(if jump.count == 0 { "-".to_string() } else { format!("{:.1}", jump.mean()) });
            row.push(jump.max.to_string());
            t.row(row);
        }
        out.push_str(&format!("\nlaunch model: {model}\n{}", t.render()));
    }

    // Pooled loop-shape histograms across the whole matrix: how deep the
    // event heap runs and how many due events fire per serviced cycle.
    let mut heap = Pow2Hist::default();
    let mut events = Pow2Hist::default();
    for eng in m.records.iter().filter_map(|r| r.engine.as_ref()) {
        heap.merge(&eng.heap_depth);
        events.merge(&eng.events_per_cycle);
    }
    let mut t = Table::new(vec!["distribution", "samples", "mean", "max"]);
    for (name, h) in [("event-heap depth", &heap), ("due events/cycle", &events)] {
        t.row(vec![
            name.to_string(),
            h.count.to_string(),
            format!("{:.2}", h.mean()),
            h.max.to_string(),
        ]);
    }
    out.push_str(&format!("\npooled across {profiled} profiled runs\n{}", t.render()));
    out.push_str(&format!("\n{}", latency_attribution(m)));
    out
}

/// Latency attribution: TB lifecycle decomposition, child queue-wait
/// split by binding outcome and nesting depth, and the launch-DAG
/// critical path — pooled per launch model and scheduler; the second
/// half of [`profile`].
pub fn latency_attribution(m: &MatrixRecords) -> String {
    use gpu_sim::stats::Pow2Hist;

    let mut out = String::from(
        "Latency attribution: TB lifecycle decomposition and launch-DAG critical path\n\
         (lifetime = launch path + queue wait + dispatch gap + exec, exact per TB;\n\
         quantiles are pow2-bucket upper bounds clamped to the observed max)\n",
    );
    let profiled = m.records.iter().filter(|r| r.latency.is_some()).count();
    if profiled == 0 {
        out.push_str("\nno latency attribution in these records (run `repro profile`)\n");
        return out;
    }
    let q3 = |h: &Pow2Hist| {
        if h.count == 0 {
            "-".to_string()
        } else {
            format!("{}/{}/{}", h.percentile(0.50), h.percentile(0.95), h.percentile(0.99))
        }
    };
    let q1 = |h: &Pow2Hist| {
        if h.count == 0 {
            "-".to_string()
        } else {
            h.percentile(0.95).to_string()
        }
    };
    for model in LaunchModelKind::all() {
        let mut t = Table::new(vec![
            "scheduler",
            "TBs",
            "lifetime p50/p95/p99",
            "launch p95",
            "queue p95",
            "gap p95",
            "exec p95",
            "child queue p50/p95/p99",
            "bound p95",
            "stolen p95",
        ]);
        for sched in SchedulerKind::all() {
            let mut tbs = 0u64;
            let mut pooled: [Pow2Hist; 8] = Default::default();
            for r in &m.records {
                if r.launch_model != model.name() || r.scheduler != sched.name() {
                    continue;
                }
                if let Some(lat) = &r.latency {
                    tbs += lat.tbs;
                    for (acc, h) in pooled.iter_mut().zip([
                        &lat.lifetime,
                        &lat.launch_path,
                        &lat.queue_wait,
                        &lat.dispatch_gap,
                        &lat.exec,
                        &lat.child_queue_wait,
                        &lat.bound_queue_wait,
                        &lat.stolen_queue_wait,
                    ]) {
                        acc.merge(h);
                    }
                }
            }
            t.row(vec![
                sched.name().to_string(),
                tbs.to_string(),
                q3(&pooled[0]),
                q1(&pooled[1]),
                q1(&pooled[2]),
                q1(&pooled[3]),
                q1(&pooled[4]),
                q3(&pooled[5]),
                q1(&pooled[6]),
                q1(&pooled[7]),
            ]);
        }
        out.push_str(&format!("\nlaunch model: {model}\n{}", t.render()));
    }

    // Queue wait by nesting depth, pooled across the whole matrix: the
    // deeper a TB sits in the launch DAG, the later its batch matures
    // and the longer it queues behind its ancestors' siblings.
    let mut by_depth: std::collections::BTreeMap<u8, Pow2Hist> = std::collections::BTreeMap::new();
    for lat in m.records.iter().filter_map(|r| r.latency.as_ref()) {
        for (depth, h) in &lat.depth_queue_wait {
            by_depth.entry(*depth).or_default().merge(h);
        }
    }
    let mut t = Table::new(vec!["nesting depth", "TBs", "queue wait p50/p95/p99", "mean"]);
    for (depth, h) in &by_depth {
        t.row(vec![depth.to_string(), h.count.to_string(), q3(h), format!("{:.1}", h.mean())]);
    }
    out.push_str(&format!(
        "\nqueue wait by nesting depth (pooled across the matrix)\n{}",
        t.render()
    ));

    // Critical path: the longest parent->child launch chain by retire
    // time, with its cycles split into queueing (creation to first
    // issue) and execution. The queue share is the scheduling-induced
    // critical-path inflation the tentpole claim is about.
    let mut t = Table::new(vec![
        "scheduler",
        "mean len",
        "mean cycles",
        "queue cycles",
        "exec cycles",
        "queue share",
    ]);
    for sched in SchedulerKind::all() {
        let mut n = 0u64;
        let (mut len, mut cycles, mut queue, mut exec) = (0u64, 0u64, 0u64, 0u64);
        for r in &m.records {
            if r.scheduler != sched.name() {
                continue;
            }
            if let Some(lat) = &r.latency {
                n += 1;
                len += u64::from(lat.critical_path.len);
                cycles += lat.critical_path.cycles;
                queue += lat.critical_path.queue_cycles;
                exec += lat.critical_path.exec_cycles;
            }
        }
        if n == 0 {
            continue;
        }
        t.row(vec![
            sched.name().to_string(),
            format!("{:.1}", len as f64 / n as f64),
            format!("{:.0}", cycles as f64 / n as f64),
            queue.to_string(),
            exec.to_string(),
            pct(queue as f64 / (queue + exec).max(1) as f64),
        ]);
    }
    out.push_str(&format!(
        "\ncritical path (pooled over both launch models, {profiled} profiled runs)\n{}",
        t.render()
    ));
    out
}

/// The complete `repro all` text report: every section in order, each
/// followed by a blank line. `all` is the session's seed-0 suite, whose
/// matrix `m` the session has already swept; every study runs its cells
/// through `s`, which serves the ones the matrix or an earlier study
/// already ran. Figure 2 renders `footprints`, the suite's analyses the
/// sweep document also carries. The `repro` binary prints exactly this
/// string, and `tests/repro_snapshot.rs` diffs it byte-for-byte against
/// the checked-in ci-scale golden — one definition, no drift.
pub fn full_report(
    s: &mut Session,
    all: &[Arc<dyn Workload>],
    m: &MatrixRecords,
    footprints: &[FootprintAnalysis],
) -> String {
    let scale = s.scale;
    let sections = [
        table1(),
        table2(scale, all),
        render_fig2(scale, footprints),
        crate::figure4(),
        fig7(m),
        fig8(m),
        fig9(m),
        locality(m),
        latency_sweep(s, all),
        timeline(scale, all, s.jobs),
        variance(s, all),
        sweep_cache(s, all),
        generality(s, all),
        overhead(s, all),
        ablate(s, all),
    ];
    let mut out = String::new();
    for section in sections {
        out.push_str(&section);
        out.push_str("\n\n");
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn record(workload: &str, model: &str, scheduler: &str, ipc: f64) -> RunRecord {
        RunRecord {
            workload: workload.to_string(),
            launch_model: model.to_string(),
            scheduler: scheduler.to_string(),
            cycles: 1000,
            ipc,
            l1_hit_rate: 0.5,
            l2_hit_rate: 0.5,
            child_l1_hit_rate: 0.5,
            mean_child_wait: 0.0,
            parent_smx_affinity: 0.0,
            smx_utilization: 0.5,
            load_imbalance: 1.0,
            dynamic_tbs: 0,
            total_tbs: 1,
            steals: 0,
            queue_overflows: 0,
            queue_pushes: 0,
            max_queue_depth: 0,
            queue_search_cycles: 0,
            table_overflows: 0,
            stalls: Default::default(),
            locality: None,
            engine: None,
            latency: None,
            host: Default::default(),
        }
    }

    #[test]
    fn normalized_ipc_uses_rr_baseline() {
        let rr_name = SchedulerKind::RoundRobin.name();
        let m = MatrixRecords {
            records: vec![
                record("bfs", "dtbl", rr_name, 10.0),
                record("bfs", "dtbl", "adaptive-bind", 25.0),
            ],
        };
        let r = m.get("bfs", "dtbl", "adaptive-bind").unwrap();
        assert_eq!(m.normalized_ipc(r), Some(2.5));
        // The baseline normalizes to exactly 1.
        let base = m.get("bfs", "dtbl", rr_name).unwrap();
        assert_eq!(m.normalized_ipc(base), Some(1.0));
    }

    #[test]
    fn normalized_ipc_without_baseline_is_none() {
        // No round-robin record for this workload/model: the gap must be
        // reported, not silently normalized to 1.0.
        let m = MatrixRecords { records: vec![record("bfs", "dtbl", "adaptive-bind", 25.0)] };
        let r = m.get("bfs", "dtbl", "adaptive-bind").unwrap();
        assert_eq!(m.normalized_ipc(r), None);
    }

    #[test]
    fn normalized_ipc_zero_baseline_is_zero() {
        let m = MatrixRecords {
            records: vec![
                record("bfs", "cdp", SchedulerKind::RoundRobin.name(), 0.0),
                record("bfs", "cdp", "tb-pri", 5.0),
            ],
        };
        let r = m.get("bfs", "cdp", "tb-pri").unwrap();
        assert_eq!(m.normalized_ipc(r), Some(0.0));
    }
}
