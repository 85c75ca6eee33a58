//! Table and figure regeneration (see the experiment index in DESIGN.md).

use std::sync::Arc;

use dynpar::{DtblModel, LaunchLatency, LaunchModelKind};
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::Simulator;
use gpu_sim::launch::DynamicLaunchModel;
use gpu_sim::stats::SimStats;
use gpu_sim::tb_sched::TbScheduler;
use sim_metrics::footprint::{FootprintAnalysis, FootprintSummary};
use sim_metrics::harness::{run_once, run_with_latency, LocalityRecord, RunRecord, SchedulerKind};
use sim_metrics::report::{mean, pct, ratio, Table};
use workloads::{Scale, SharedSource, Workload};

use crate::sweep::{suite_for_path, ProgramPath};

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

/// Runs every host kernel of `w` to completion on `cfg` under an
/// explicit scheduler and launch model: the studies whose policies lie
/// outside the harness's four scheduler kinds and default launch paths.
fn simulate(
    w: &Arc<dyn Workload>,
    cfg: &GpuConfig,
    scheduler: Box<dyn TbScheduler>,
    launch: Box<dyn DynamicLaunchModel>,
) -> SimStats {
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(w.clone())))
        .with_scheduler(scheduler)
        .with_launch_model(launch);
    for hk in w.host_kernels() {
        sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).expect("launch");
    }
    sim.run_to_completion().unwrap_or_else(|e| panic!("{} run: {e}", w.full_name()))
}

/// `w` under DTBL delivery on `cfg`, with round-robin and with
/// Adaptive-Bind: the two runs every gain study compares.
fn rr_and_adaptive(w: &Arc<dyn Workload>, cfg: &GpuConfig) -> (RunRecord, RunRecord) {
    let run = |s: SchedulerKind| {
        run_once(w, LaunchModelKind::Dtbl, s, cfg).unwrap_or_else(|e| panic!("{s} run: {e}"))
    };
    (run(SchedulerKind::RoundRobin), run(SchedulerKind::AdaptiveBind))
}

/// The table row `label | rr IPC | adaptive IPC | gain` of an
/// [`rr_and_adaptive`] pair.
fn gain_row(label: String, (rr, ad): &(RunRecord, RunRecord)) -> Vec<String> {
    vec![label, format!("{:.1}", rr.ipc), format!("{:.1}", ad.ipc), ratio(ad.ipc / rr.ipc)]
}

/// DTBL delivery at its default latency with a `cap`-entry on-chip
/// aggregation table.
fn dtbl_with_table(cap: usize) -> Box<dyn DynamicLaunchModel> {
    Box::new(DtblModel::with_table(
        LaunchLatency::default_for(LaunchModelKind::Dtbl),
        cap,
        DtblModel::DEFAULT_OVERFLOW_PENALTY,
    ))
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
/// decays as the device-launch latency grows. Latency points fan out
/// over `jobs` workers.
pub fn latency_sweep(scale: Scale, all: &[Arc<dyn Workload>], jobs: usize) -> String {
    let cfg = GpuConfig::kepler_k20c();
    let w = by_name(all, "bfs-citation");
    let mut t =
        Table::new(vec!["launch latency", "rr IPC", "adaptive IPC", "gain", "child wait (rr)"]);
    let bases = [0u32, 500, 1000, 2000, 4000, 8000, 16000];
    let rows = crate::sweep::parallel_map(&bases, jobs, |&base| {
        let latency = LaunchLatency::uniform(base);
        let rr =
            run_with_latency(w, LaunchModelKind::Dtbl, latency, SchedulerKind::RoundRobin, &cfg)
                .expect("rr run");
        let ad =
            run_with_latency(w, LaunchModelKind::Dtbl, latency, SchedulerKind::AdaptiveBind, &cfg)
                .expect("adaptive run");
        (rr, ad)
    });
    for (base, pair) in bases.iter().zip(rows) {
        let mut row = gain_row(base.to_string(), &pair);
        row.push(format!("{:.0}", pair.0.mean_child_wait));
        t.row(row);
    }
    format!(
        "Launch-latency sensitivity on bfs-citation, DTBL delivery ({scale} scale)\n\
         (Section IV-D: long launch latency erodes the exploitable locality)\n{}",
        t.render()
    )
}

/// Overhead analysis (Section IV-E): queue hardware budget and observed
/// dynamic overheads. The per-workload runs fan out over `jobs` workers.
pub fn overhead(all: &[Arc<dyn Workload>], jobs: usize) -> String {
    let cfg = GpuConfig::kepler_k20c();
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
    let recs = crate::sweep::parallel_map(&names, jobs, |name| {
        let w = by_name(all, name);
        run_once(w, LaunchModelKind::Dtbl, SchedulerKind::AdaptiveBind, &cfg).expect("overhead run")
    });
    for rec in recs {
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
/// instance. `all` is the seed-0 suite on the `programs` path; each
/// other seed's suite is generated once on the same path and dropped
/// before the next. Each seed's workloads fan out over `jobs` workers.
pub fn variance(
    scale: Scale,
    programs: ProgramPath,
    all: &[Arc<dyn Workload>],
    jobs: usize,
) -> String {
    use sim_metrics::report::mean_std;

    let cfg = GpuConfig::kepler_k20c();
    let seeds: [u64; 5] = [0, 11, 2025, 424242, 7_777_777];
    let names = ["bfs-citation", "bfs-graph500", "join-gaussian", "regx-strings"];
    let mut out =
        format!("Input-seed variance over {} instances, DTBL ({scale} scale)\n\n", seeds.len());
    let mut t = Table::new(vec!["workload", "adaptive gain over rr (mean ± std)"]);
    // gains[i]: the gains of workload `names[i]`, in seed order.
    let mut gains = vec![Vec::new(); names.len()];
    for seed in seeds {
        let seeded = (seed != 0).then(|| {
            suite_for_path(scale, seed, programs).unwrap_or_else(|e| panic!("seed {seed}: {e}"))
        });
        let suite = seeded.as_deref().unwrap_or(all);
        let row = crate::sweep::parallel_map(&names, jobs, |name| {
            let (rr, ad) = rr_and_adaptive(by_name(suite, name), &cfg);
            ad.ipc / rr.ipc
        });
        for (g, gain) in gains.iter_mut().zip(row) {
            g.push(gain);
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
/// explicitly leaves to future work). Capacity points fan out over
/// `jobs` workers.
pub fn sweep_cache(scale: Scale, all: &[Arc<dyn Workload>], jobs: usize) -> String {
    let w = by_name(all, "bfs-citation");
    let mut out = format!(
        "Cache-size sensitivity on bfs-citation, DTBL ({scale} scale)\n\
         (Section IV-F: the paper leaves cache-size effects to future work)\n\n"
    );

    let l1_kbs = [16u32, 32, 48, 64];
    let mut t = Table::new(vec!["L1 per SMX", "rr IPC", "adaptive IPC", "gain"]);
    let rows = crate::sweep::parallel_map(&l1_kbs, jobs, |&kb| {
        let mut cfg = GpuConfig::kepler_k20c();
        cfg.l1_bytes = kb * 1024;
        rr_and_adaptive(w, &cfg)
    });
    for (kb, pair) in l1_kbs.iter().zip(rows) {
        t.row(gain_row(format!("{kb} KB"), &pair));
    }
    out.push_str(&t.render());

    let l2_kbs = [768u32, 1536, 3072, 6144];
    let mut t = Table::new(vec!["L2 total", "rr IPC", "adaptive IPC", "gain"]);
    let rows = crate::sweep::parallel_map(&l2_kbs, jobs, |&kb| {
        let mut cfg = GpuConfig::kepler_k20c();
        cfg.l2_bytes = kb * 1024;
        rr_and_adaptive(w, &cfg)
    });
    for (kb, pair) in l2_kbs.iter().zip(rows) {
        t.row(gain_row(format!("{kb} KB"), &pair));
    }
    out.push('\n');
    out.push_str(&t.render());
    out
}

/// Architecture generality: the Kepler config of Table I vs a
/// Maxwell-like machine (more, narrower SMs; bigger L2).
pub fn generality(scale: Scale, all: &[Arc<dyn Workload>], jobs: usize) -> String {
    use sim_metrics::report::bar_chart;
    let w = by_name(all, "bfs-citation");
    let mut out = format!("Architecture generality on bfs-citation, DTBL ({scale} scale)\n\n");
    let machines =
        [("kepler-k20c", GpuConfig::kepler_k20c()), ("maxwell-like", GpuConfig::maxwell_like())];
    let results = crate::sweep::parallel_map(&machines, jobs, |(_, cfg)| rr_and_adaptive(w, cfg));
    let mut bars = Vec::new();
    for ((name, _), (rr, ad)) in machines.iter().zip(results) {
        bars.push((format!("{name} rr"), rr.ipc));
        bars.push((format!("{name} adaptive"), ad.ipc));
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
/// hysteresis, and the DTBL on-chip table capacity. Each ablation's
/// points fan out over `jobs` workers.
pub fn ablate(scale: Scale, all: &[Arc<dyn Workload>], jobs: usize) -> String {
    use laperm::LaPermPolicy::{AdaptiveBind, SmxBind, TbPri};
    use laperm::{LaPermConfig, LaPermPolicy, LaPermScheduler};

    let cfg = GpuConfig::kepler_k20c();
    let w = by_name(all, "bfs-citation");
    let laperm = |policy: LaPermPolicy, laperm_cfg: LaPermConfig| -> Box<dyn TbScheduler> {
        Box::new(LaPermScheduler::new(policy, laperm_cfg))
    };
    // IPC under `scheduler` with default DTBL delivery.
    let ipc = |w: &Arc<dyn Workload>, scheduler| {
        simulate(w, &cfg, scheduler, LaunchModelKind::Dtbl.build_default()).ipc()
    };

    let base_cfg = LaPermConfig::for_gpu(&cfg);
    let mut out = format!("Design-choice ablations, DTBL ({scale} scale)\n\n");

    // The nesting clamp only matters on a workload that actually nests:
    // AMR refines recursively (depth 2).
    let amr = by_name(all, "amr");
    let mut t = Table::new(vec!["max nesting level L (amr)", "adaptive-bind IPC"]);
    let levels = [1u8, 2, 4, 8];
    let ipcs = crate::sweep::parallel_map(&levels, jobs, |&level| {
        ipc(amr, laperm(AdaptiveBind, base_cfg.with_max_level(level)))
    });
    for (level, ipc) in levels.iter().zip(ipcs) {
        t.row(vec![level.to_string(), format!("{ipc:.1}")]);
    }
    out.push_str(&t.render());
    out.push_str("\nbfs-citation sweeps:\n");

    let mut t = Table::new(vec!["SMX cluster size", "smx-bind IPC"]);
    let clusters = [1u16, 2, 4];
    let ipcs = crate::sweep::parallel_map(&clusters, jobs, |&cluster| {
        ipc(w, laperm(SmxBind, base_cfg.with_cluster_size(cluster)))
    });
    for (cluster, ipc) in clusters.iter().zip(ipcs) {
        t.row(vec![cluster.to_string(), format!("{ipc:.1}")]);
    }
    out.push('\n');
    out.push_str(&t.render());

    let mut t = Table::new(vec!["steal min free slots", "adaptive-bind IPC"]);
    let slot_counts = [0u32, 4, 8, 16];
    let ipcs = crate::sweep::parallel_map(&slot_counts, jobs, |&slots| {
        ipc(w, laperm(AdaptiveBind, base_cfg.with_steal_min_free_slots(slots)))
    });
    for (slots, ipc) in slot_counts.iter().zip(ipcs) {
        t.row(vec![slots.to_string(), format!("{ipc:.1}")]);
    }
    out.push('\n');
    out.push_str(&t.render());

    let mut t = Table::new(vec!["DTBL on-chip table entries", "adaptive-bind IPC"]);
    let caps = [8usize, 32, 128, 512];
    let ipcs = crate::sweep::parallel_map(&caps, jobs, |&cap| {
        simulate(w, &cfg, laperm(AdaptiveBind, base_cfg), dtbl_with_table(cap)).ipc()
    });
    for (cap, ipc) in caps.iter().zip(ipcs) {
        t.row(vec![cap.to_string(), format!("{ipc:.1}")]);
    }
    out.push('\n');
    out.push_str(&t.render());

    // Mechanism decomposition: how much of the gain is *when* children
    // run (prioritization) vs *where* they run (binding)?
    {
        use laperm::BindOnlyScheduler;
        let mechanisms =
            ["neither (rr)", "priority only (tb-pri)", "binding only", "both (smx-bind)"];
        let ipcs = crate::sweep::parallel_map(&[0usize, 1, 2, 3], jobs, |&i| match i {
            0 => ipc(w, Box::new(gpu_sim::tb_sched::RoundRobinScheduler::new())),
            1 => ipc(w, laperm(TbPri, base_cfg)),
            2 => ipc(w, Box::new(BindOnlyScheduler::new())),
            _ => ipc(w, laperm(SmxBind, base_cfg)),
        });
        let mut t = Table::new(vec!["mechanisms", "IPC"]);
        for (label, ipc) in mechanisms.iter().zip(ipcs) {
            t.row(vec![label.to_string(), format!("{ipc:.1}")]);
        }
        out.push('\n');
        out.push_str(&t.render());
    }

    // Contention-aware TB throttling (Section IV-F's suggested
    // combination with prior work): cap resident TBs per SMX.
    let mut t = Table::new(vec!["TB throttle / SMX", "adaptive-bind IPC"]);
    let throttles = [4u32, 8, 12, 16];
    let ipcs = crate::sweep::parallel_map(&throttles, jobs, |&throttle| {
        ipc(w, laperm(AdaptiveBind, base_cfg.with_throttle_tbs(throttle)))
    });
    for (&throttle, ipc) in throttles.iter().zip(ipcs) {
        let label = if throttle >= cfg.max_tbs_per_smx {
            format!("{throttle} (= hw limit)")
        } else {
            throttle.to_string()
        };
        t.row(vec![label, format!("{ipc:.1}")]);
    }
    out.push('\n');
    out.push_str(&t.render());

    // Orthogonality to the warp scheduler (paper Section IV-F): the
    // LaPerm gain should survive swapping GTO for loose round-robin.
    let mut t = Table::new(vec!["warp scheduler", "rr IPC", "adaptive IPC", "gain"]);
    let policies = [gpu_sim::config::WarpSchedPolicy::Gto, gpu_sim::config::WarpSchedPolicy::Lrr];
    let results = crate::sweep::parallel_map(&policies, jobs, |&policy| {
        let mut warp_cfg = cfg.clone();
        warp_cfg.warp_scheduler = policy;
        rr_and_adaptive(w, &warp_cfg)
    });
    for (policy, pair) in policies.iter().zip(results) {
        t.row(gain_row(policy.to_string(), &pair));
    }
    out.push('\n');
    out.push_str(&t.render());
    out
}

/// Launch-path saturation sweep: IPC versus the DTBL aggregation-table
/// size, per scheduler, on the launch-heaviest suite workload. Shrinking
/// the table below the working set forces every extra launch through the
/// overflow penalty, so this shows where each scheduler's gain survives a
/// saturated launch path and where it collapses. Not part of the `all`
/// report (the golden predates it); run `repro saturation`.
pub fn saturation(scale: Scale, all: &[Arc<dyn Workload>], jobs: usize) -> String {
    let cfg = GpuConfig::kepler_k20c();
    let w = by_name(all, "bfs-citation");

    let caps = [8usize, 16, 32, 64, 128, 256];
    let scheds = SchedulerKind::all();
    let cells: Vec<(usize, SchedulerKind)> =
        caps.iter().flat_map(|&cap| scheds.iter().map(move |&s| (cap, s))).collect();
    let results = crate::sweep::parallel_map(&cells, jobs, |&(cap, sched)| {
        let stats = simulate(w, &cfg, sched.build(&cfg), dtbl_with_table(cap));
        let overflows = stats
            .launch_counters
            .iter()
            .find(|(k, _)| *k == "dtbl_table_overflows")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        (stats.ipc(), overflows)
    });

    let mut out = format!(
        "Launch-path saturation: IPC vs DTBL aggregation-table size on bfs-citation \
         ({scale} scale)\n\n"
    );
    let mut t = Table::new(vec![
        "table entries",
        "rr IPC",
        "tb-pri IPC",
        "smx-bind IPC",
        "adaptive IPC",
        "overflows (adaptive)",
    ]);
    for (ci, &cap) in caps.iter().enumerate() {
        let row = &results[ci * scheds.len()..(ci + 1) * scheds.len()];
        let mut cells = vec![cap.to_string()];
        cells.extend(row.iter().map(|(ipc, _)| format!("{ipc:.1}")));
        let adaptive_ovf = row[scheds.len() - 1].1;
        cells.push(adaptive_ovf.to_string());
        t.row(cells);
    }
    out.push_str(&t.render());
    out
}

/// Engine introspection: wake-source decomposition of the simulation
/// loop, pooled per launch model and scheduler. Only simulated-side
/// counters appear here — host wall time is nondeterministic, so it
/// lives in `laperm-trace --engine-profile`, never in a golden-diffed
/// report. Not part of the `all` report (the matrix does not profile
/// the engine and the golden predates it); run `repro profile`.
pub fn profile(m: &MatrixRecords) -> String {
    use gpu_sim::stats::{Pow2Hist, WakeSource};

    let mut out = String::from(
        "Engine introspection: wake-source decomposition of the event loop\n\
         (loop iterations partitioned by what woke the engine; jumps are cycles\n\
         the event engine skipped without work; host time: laperm-trace --engine-profile)\n",
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
    out
}

/// Latency attribution: TB lifecycle decomposition, child queue-wait
/// split by binding outcome and nesting depth, and the launch-DAG
/// critical path — pooled per launch model and scheduler. Not part of
/// the `all` report (the matrix does not profile latency and the golden
/// predates it); run `repro latency`.
pub fn latency_attribution(m: &MatrixRecords) -> String {
    use gpu_sim::stats::Pow2Hist;

    let mut out = String::from(
        "Latency attribution: TB lifecycle decomposition and launch-DAG critical path\n\
         (lifetime = launch path + queue wait + dispatch gap + exec, exact per TB;\n\
         quantiles are pow2-bucket upper bounds clamped to the observed max)\n",
    );
    let profiled = m.records.iter().filter(|r| r.latency.is_some()).count();
    if profiled == 0 {
        out.push_str("\nno latency attribution in these records (run `repro latency`)\n");
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

/// The complete `repro latency` text report: the Section IV-D
/// launch-latency sensitivity sweep followed by the lifecycle
/// attribution tables over a latency-profiled matrix (`m` must come
/// from a sweep under [`crate::sweep::sweep_config`]`(_, true)`).
/// `tests/repro_snapshot.rs` diffs this byte-for-byte against the
/// checked-in ci-scale golden.
pub fn latency_report(
    scale: Scale,
    all: &[Arc<dyn Workload>],
    jobs: usize,
    m: &MatrixRecords,
) -> String {
    format!("{}\n\n{}", latency_sweep(scale, all, jobs), latency_attribution(m))
}

/// The complete `repro all` text report: every section in order, each
/// followed by a blank line. `all` is the seed-0 suite on the
/// `programs` path that the matrix `m` swept, and every study reruns
/// its workloads; Figure 2 renders `footprints`, the suite's analyses
/// the sweep document also carries. The `repro` binary prints exactly
/// this string, and `tests/repro_snapshot.rs` diffs it byte-for-byte
/// against the checked-in ci-scale golden — one definition, no drift.
pub fn full_report(
    scale: Scale,
    programs: ProgramPath,
    all: &[Arc<dyn Workload>],
    jobs: usize,
    m: &MatrixRecords,
    footprints: &[FootprintAnalysis],
) -> String {
    let sections = [
        table1(),
        table2(scale, all),
        render_fig2(scale, footprints),
        crate::figure4(),
        fig7(m),
        fig8(m),
        fig9(m),
        locality(m),
        latency_sweep(scale, all, jobs),
        timeline(scale, all, jobs),
        variance(scale, programs, all, jobs),
        sweep_cache(scale, all, jobs),
        generality(scale, all, jobs),
        overhead(all, jobs),
        ablate(scale, all, jobs),
    ];
    let mut out = String::new();
    for s in sections {
        out.push_str(&s);
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
