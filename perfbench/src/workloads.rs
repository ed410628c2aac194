//! The two workloads. Each is a closed loop with one caller: the next
//! operation starts when the previous one returns, and a new one starts
//! only while the run's time budget has room for it (at least
//! [`MIN_OPS`] always run).
//!
//! | workload      | set-up                                          | one operation |
//! |---------------|-------------------------------------------------|---------------|
//! | `batch_spill` | one in-memory batch op (the reference output)   | `Study::run` with `StorageMode::Spill` + `run_all` + `render_markdown`, default scale |
//! | `extend_day`  | cold `incremental::run`, test scale             | advance the state dir one day |
//!
//! With tracing on, a run instead makes one untraced and one traced
//! operation, checks that both render the same document, and times each
//! layer from outside through its public functions (see [`crate::trace`]).

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use ipv6_user_study::analysis::windows;
use ipv6_user_study::behavior::population::Population;
use ipv6_user_study::experiments::{self, AnalysisCtx, ExperimentOutput};
use ipv6_user_study::netmodel::World;
use ipv6_user_study::telemetry::kernels::scratch_reset;
use ipv6_user_study::{
    incremental, report, RunMetrics, StorageMode, Study, StudyConfig, DEFAULT_SEGMENT_ROWS,
};

use crate::probe::{self, median, OwnedDir, MIB};
use crate::spec::{self, PER_LAYER};
use crate::trace::Tracer;

/// Simulation and analysis worker threads: all load comes from one
/// process with at most two threads.
pub const THREADS: usize = 2;

/// Timed operations every untraced run makes, whatever the budget: the
/// first operation of a process can run cold (`batch_spill`'s first spill
/// follows an in-memory set-up), so a run never reports it alone.
pub const MIN_OPS: u16 = 2;

/// One registry pass, callable on its own.
pub type Pass = fn(&AnalysisCtx<'_>) -> ExperimentOutput;

/// The default registry in paper order, so the traced run can time each
/// pass serially on one `AnalysisCtx` (the package tests pin this list
/// to `experiments::experiment_ids`).
pub const PASSES: [(&str, Pass); 20] = [
    ("F1", experiments::fig1_prevalence),
    ("T1", experiments::tab1_asns),
    ("T2/F12", experiments::tab2_countries),
    ("C4.4", experiments::c44_client_patterns),
    ("F2", experiments::fig2_addrs_per_user),
    ("F3", experiments::fig3_aa_addrs),
    ("O5.1", experiments::o51_user_outliers),
    ("F4", experiments::fig4_prefix_span),
    ("F5", experiments::fig5_lifespans),
    ("F6", experiments::fig6_prefix_lifespans),
    ("F7", experiments::fig7_users_per_ip),
    ("F8", experiments::fig8_aa_per_ip),
    ("O6.1", experiments::o61_ip_outliers),
    ("F9", experiments::fig9_users_per_prefix),
    ("F10", experiments::fig10_aa_per_prefix),
    ("O6.2", experiments::o62_prefix_outliers),
    ("F11", experiments::fig11_roc),
    ("S7.2", experiments::s72_defenses),
    ("X8.1", experiments::x81_network_breakdown),
    ("ApxA", experiments::apx_pandemic_compare),
];

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`spec::WORKLOADS`].
    pub workload: String,
    /// Workload seed; the study seed is derived from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Run every workload at `StudyConfig::tiny()` scale (the package
    /// tests use this to exercise the full runner in seconds).
    pub tiny: bool,
}

/// One printed metric value with its sample count.
#[derive(Debug, Clone)]
pub struct Reading {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Metrics in declaration order.
    pub readings: Vec<Reading>,
    /// Recorded spans (traced runs), one JSON object per line.
    pub spans: String,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

/// A failure that stops the run before it can report (set-up failed, or
/// the scratch directory is unusable).
pub type Fatal = String;

/// The study seed for a workload seed (SplitMix64, so neighbouring
/// workload seeds give unrelated worlds).
pub fn study_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload's study configuration: default scale (test scale for
/// `extend_day`, tiny scale for every workload when `args.tiny`), two
/// simulation and two analysis threads, tracing as asked, spilling into
/// `spill_dir` when given.
pub fn config(args: &Args, instrument: bool, spill_dir: Option<&Path>) -> StudyConfig {
    let mut cfg = match (args.tiny, args.workload.as_str()) {
        (true, _) => StudyConfig::tiny(),
        (false, "extend_day") => StudyConfig::test_scale(),
        (false, _) => StudyConfig::default_scale(),
    };
    let seed = args.seed;
    cfg.seed = study_seed(seed);
    cfg.threads = THREADS;
    cfg.analysis_threads = Some(THREADS);
    cfg.instrument = instrument;
    if let Some(dir) = spill_dir {
        cfg.storage = StorageMode::Spill {
            dir: Some(dir.to_path_buf()),
            segment_rows: DEFAULT_SEGMENT_ROWS,
        };
    }
    cfg
}

/// Runs one workload.
pub fn run(args: &Args) -> Result<Outcome, Fatal> {
    let dir = OwnedDir::create(&args.workload).map_err(|e| format!("scratch dir: {e}"))?;
    let mut run = Run {
        args,
        dir: &dir,
        out: Outcome::default(),
        tracer: Tracer::new(args.trace),
        e2e: BTreeMap::new(),
        layers: BTreeMap::new(),
        op_rss_mb: 0.0,
    };
    match args.workload.as_str() {
        "batch_spill" => run.batch_spill()?,
        "extend_day" => run.extend_day()?,
        other => return Err(format!("unknown workload {other}")),
    }
    run.finish()
}

/// Per-run state shared by the workloads.
struct Run<'a> {
    args: &'a Args,
    dir: &'a OwnedDir,
    out: Outcome,
    tracer: Tracer,
    /// End-to-end readings by name: (value, samples).
    e2e: BTreeMap<&'static str, (f64, usize)>,
    /// Per-layer readings by name.
    layers: BTreeMap<String, f64>,
    /// Peak memory of the traced operation, MiB.
    op_rss_mb: f64,
}

/// One timed operation's readings.
struct Sample {
    wall: f64,
    cpu: f64,
    rss_mb: f64,
    disk_mb: f64,
}

fn cpu_now() -> Result<(f64, f64), Fatal> {
    probe::cpu_user_sys().map_err(|e| format!("reading CPU time: {e}"))
}

fn io<T>(what: &str, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Times one call (the traced run's untraced baseline operation), from
/// the same trimmed heap as every measured operation.
fn timed<T>(op: impl FnOnce() -> T) -> (T, f64) {
    probe::trim_heap();
    let t0 = Instant::now();
    let out = op();
    (out, t0.elapsed().as_secs_f64())
}

/// Folds every pair-window day of `study` into its cached trie pair and
/// returns the total trie nodes.
fn build_tries(study: &Study) -> u64 {
    windows::pair_window(study.config().sim_end())
        .days()
        .map(|day| study.day_counts(day).node_count() as u64)
        .sum()
}

/// One batch operation: simulate, analyse, render, write. Returns the
/// document and the study; a traced call first builds the per-day tries
/// in their own span (the same tries `run_all` would otherwise build).
fn batch_op(cfg: &StudyConfig, out_dir: &Path, t: &mut Tracer) -> Result<(String, Study), String> {
    let mut study = t
        .span("Study::run", "driver", |_| Study::run(cfg.clone()))
        .map_err(|e| format!("Study::run: {e}"))?;
    if cfg.instrument {
        let nodes = t.span("Study::day_counts", "secapp", |_| build_tries(&study));
        std::hint::black_box(nodes);
    }
    let md = analyse(&mut study, t);
    io(
        "writing EXPERIMENTS.md",
        fs::write(out_dir.join("EXPERIMENTS.md"), &md),
    )?;
    Ok((md, study))
}

/// `run_all` plus `render_markdown` on a finished study.
fn analyse(study: &mut Study, t: &mut Tracer) -> String {
    let results = t.span("experiments::run_all", "analysis", |_| {
        experiments::run_all(study)
    });
    t.span("report::render_markdown", "report", |_| {
        report::render_markdown(&results)
    })
}

fn same_document(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: EXPERIMENTS.md digest {:016x} differs from the reference {:016x}",
            probe::fnv1a(got.as_bytes()),
            probe::fnv1a(want.as_bytes())
        ))
    }
}

impl Run<'_> {
    fn workload(&self) -> &str {
        &self.args.workload
    }

    fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Times operations in a closed loop, starting a new one only while
    /// the budget has room for another operation as long as the median so
    /// far, and always at least [`MIN_OPS`]; `op(k)` is operation `k`
    /// (1-based).
    fn measure(
        &mut self,
        mut op: impl FnMut(u16) -> Result<(), String>,
    ) -> Result<Vec<Sample>, Fatal> {
        let budget = self.args.seconds as f64;
        let start = Instant::now();
        let mut samples: Vec<Sample> = Vec::new();
        let mut walls = Vec::new();
        for k in 1u16.. {
            // Each operation's peak memory is its own: freed memory goes
            // back to the system and the high-water mark is reset before it
            // (so set-up, which for `batch_spill` is an in-memory
            // operation, never masks the timed path).
            probe::trim_heap();
            probe::reset_peak_rss().map_err(|e| format!("resetting VmHWM: {e}"))?;
            let (cpu0, t0) = (cpu_now()?, Instant::now());
            let result = op(k);
            let wall = t0.elapsed().as_secs_f64();
            let (user1, sys1) = cpu_now()?;
            let (user, sys) = (user1 - cpu0.0, sys1 - cpu0.1);
            let cpu = user + sys;
            let rss_mb = probe::peak_rss_mb().map_err(|e| format!("reading VmHWM: {e}"))?;
            let disk_mb = probe::dir_bytes(self.dir.path()) as f64 / MIB;
            self.out.notes.push(format!(
                "op {k}: wall {wall:.4} s  cpu {user:.2}+{sys:.2} s  peak {rss_mb:.1} MiB  disk {disk_mb:.3} MiB"
            ));
            if result.is_ok() {
                samples.push(Sample {
                    wall,
                    cpu,
                    rss_mb,
                    disk_mb,
                });
            }
            self.out.check(result.map_err(|e| format!("op {k}: {e}")));
            walls.push(wall);
            if k >= MIN_OPS && start.elapsed().as_secs_f64() + median(&walls) > budget {
                break;
            }
        }
        Ok(samples)
    }

    /// Records the end-to-end readings of an untraced run: medians over
    /// the timed operations, and the one set-up time.
    fn report_e2e(&mut self, setup_s: f64, samples: &[Sample]) {
        let n = samples.len();
        let col = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        self.e2e.insert("wall_s", (col(|s| s.wall), n));
        self.e2e.insert("setup_s", (setup_s, 1));
        self.e2e.insert("cpu_s", (col(|s| s.cpu), n));
        self.e2e.insert("peak_rss_mb", (col(|s| s.rss_mb), n));
        self.e2e.insert("disk_mb", (col(|s| s.disk_mb), n));
    }

    /// Runs the traced operation inside the `op` span and records its
    /// measured peak memory, which the run prints beside the driver's
    /// modelled peak store.
    fn traced_op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> Result<T, Fatal> {
        probe::trim_heap();
        probe::reset_peak_rss().map_err(|e| format!("resetting VmHWM: {e}"))?;
        let out = self.tracer.span("op", "op", f);
        self.op_rss_mb = probe::peak_rss_mb().map_err(|e| format!("reading VmHWM: {e}"))?;
        Ok(out)
    }

    fn batch_spill(&mut self) -> Result<(), Fatal> {
        let out_dir = self
            .dir
            .subdir("out")
            .map_err(|e| format!("scratch dir: {e}"))?;
        let spill_dir = self
            .dir
            .subdir("spill")
            .map_err(|e| format!("scratch dir: {e}"))?;
        let mem_cfg = config(self.args, false, None);
        let cfg = config(self.args, false, Some(&spill_dir));

        // Set-up: one in-memory operation, whose document every timed
        // operation must reproduce (the storage byte-identity contract).
        let t0 = Instant::now();
        let (reference, study) = batch_op(&mem_cfg, &out_dir, &mut Tracer::new(false))
            .map_err(|e| format!("set-up: {e}"))?;
        drop(study);
        let setup_s = t0.elapsed().as_secs_f64();
        self.out.check(Ok(()));

        let check = |md: &str| -> Result<(), String> {
            same_document("batch_spill vs in memory", md, &reference)?;
            if probe::is_empty_dir(&spill_dir) {
                Ok(())
            } else {
                Err(format!(
                    "spill dir {} not empty after the operation",
                    spill_dir.display()
                ))
            }
        };
        if !self.args.trace {
            let samples = self.measure(|_| {
                let (md, study) = batch_op(&cfg, &out_dir, &mut Tracer::new(false))?;
                drop(study);
                check(&md)
            })?;
            self.report_e2e(setup_s, &samples);
            return Ok(());
        }

        // Traced run: one untraced operation as the baseline, then the same
        // operation traced; both must render the reference document.
        let (untraced, wall_u) = timed(|| {
            batch_op(&cfg, &out_dir, &mut Tracer::new(false)).map(|(md, study)| {
                drop(study);
                md
            })
        });
        self.out.check(untraced.and_then(|md| check(&md)));
        let traced_cfg = config(self.args, true, Some(&spill_dir));
        let traced = self.traced_op(|t| batch_op(&traced_cfg, &out_dir, t))?;
        let (md, study) = traced.map_err(|e| format!("traced op: {e}"))?;
        self.out.check(check(&md));

        self.driver_and_telemetry_layers(&study);
        self.tries_layers(build_tries(&study));
        self.report_layers(md.len());
        let pool_s = phase_secs(&study, "passes");
        let all: Vec<&str> = PASSES.iter().map(|&(id, _)| id).collect();
        self.analysis_layers(&study, pool_s, &all);
        self.model_layers(&traced_cfg);
        self.obs_layers(wall_u);
        Ok(())
    }

    fn extend_day(&mut self) -> Result<(), Fatal> {
        let out_dir = self
            .dir
            .subdir("out")
            .map_err(|e| format!("scratch dir: {e}"))?;
        let state = self
            .dir
            .subdir("state")
            .map_err(|e| format!("scratch dir: {e}"))?;
        let base = config(self.args, false, None);
        let base_days = u64::from(base.sim_range().num_days());

        // Set-up: a cold state dir holding the base range.
        let t0 = Instant::now();
        incremental::run(base.clone(), &state)
            .map_err(|e| format!("set-up: incremental::run: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        self.out.check(Ok(()));

        // Operation k advances the state dir to `extend_days = k`: it must
        // reuse every earlier day and compute exactly one.
        let day = |k: u16, state: &Path, instrument: bool, t: &mut Tracer| {
            let mut cfg = base.clone();
            cfg.extend_days = k;
            cfg.instrument = instrument;
            let r = t
                .span("incremental::run", "incremental", |_| {
                    incremental::run(cfg, state)
                })
                .map_err(|e| format!("incremental::run: {e}"))?;
            io(
                "writing EXPERIMENTS.md",
                fs::write(out_dir.join("EXPERIMENTS.md"), &r.markdown),
            )?;
            let want = (base_days + u64::from(k) - 1, 1);
            let got = (r.stats.days_reused, r.stats.days_computed);
            if got != want {
                return Err(format!(
                    "days (reused, computed) = {got:?}, expected {want:?}"
                ));
            }
            Ok(r)
        };
        // The first extension must equal a from-scratch run of its range.
        let scratch_check = |md: &str, t: &mut Tracer| {
            let mut cfg = base.clone();
            cfg.extend_days = 1;
            let mut study = Study::run(cfg).map_err(|e| format!("from-scratch Study::run: {e}"))?;
            let fresh = analyse(&mut study, t);
            same_document("extend_day op 1 vs from scratch", md, &fresh)
        };

        if !self.args.trace {
            let mut first = None;
            let samples = self.measure(|k| {
                let r = day(k, &state, false, &mut Tracer::new(false))?;
                if k == 1 {
                    first = Some(r.markdown);
                }
                Ok(())
            })?;
            if let Some(md) = first {
                self.out.check(scratch_check(&md, &mut Tracer::new(false)));
            }
            self.report_e2e(setup_s, &samples);
            return Ok(());
        }

        // Traced run: the untraced and the traced operation each advance
        // their own cold state dir by one day.
        let state_t = self
            .dir
            .subdir("state_traced")
            .map_err(|e| format!("scratch dir: {e}"))?;
        incremental::run(base.clone(), &state_t)
            .map_err(|e| format!("set-up: incremental::run: {e}"))?;
        let (untraced, wall_u) =
            timed(|| day(1, &state, false, &mut Tracer::new(false)).map(|r| r.markdown));
        let md_u = untraced.map_err(|e| format!("untraced op: {e}"))?;
        self.out.check(Ok(()));
        let traced = self.traced_op(|t| day(1, &state_t, true, t))?;
        let run = traced.map_err(|e| format!("traced op: {e}"))?;
        self.out
            .check(same_document("traced vs untraced", &run.markdown, &md_u));
        let resume_s = self.tracer.secs("incremental::run");
        let state_mb = probe::dir_bytes(&state_t) as f64 / MIB;

        let study = run.study;
        self.driver_and_telemetry_layers(&study);
        let ids: Vec<&str> = experiments::experiment_ids()
            .filter(|id| {
                windows::invalidated_by_extension(id, base.sim_range(), study.config().sim_range())
            })
            .collect();
        let (rerun, _) = self
            .tracer
            .span("experiments::run_selected", "analysis", |_| {
                experiments::run_selected(&study, &ids, THREADS)
            });
        std::hint::black_box(rerun);
        let rerun_s = self.tracer.secs("experiments::run_selected");
        self.analysis_layers(&study, rerun_s, &ids);

        // Extension in memory: a fresh base-range study (whose per-day
        // tries give the secapp numbers) extended by one day, no disk.
        let traced_base = config(self.args, true, None);
        let base_study = self
            .tracer
            .span("Study::run (base range)", "driver", |_| {
                Study::run(traced_base.clone())
            })
            .map_err(|e| format!("Study::run: {e}"))?;
        let nodes = self
            .tracer
            .span("Study::day_counts", "secapp", |_| build_tries(&base_study));
        self.tries_layers(nodes);
        let extended = self.tracer.span("Study::extend_days", "incremental", |_| {
            base_study.extend_days(1)
        });
        // The in-memory extension must render what the state dir did (the
        // untraced runs compare against a from-scratch run instead).
        let (mut extended, _) = extended.map_err(|e| format!("Study::extend_days: {e}"))?;
        let md = analyse(&mut extended, &mut self.tracer);
        self.out.check(same_document(
            "extend_days in memory vs state dir",
            &md,
            &md_u,
        ));
        self.report_layers(md.len());
        drop(extended);
        self.model_layers(&traced_base);

        let m = study.metrics();
        let suffix_sim_s = (m.plan_wall + m.sim_wall).as_secs_f64();
        let (merge_s, freeze_s) = (m.merge_wall.as_secs_f64(), m.sort_wall.as_secs_f64());
        self.layer("incremental.resume_s", resume_s);
        self.layer("incremental.days_reused", run.stats.days_reused as f64);
        self.layer("incremental.days_computed", run.stats.days_computed as f64);
        self.layer("incremental.suffix_sim_s", suffix_sim_s);
        self.layer("incremental.rebuild_merge_s", merge_s);
        self.layer("incremental.rebuild_freeze_s", freeze_s);
        self.layer("incremental.rerun_s", rerun_s);
        let in_memory_s = self.tracer.secs("Study::extend_days");
        self.layer("incremental.extend_in_memory_s", in_memory_s);
        self.layer("incremental.state_mb", state_mb);
        self.layer(
            "incremental.unattributed_s",
            resume_s - suffix_sim_s - merge_s - freeze_s - rerun_s,
        );
        self.obs_layers(wall_u);
        Ok(())
    }

    fn driver_and_telemetry_layers(&mut self, study: &Study) {
        for (name, value) in driver_layers(study.metrics()) {
            self.layer(name, value);
        }
        let r = study.report();
        let spill_mb = r.spill_bytes_verified as f64 / MIB;
        let freeze_s = study.metrics().sort_wall.as_secs_f64();
        self.layer("telemetry.store_mb", r.store_bytes as f64 / MIB);
        self.layer("telemetry.bytes_per_record", r.bytes_per_record);
        self.layer("telemetry.spill_mb", spill_mb);
        self.layer(
            "telemetry.spill_mb_per_s",
            if spill_mb > 0.0 && freeze_s > 0.0 {
                spill_mb / freeze_s
            } else {
                0.0
            },
        );
    }

    fn tries_layers(&mut self, nodes: u64) {
        let build_s = self.tracer.secs("Study::day_counts");
        self.layer("secapp.trie_build_s", build_s);
        self.layer("secapp.trie_nodes", nodes as f64);
    }

    fn report_layers(&mut self, md_bytes: usize) {
        let render_s = self.tracer.secs("report::render_markdown");
        self.layer("report.render_s", render_s);
        self.layer("report.md_bytes", md_bytes as f64);
    }

    /// `World::sized` and `Population::new` at the workload's scale.
    fn model_layers(&mut self, cfg: &StudyConfig) {
        let world = self.tracer.span("World::sized", "netmodel", |_| {
            World::sized(cfg.seed, cfg.households)
        });
        // The population seed `Study::run` derives from the study seed.
        let pop = self.tracer.span("Population::new", "behavior", |_| {
            Population::new(&world, cfg.seed ^ 0x504F_5055, cfg.households)
        });
        std::hint::black_box(pop.approx_users());
        let (world_s, pop_s) = (
            self.tracer.secs("World::sized"),
            self.tracer.secs("Population::new"),
        );
        self.layer("netmodel.world_s", world_s);
        self.layer("behavior.population_s", pop_s);
    }

    /// The shared index build and every registry pass, timed serially on
    /// one `AnalysisCtx`. `pool_s` is the wall of the worker pool that ran
    /// the passes in `pool_ids`.
    fn analysis_layers(&mut self, study: &Study, pool_s: f64, pool_ids: &[&str]) {
        let ctx = self.tracer.span("AnalysisCtx::build_all", "analysis", |_| {
            let ctx = AnalysisCtx::new(study);
            ctx.build_all();
            ctx
        });
        let index_s = self.tracer.secs("AnalysisCtx::build_all");
        let shared = [
            ctx.user_week(),
            ctx.user_day(),
            ctx.user_lookback(),
            ctx.ip_day(),
            ctx.ip_week(),
            ctx.abuse_week(),
        ];
        let index_records: usize = shared.iter().map(|i| i.len()).sum();
        let index_bytes: usize = shared.iter().map(|i| i.bytes()).sum();
        let mut pool_busy = 0.0;
        for (id, pass) in PASSES {
            let span = format!("pass {id}");
            let out = self.tracer.span(&span, "analysis", |_| pass(&ctx));
            scratch_reset();
            std::hint::black_box(out);
            let secs = self.tracer.secs(&span);
            if pool_ids.contains(&id) {
                pool_busy += secs;
            }
            self.layer(&format!("analysis.pass_s.{}", spec::sanitize(id)), secs);
        }
        self.layer("analysis.index_s", index_s);
        self.layer("analysis.index_records", index_records as f64);
        self.layer("analysis.index_mb", index_bytes as f64 / MIB);
        self.layer("analysis.pool_s", pool_s);
        self.layer(
            "analysis.pool_eff",
            if pool_s > 0.0 {
                pool_busy / (THREADS as f64 * pool_s)
            } else {
                0.0
            },
        );
    }

    /// Tracing overhead of the traced operation against the untraced
    /// baseline `wall_u`, and how much of its wall the layer spans cover.
    fn obs_layers(&mut self, wall_u: f64) {
        let wall_t = self.tracer.secs("op");
        let op = self.tracer.last_id("op").expect("the traced operation ran");
        let unattributed = self.tracer.self_secs(op);
        for (layer, secs) in self.tracer.layer_self_secs(op) {
            self.out.notes.push(format!(
                "self time {layer:<12} {secs:>9.4} s  {:>5.1}% of the traced op",
                100.0 * secs / wall_t
            ));
        }
        let modelled = self
            .layers
            .get("driver.peak_store_mb")
            .copied()
            .unwrap_or(0.0);
        self.out.notes.push(format!(
            "peak RSS of the traced op {:.1} MiB (VmHWM); modelled driver.peak_store_mb {modelled:.1} MiB",
            self.op_rss_mb
        ));
        self.layer("obs.trace_overhead_s", wall_t - wall_u);
        self.layer("obs.unattributed_s", unattributed);
        self.layer("obs.coverage", 1.0 - unattributed / wall_t);
    }

    /// Assembles the readings in declaration order. Incremental-engine
    /// metrics read 0 on the workloads that do not use the engine; any
    /// other metric missing is a benchmark bug.
    fn finish(mut self) -> Result<Outcome, Fatal> {
        if self.args.trace {
            for spec in PER_LAYER {
                let value = match self.layers.get(spec.name) {
                    Some(&v) => v,
                    None if spec.name.starts_with("incremental.")
                        && self.workload() != "extend_day" =>
                    {
                        0.0
                    }
                    None => return Err(format!("per-layer metric {} was not measured", spec.name)),
                };
                self.out.readings.push(Reading {
                    name: spec.name.to_string(),
                    value,
                    samples: 1,
                });
            }
            self.out.spans = self.tracer.to_json_lines();
        } else {
            for spec in spec::END_TO_END {
                let &(value, samples) = self
                    .e2e
                    .get(spec.name)
                    .ok_or_else(|| format!("end-to-end metric {} was not measured", spec.name))?;
                self.out.readings.push(Reading {
                    name: spec.name.to_string(),
                    value,
                    samples,
                });
            }
        }
        Ok(self.out)
    }
}

/// Wall of one analysis-engine phase from an instrumented study's report.
fn phase_secs(study: &Study, name: &str) -> f64 {
    study
        .report()
        .analysis_phases
        .iter()
        .find(|p| p.name == name)
        .map_or(0.0, |p| p.wall.as_secs_f64())
}

/// Driver-layer readings from a study's own run metrics.
fn driver_layers(m: &RunMetrics) -> Vec<(&'static str, f64)> {
    let walls: Vec<f64> = m.shards.iter().map(|s| s.wall.as_secs_f64()).collect();
    let sim_s = m.sim_wall.as_secs_f64();
    let busy: f64 = walls.iter().sum();
    vec![
        ("driver.plan_s", m.plan_wall.as_secs_f64()),
        ("driver.sim_s", sim_s),
        ("driver.merge_s", m.merge_wall.as_secs_f64()),
        ("driver.freeze_s", m.sort_wall.as_secs_f64()),
        ("driver.shards", walls.len() as f64),
        ("driver.shard_p50_s", median(&walls)),
        (
            "driver.shard_max_s",
            walls.iter().copied().fold(0.0, f64::max),
        ),
        (
            "driver.parallel_eff",
            if sim_s > 0.0 {
                busy / (m.threads as f64 * sim_s)
            } else {
                0.0
            },
        ),
        ("driver.records", m.total_records() as f64),
        ("driver.sim_records_per_s", m.records_per_sec()),
        ("driver.peak_store_mb", m.peak_store_bytes as f64 / MIB),
    ]
}
