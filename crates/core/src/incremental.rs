//! The incremental day-over-day engine (DESIGN.md §14).
//!
//! The paper's security application is day-*n* → day-*n+1* actioning,
//! which makes "append one day" the pipeline's steady-state operation —
//! yet the batch pipeline recomputes the whole timeline per run. This
//! module adds the extension path on top of three facts the rest of the
//! workspace guarantees:
//!
//! 1. **Per-day purity.** A shard's emission on a day is a pure function
//!    of `(config, day)` — the shard plan, samplers, and campaign
//!    placement are all anchored on the *base* `full_range`, never on
//!    `extend_days` — so simulating only the suffix days reproduces
//!    exactly the rows a full run emits there (the crate-private
//!    `driver::execute_days`).
//! 2. **Order stability.** Frozen stores order rows by timestamp with
//!    plan-order tie-breaks; days are timestamp-disjoint, so the old
//!    store's canonical rows followed by the suffix's canonical rows
//!    *are* the longer run's canonical order — the re-freeze's stable
//!    sort is a no-op pass over already-sorted input.
//! 3. **Order-isomorphism.**
//!    [`EntityTables`](ipv6_study_telemetry::EntityTables) depend only on
//!    the distinct raw-key *sets*, and dense ids are assigned in ascending
//!    raw-key order — so the union tables equal the longer run's tables
//!    bit-for-bit, and keys that survive an extension keep their
//!    relative order (which is what lets cached per-day structures and
//!    merged indexes stay valid).
//!
//! Together these give the engine's defining correctness bar: extending
//! by a day is **byte-identical** to a from-scratch run of the longer
//! range, at any thread count and either storage mode (pinned by
//! `tests/incremental.rs`).
//!
//! # One freeze per extension
//!
//! Every retained row is a sorted run (see
//! [`ipv6_study_telemetry::spill`]), here too. An extension builds one
//! set of families out of the runs it carries — the checkpoint's day
//! files loaded as in-memory runs, or a frozen study thawed into one
//! in-memory run per family — each with the keys of its rows, appends
//! the suffix shards' runs, and calls the driver's freeze once. Of the
//! pair store, only days inside the *new* pair window are carried, so
//! keys of rows that slid out are never interned.
//!
//! # Checkpoints (`--state-dir`)
//!
//! A state directory persists the engine's frozen day deltas so a later
//! process can extend without re-simulating:
//!
//! ```text
//! state-dir/
//!   manifest.json        config identity, covered extension, counters,
//!                        cached-pass list (written last = commit point)
//!   days/day<idx>/<family>.seg   one run frame per family per day, rows
//!                        in canonical frozen order (request, user, ip,
//!                        prefix<len>…, abuse; pair only for days inside
//!                        the sliding pair window)
//!   passes/<id>.md|.sum  rendered markdown section + console summary
//!                        of each default-registry pass
//! ```
//!
//! Saves are crash-safe: every file is written to a temporary name and
//! renamed into place, the manifest last. Day files the committed
//! manifest covers are immutable and kept as they are; every other day
//! file is rewritten, so a torn file a killed save left behind is never
//! committed. A save first removes the committed manifest (it rewrites
//! the pass sections that manifest lists), and pair files that slid out
//! of the window are pruned only after the new manifest commits. A run
//! that dropped shards under `FailurePolicy::Degrade` writes nothing. On
//! resume, only the passes whose read windows cover the new days (per
//! [`windows::invalidated_by_extension`], the single source of truth)
//! are re-run — everything else is spliced from the cached sections,
//! byte-identical because the calendar-anchored windows see the same
//! records in the same order.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ipv6_study_analysis::windows;
use ipv6_study_netmodel::World;
use ipv6_study_obs::{IncrementalStat, Json};
use ipv6_study_telemetry::spill::write_atomic;
use ipv6_study_telemetry::{
    load_checkpoint_segment, write_checkpoint_segment, AbuseLabels, ColumnSlice, DateRange,
    Families, FamilyPayload, FrozenStore, KeyCollector, RunManifest, SimDate,
};

use crate::config::{ConfigError, StudyConfig};
use crate::driver::{self, RunMetrics, Simulated};
use crate::experiments::{self, ExperimentOutput};
use crate::faults::{FaultReport, StudyError};
use crate::report;
use crate::study::{actors, build_world, open_session, Study};

/// A completed incremental run: the (possibly extended) study, the reuse
/// accounting, and the rendered documents with cached sections spliced
/// in.
#[derive(Debug)]
pub struct IncrementalRun {
    /// The study covering the requested (extended) range.
    pub study: Study,
    /// What was reused vs. computed (also recorded in the study's run
    /// report as `analysis.incremental`).
    pub stats: IncrementalStat,
    /// The full EXPERIMENTS.md content for the extended range.
    pub markdown: String,
    /// The console summary (one line per statistic).
    pub summary: String,
}

/// One pass's rendered output, as cached under `passes/` in a state dir.
struct PassSection {
    id: String,
    markdown: String,
    summary: String,
}

/// A parsed checkpoint manifest.
struct Checkpoint {
    /// The `extend_days` value the persisted deltas cover.
    covered_extend_days: u16,
    offered: u64,
    users_seen: u64,
    users_sampled: u64,
    /// Ids of the passes with cached sections.
    passes: Vec<String>,
}

impl Checkpoint {
    /// The days the committed day files cover, under `config`'s base
    /// windows.
    fn range(&self, config: &StudyConfig) -> DateRange {
        let mut covered = config.clone();
        covered.extend_days = self.covered_extend_days;
        covered.sim_range()
    }
}

/// Wraps a filesystem problem in the state dir as a config/storage
/// error (the checkpoint is configuration-supplied storage).
fn storage_err(what: &str, path: &Path, e: &std::io::Error) -> StudyError {
    StudyError::Config(ConfigError::Storage(format!(
        "state dir: {what} {} failed: {e}",
        path.display()
    )))
}

/// A state-dir consistency problem (bad manifest, config mismatch).
fn storage_msg(msg: String) -> StudyError {
    StudyError::Config(ConfigError::Storage(msg))
}

/// The filename stem for a pass's cached sections. Pass ids may contain
/// path separators (e.g. `T2/F12`); flatten them so every cache file
/// lives directly under `passes/`.
fn pass_file_stem(id: &str) -> String {
    id.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Every frozen store of a study, in freeze order.
fn stores(study: &Study) -> Families<&FrozenStore> {
    let d = &study.datasets;
    let mut lengths: Vec<u8> = d.prefix_samples.keys().copied().collect();
    lengths.sort_unstable();
    Families {
        request: &d.request_sample,
        user: &d.user_sample,
        ip: &d.ip_sample,
        prefixes: lengths
            .into_iter()
            .map(|len| (len, d.prefix_sample(len)))
            .collect(),
        abuse: &study.abuse_store,
        pair: &study.pair_store,
    }
}

/// The checkpoint file stem of every family, in freeze order.
fn file_stems(config: &StudyConfig) -> Families<String> {
    let mut stems = Families::with(&config.prefix_lengths, str::to_string);
    for (len, stem) in &mut stems.prefixes {
        *stem = format!("prefix{len}");
    }
    stems
}

/// The directory holding one day's files.
fn day_dir(dir: &Path, day: SimDate) -> PathBuf {
    dir.join("days").join(format!("day{:03}", day.index()))
}

/// Extends `study` by `n` simulated days: thaws every frozen family into
/// one in-memory run, simulates only the suffix days, and freezes once.
/// See the module docs for why the result is byte-identical to a
/// from-scratch run of the longer range.
pub(crate) fn extend(study: Study, n: u16) -> Result<(Study, IncrementalStat), StudyError> {
    let t0 = Instant::now();
    let old_days = u64::from(study.config.sim_range().num_days());
    let stats = |extend_wall| IncrementalStat {
        days_reused: old_days,
        days_computed: u64::from(n),
        extend_wall,
    };
    if n == 0 {
        let mut study = study;
        let stats = stats(t0.elapsed());
        study.report.incremental = stats;
        return Ok((study, stats));
    }
    let mut config = study.config.clone();
    config.extend_days = config.extend_days.saturating_add(n);
    config.validate()?;
    let old_end = study.config.sim_end();
    let pair_win = windows::pair_window(config.sim_end());

    // Thaw: each family becomes one in-memory run in canonical order, with
    // the keys of its rows; of the pair store, only the old days still
    // inside the new window.
    let t_thaw = Instant::now();
    let mut rows = stores(&study).map(FrozenStore::all);
    rows.pair = if pair_win.start <= old_end {
        study
            .pair_store
            .in_range(DateRange::new(pair_win.start, old_end))
    } else {
        ColumnSlice::empty(study.pair_store.tables())
    };
    let mut keys = KeyCollector::new();
    let names = Families::with(&config.prefix_lengths, str::to_string);
    let families = rows.zip(names).map(|(rows, name)| {
        vec![RunManifest::from_rows(
            name,
            rows.records().inspect(|r| keys.add(r)),
        )]
    });
    let carried = Simulated {
        families,
        keys: vec![keys],
        offered: study.datasets.offered,
        users_seen: study.users_seen,
        users_sampled: study.users_sampled,
        metrics: RunMetrics {
            merge_wall: t_thaw.elapsed(),
            ..RunMetrics::default()
        },
        faults: FaultReport::default(),
    };
    // Per-day tries of days still inside the sliding pair window stay
    // valid: DayCounts reads raw keys only, so re-encoding does not
    // invalidate them.
    let tries = study.take_day_counts(pair_win);
    let (world, labels, approx_users) = reused_parts(study);

    let mut extended = extend_runs(config, world, labels, approx_users, carried, old_end, t0)?;
    let stats = stats(t0.elapsed());
    extended.report.incremental = stats;
    extended.seed_day_counts(tries);
    Ok((extended, stats))
}

/// The parts of a study an extension reuses. Everything else — the old
/// frozen stores, now thawed into runs — drops here, before the suffix
/// sim and the freeze.
fn reused_parts(study: Study) -> (World, AbuseLabels, u64) {
    (study.world, study.labels, study.approx_users)
}

/// Simulates the days of `config` after `covered_end`, appends their runs
/// after the `carried` ones, freezes everything once, and assembles the
/// extended study — the path a state-dir resume and an in-memory
/// extension share.
fn extend_runs(
    config: StudyConfig,
    world: World,
    labels: AbuseLabels,
    approx_users: u64,
    mut carried: Simulated,
    covered_end: SimDate,
    t0: Instant,
) -> Result<Study, StudyError> {
    let mut out = {
        let (pop, abuse) = actors(&config, &world);
        let samplers = config.sampling.resolve(approx_users);
        let session = open_session(&config)?;
        if covered_end < config.sim_end() {
            let suffix = DateRange::new(covered_end + 1, config.sim_end());
            let sim = driver::simulate(&config, &world, &pop, &abuse, &samplers, &session, suffix)?;
            carried.append(sim);
        }
        carried.freeze(samplers, &session, config.threads)?
    };
    out.metrics.total_wall = t0.elapsed();
    Ok(Study::assemble(config, world, labels, approx_users, out))
}

/// Resumes from a committed checkpoint: loads its day files as in-memory
/// runs — each verified while its keys are collected; pair files only for
/// days inside the new pair window — then extends them to `config`'s
/// range with one freeze. No committed day is simulated again.
fn resume(
    config: StudyConfig,
    cp: &Checkpoint,
    dir: &Path,
    t0: Instant,
) -> Result<Study, StudyError> {
    let world = build_world(&config);
    let (pop, abuse) = actors(&config, &world);
    let (approx_users, labels) = (pop.approx_users(), abuse.labels());
    let covered = cp.range(&config);
    let pair_win = windows::pair_window(config.sim_end());

    let t_load = Instant::now();
    let stems = file_stems(&config);
    let mut families: Families<FamilyPayload> = Families::new(&config.prefix_lengths);
    let mut keys = Vec::new();
    for day in covered.days() {
        let day_dir = day_dir(dir, day);
        for (stem, runs) in stems.iter().zip(families.iter_mut()) {
            if stem == "pair" && !pair_win.contains(day) {
                continue;
            }
            let (run, day_keys) = load_checkpoint_segment(&day_dir.join(format!("{stem}.seg")))?;
            runs.push(run);
            keys.push(day_keys);
        }
    }
    let carried = Simulated {
        families,
        keys,
        offered: cp.offered,
        users_seen: cp.users_seen,
        users_sampled: cp.users_sampled,
        metrics: RunMetrics {
            threads: config.threads,
            merge_wall: t_load.elapsed(),
            ..RunMetrics::default()
        },
        faults: FaultReport {
            policy: config.failure_policy,
            ..FaultReport::default()
        },
    };
    extend_runs(
        config,
        world,
        labels,
        approx_users,
        carried,
        covered.end,
        t0,
    )
}

/// The config-identity echo both written to and checked against the
/// manifest. Runtime knobs that cannot change the emitted datasets —
/// threads, analysis threads, storage mode, instrumentation — are
/// deliberately excluded: a checkpoint written by a spill run resumes
/// fine in memory mode and vice versa.
fn identity_json(config: &StudyConfig) -> Json {
    Json::obj()
        .with("seed", Json::UInt(config.seed))
        .with("households", Json::UInt(config.households))
        .with("campaigns", Json::UInt(u64::from(config.campaigns)))
        .with(
            "full_start",
            Json::UInt(u64::from(config.full_range.start.index())),
        )
        .with(
            "full_end",
            Json::UInt(u64::from(config.full_range.end.index())),
        )
        .with(
            "dense_start",
            Json::UInt(u64::from(config.dense_range.start.index())),
        )
        .with(
            "dense_end",
            Json::UInt(u64::from(config.dense_range.end.index())),
        )
        .with(
            "prefix_lengths",
            Json::Arr(
                config
                    .prefix_lengths
                    .iter()
                    .map(|&l| Json::UInt(u64::from(l)))
                    .collect(),
            ),
        )
        .with("sampling", Json::str(config.sampling.label()))
        .with("ablation", Json::str(format!("{:?}", config.ablation)))
}

/// Writes (or refreshes) the checkpoint for `study` in `dir`, crash-safely
/// (see the module docs). `committed` is the checkpoint the directory
/// held before this run, if any: its day files are immutable and kept.
/// A study that dropped shards writes nothing — its rows are partial, and
/// a later clean run must not resume from them.
fn save_checkpoint(
    study: &Study,
    sections: &[PassSection],
    dir: &Path,
    committed: Option<&Checkpoint>,
) -> Result<(), StudyError> {
    if study.faults.dropped_count() > 0 {
        return Ok(());
    }
    let config = &study.config;
    let write = |path: &Path, bytes: &[u8]| {
        write_atomic(path, bytes).map_err(|e| storage_err("writing", path, &e))
    };
    let remove = |path: &Path| match fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(storage_err("removing", path, &e))
        }
        _ => Ok(()),
    };
    // Uncommit: the pass sections below replace the ones the committed
    // manifest lists, so a save killed from here on must leave no
    // manifest behind (the next run then starts cold).
    let manifest_path = dir.join("manifest.json");
    remove(&manifest_path)?;

    let kept = committed.map(|cp| {
        let range = cp.range(config);
        (range, windows::pair_window(range.end))
    });
    let pair_win = windows::pair_window(config.sim_end());
    let stems = file_stems(config);
    let stores = stores(study);
    for day in config.sim_range().days() {
        let day_dir = day_dir(dir, day);
        fs::create_dir_all(&day_dir).map_err(|e| storage_err("creating", &day_dir, &e))?;
        for (stem, store) in stems.iter().zip(stores.iter()) {
            let pair = stem == "pair";
            let is_kept = kept
                .is_some_and(|(range, win)| range.contains(day) && (!pair || win.contains(day)));
            if is_kept || (pair && !pair_win.contains(day)) {
                continue;
            }
            let path = day_dir.join(format!("{stem}.seg"));
            write_checkpoint_segment(&path, store.on_day(day).records())?;
        }
    }
    let pass_dir = dir.join("passes");
    fs::create_dir_all(&pass_dir).map_err(|e| storage_err("creating", &pass_dir, &e))?;
    for s in sections {
        let stem = pass_file_stem(&s.id);
        write(&pass_dir.join(format!("{stem}.md")), s.markdown.as_bytes())?;
        write(&pass_dir.join(format!("{stem}.sum")), s.summary.as_bytes())?;
    }
    let manifest = Json::obj()
        .with("checkpoint_schema", Json::UInt(1))
        .with("identity", identity_json(config))
        .with(
            "covered_extend_days",
            Json::UInt(u64::from(config.extend_days)),
        )
        .with(
            "counters",
            Json::obj()
                .with("offered", Json::UInt(study.datasets.offered))
                .with("users_seen", Json::UInt(study.users_seen))
                .with("users_sampled", Json::UInt(study.users_sampled)),
        )
        .with(
            "passes",
            Json::Arr(sections.iter().map(|s| Json::str(&*s.id)).collect()),
        );
    write(&manifest_path, manifest.render_pretty().as_bytes())?;

    // Prune pair files that slid out of the window only now, after the
    // commit, so the committed window's files always exist.
    for day in config.sim_range().days() {
        if !pair_win.contains(day) {
            remove(&day_dir(dir, day).join("pair.seg"))?;
        }
    }
    Ok(())
}

/// Reads one `u64` field out of a manifest object.
fn manifest_u64(obj: &Json, key: &str) -> Result<u64, StudyError> {
    match obj.get(key) {
        Some(Json::UInt(v)) => Ok(*v),
        _ => Err(storage_msg(format!(
            "state dir manifest is missing the `{key}` field"
        ))),
    }
}

/// Loads and validates the manifest, or `Ok(None)` for a fresh dir.
fn load_manifest(dir: &Path, config: &StudyConfig) -> Result<Option<Checkpoint>, StudyError> {
    let path = dir.join("manifest.json");
    if !path.exists() {
        return Ok(None);
    }
    let text = fs::read_to_string(&path).map_err(|e| storage_err("reading", &path, &e))?;
    let json = Json::parse(&text)
        .map_err(|e| storage_msg(format!("state dir manifest is not valid JSON: {e}")))?;
    let identity = json
        .get("identity")
        .ok_or_else(|| storage_msg("state dir manifest has no identity echo".to_string()))?;
    if *identity != identity_json(config) {
        return Err(storage_msg(
            "state dir was produced by a different configuration (seed, scale, windows, \
             sampling, or ablation differ); refusing to resume — use a fresh --state-dir"
                .to_string(),
        ));
    }
    let covered = manifest_u64(&json, "covered_extend_days")?;
    let covered_extend_days = u16::try_from(covered)
        .map_err(|_| storage_msg(format!("covered_extend_days {covered} is out of range")))?;
    let counters = json
        .get("counters")
        .ok_or_else(|| storage_msg("state dir manifest has no counters".to_string()))?;
    let passes = match json.get("passes") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|v| match v {
                Json::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    Ok(Some(Checkpoint {
        covered_extend_days,
        offered: manifest_u64(counters, "offered")?,
        users_seen: manifest_u64(counters, "users_seen")?,
        users_sampled: manifest_u64(counters, "users_sampled")?,
        passes,
    }))
}

/// Runs the requested config against a state directory: a cold dir gets
/// a full batch run (then a checkpoint); a warm dir is extended — only
/// the not-yet-covered suffix days are simulated and only the passes
/// whose windows cover them are re-run, everything else spliced from
/// the cached sections. The rendered documents are byte-identical to a
/// from-scratch run of the same config either way.
pub fn run(config: StudyConfig, state_dir: &Path) -> Result<IncrementalRun, StudyError> {
    let t0 = Instant::now();
    config.validate()?;
    let Some(cp) = load_manifest(state_dir, &config)? else {
        // Cold start: batch-run the requested range, checkpoint it all.
        let mut study = Study::run(config)?;
        let results = experiments::run_all(&mut study);
        let sections = render_sections(&results);
        let markdown = report::render_markdown(&results);
        let summary = report::render_summary(&results);
        save_checkpoint(&study, &sections, state_dir, None)?;
        let stats = study.report.incremental;
        return Ok(IncrementalRun {
            study,
            stats,
            markdown,
            summary,
        });
    };

    if cp.covered_extend_days > config.extend_days {
        return Err(storage_msg(format!(
            "state dir already covers extend_days {} but the run requests only {}; \
             incremental runs only move forward",
            cp.covered_extend_days, config.extend_days
        )));
    }
    let n = config.extend_days - cp.covered_extend_days;
    let old_range = cp.range(&config);
    let mut study = resume(config, &cp, state_dir, t0)?;
    let new_range = study.config.sim_range();
    let mut stats = IncrementalStat {
        days_reused: u64::from(old_range.num_days()),
        days_computed: u64::from(n),
        extend_wall: t0.elapsed(),
    };

    // Re-run exactly the passes the extension invalidates (plus any the
    // checkpoint never cached); splice the rest from the cached
    // sections in registry order.
    let to_run: Vec<&'static str> = experiments::experiment_ids()
        .filter(|&id| {
            (n > 0 && windows::invalidated_by_extension(id, old_range, new_range))
                || !cp.passes.iter().any(|p| p.as_str() == id)
        })
        .collect();
    let workers = study.config.effective_analysis_threads();
    let (recomputed, _windows_built) = experiments::run_selected(&study, &to_run, workers);

    let mut markdown = report::render_header();
    let mut summary = String::new();
    let mut sections = Vec::with_capacity(experiments::experiment_ids().count());
    for id in experiments::experiment_ids() {
        let (md, sum) = match recomputed.iter().find(|(rid, _)| *rid == id) {
            Some((_, out)) => (
                report::render_pass_section(id, out),
                report::render_summary_section(id, out),
            ),
            None => {
                let stem = pass_file_stem(id);
                let md_path = state_dir.join("passes").join(format!("{stem}.md"));
                let sum_path = state_dir.join("passes").join(format!("{stem}.sum"));
                (
                    fs::read_to_string(&md_path)
                        .map_err(|e| storage_err("reading", &md_path, &e))?,
                    fs::read_to_string(&sum_path)
                        .map_err(|e| storage_err("reading", &sum_path, &e))?,
                )
            }
        };
        markdown.push_str(&md);
        summary.push_str(&sum);
        sections.push(PassSection {
            id: id.to_string(),
            markdown: md,
            summary: sum,
        });
    }

    stats.extend_wall = t0.elapsed();
    study.report.incremental = stats;
    save_checkpoint(&study, &sections, state_dir, Some(&cp))?;
    Ok(IncrementalRun {
        study,
        stats,
        markdown,
        summary,
    })
}

/// Renders every pass's cached section pair from fresh results.
fn render_sections(results: &[(&'static str, ExperimentOutput)]) -> Vec<PassSection> {
    results
        .iter()
        .map(|(id, out)| PassSection {
            id: (*id).to_string(),
            markdown: report::render_pass_section(id, out),
            summary: report::render_summary_section(id, out),
        })
        .collect()
}
