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
//! # Checkpoints (`--state-dir`)
//!
//! A state directory persists the engine's frozen day deltas so a later
//! process can extend without re-simulating:
//!
//! ```text
//! state-dir/
//!   manifest.json        config identity, covered extension, counters,
//!                        cached-pass list (written last = commit point)
//!   days/day<idx>/<family>.seg   one checkpoint segment per family per
//!                        day, rows in canonical frozen order (request,
//!                        user, ip, prefix<len>…, abuse; pair only for
//!                        days inside the sliding pair window)
//!   passes/<id>.md|.sum  rendered markdown section + console summary
//!                        of each default-registry pass
//! ```
//!
//! Day deltas are immutable, so a save skips segments that already
//! exist; pair segments are pruned as the window slides. On resume, only
//! the passes whose read windows cover the new days (per
//! [`windows::invalidated_by_extension`], the single source of truth)
//! are re-run — everything else is spliced from the cached sections,
//! byte-identical because the calendar-anchored windows see the same
//! records in the same order.

use std::fs;
use std::path::Path;
use std::time::Instant;

use ipv6_study_analysis::windows;
use ipv6_study_behavior::abuse::AbuseSim;
use ipv6_study_behavior::population::Population;
use ipv6_study_netmodel::World;
use ipv6_study_obs::{IncrementalStat, Json};
use ipv6_study_telemetry::{
    read_checkpoint_segment, write_checkpoint_segment, ColumnSlice, DateRange, Families,
    FrozenDatasets, FrozenStore, RequestStore, SpillStats,
};

use crate::config::{ConfigError, StudyConfig};
use crate::driver::{self, DriverOutput, RunMetrics};
use crate::experiments::{self, ExperimentOutput};
use crate::faults::{FaultReport, StudyError};
use crate::report;
use crate::study::{build_report, open_spill, DayCountsCache, Study};

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

/// Every family of a frozen study as one column slice each, in freeze
/// order; `pair` is the caller's choice of pair-window rows.
fn family_rows<'a>(
    datasets: &'a FrozenDatasets,
    abuse: &'a FrozenStore,
    pair: ColumnSlice<'a>,
) -> Families<ColumnSlice<'a>> {
    let mut lengths: Vec<u8> = datasets.prefix_samples.keys().copied().collect();
    lengths.sort_unstable();
    Families {
        request: datasets.request_sample.all(),
        user: datasets.user_sample.all(),
        ip: datasets.ip_sample.all(),
        prefixes: lengths
            .into_iter()
            .map(|len| (len, datasets.prefix_sample(len).all()))
            .collect(),
        abuse: abuse.all(),
        pair,
    }
}

/// Copies a frozen column slice into a mutable row store, preserving
/// order.
fn append_slice(store: &mut RequestStore, rows: ColumnSlice<'_>) {
    for rec in rows.records() {
        store.push(rec);
    }
}

/// Extends `study` by `n` simulated days: runs the driver over only the
/// suffix days, then re-freezes old + suffix rows against the union
/// intern tables. See the module docs for why the result is
/// byte-identical to a from-scratch run of the longer range.
pub(crate) fn extend(study: Study, n: u16) -> Result<(Study, IncrementalStat), StudyError> {
    let t0 = Instant::now();
    let old_days = u64::from(study.config.sim_range().num_days());
    if n == 0 {
        let mut study = study;
        let stats = IncrementalStat {
            days_reused: old_days,
            days_computed: 0,
            extend_wall: t0.elapsed(),
        };
        study.report.incremental = stats;
        return Ok((study, stats));
    }
    let mut config = study.config.clone();
    config.extend_days = config.extend_days.saturating_add(n);
    config.validate()?;
    let old_end = study.config.sim_end();
    let suffix = DateRange::new(old_end + 1, config.sim_end());

    // Deterministic rebuild of the simulation inputs against the study's
    // (already ablated) world — identical to what the original run used,
    // because all of them derive from base-config fields.
    let pop = Population::new(&study.world, config.seed ^ 0x504F_5055, config.households);
    let samplers = config.sampling.resolve(pop.approx_users());
    let abuse_window = DateRange::new(config.full_range.start, config.full_range.end);
    let abuse = AbuseSim::new(
        &study.world,
        config.seed ^ 0x4142_5553,
        config.campaigns,
        config.households,
        abuse_window,
    )
    .with_detect_scale(config.ablation.detect_scale());

    let spill = open_spill(&config)?;
    let out = driver::execute_days(
        &config,
        &study.world,
        &pop,
        &abuse,
        &samplers,
        spill.as_ref(),
        suffix,
    )?;
    drop(spill);

    // Union merge: old canonical rows, then suffix canonical rows. Days
    // are timestamp-disjoint and every suffix day is later, so the
    // concatenation is already in canonical order and the stable
    // re-sort inside freeze is a verification pass, not a reorder.
    let t_merge = Instant::now();
    // The pair store slides: keep only the old window's days that remain
    // inside the new last-four-days window (the suffix run routed its
    // rows against the *new* window already).
    let pair_win = windows::pair_window(config.sim_end());
    let old_pair = if pair_win.start <= old_end {
        study
            .pair_store
            .in_range(DateRange::new(pair_win.start, old_end))
    } else {
        ColumnSlice::empty(study.pair_store.tables())
    };
    let old = family_rows(&study.datasets, &study.abuse_store, old_pair);
    let new = family_rows(&out.datasets, &out.abuse_store, out.pair_store.all());
    let families = old.zip(new).map(|(old, new)| {
        let mut store = RequestStore::new();
        append_slice(&mut store, old);
        append_slice(&mut store, new);
        store
    });
    let offered = study.datasets.offered + out.datasets.offered;
    let merge_wall = t_merge.elapsed();

    // Re-freeze against the union tables. The distinct-key sets equal
    // the longer run's, so these tables — and therefore every dense id —
    // are bit-identical to a from-scratch build.
    let t_sort = Instant::now();
    let frozen = driver::freeze_rows(families, config.threads)?;
    let intern_wall = frozen.intern_wall;
    let (datasets, abuse_store, pair_store) = frozen.into_stores(samplers, offered);
    let sort_wall = t_sort.elapsed();

    // Carry the per-day trie cache for days still inside the sliding
    // pair window; DayCounts reads raw keys only, so re-encoding does
    // not invalidate them.
    let carried = study.take_day_counts(pair_win);

    let mut metrics = out.metrics;
    metrics.merge_wall += merge_wall;
    metrics.sort_wall += sort_wall;
    metrics.intern_wall += intern_wall;
    metrics.total_wall = t0.elapsed();
    let union_out = DriverOutput {
        datasets,
        abuse_store,
        pair_store,
        metrics,
        faults: out.faults,
        spill_stats: out.spill_stats,
        users_seen: study.users_seen + out.users_seen,
        users_sampled: study.users_sampled + out.users_sampled,
    };
    let mut report = build_report(&config, study.approx_users, &union_out);
    let stats = IncrementalStat {
        days_reused: old_days,
        days_computed: u64::from(n),
        extend_wall: t0.elapsed(),
    };
    report.incremental = stats;

    let DriverOutput {
        datasets,
        abuse_store,
        pair_store,
        metrics,
        faults,
        spill_stats: _,
        users_seen,
        users_sampled,
    } = union_out;
    let extended = Study {
        config,
        world: study.world,
        datasets,
        abuse_store,
        pair_store,
        labels: study.labels,
        approx_users: study.approx_users,
        users_seen,
        users_sampled,
        metrics,
        faults,
        report,
        day_counts: DayCountsCache::default(),
    };
    extended.seed_day_counts(carried);
    Ok((extended, stats))
}

/// The family names checkpointed per day, in a fixed order.
fn family_names(config: &StudyConfig) -> Vec<String> {
    let mut names = vec!["request".to_string(), "user".to_string(), "ip".to_string()];
    for &len in &config.prefix_lengths {
        names.push(format!("prefix{len}"));
    }
    names.push("abuse".to_string());
    names
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

/// Writes (or refreshes) the checkpoint for `study` in `dir`. Day
/// deltas are immutable, so existing segments are kept as-is; pair
/// segments outside the sliding window are pruned; the manifest is
/// written last as the commit point.
fn save_checkpoint(study: &Study, sections: &[PassSection], dir: &Path) -> Result<(), StudyError> {
    let days_dir = dir.join("days");
    fs::create_dir_all(&days_dir).map_err(|e| storage_err("creating", &days_dir, &e))?;
    let pair_win = windows::pair_window(study.config.sim_end());
    let families = family_names(&study.config);
    for day in study.config.sim_range().days() {
        let day_dir = days_dir.join(format!("day{:03}", day.index()));
        fs::create_dir_all(&day_dir).map_err(|e| storage_err("creating", &day_dir, &e))?;
        for name in &families {
            let path = day_dir.join(format!("{name}.seg"));
            if path.exists() {
                continue;
            }
            let rows = match name.as_str() {
                "request" => study.datasets().request_sample.on_day(day),
                "user" => study.datasets().user_sample.on_day(day),
                "ip" => study.datasets().ip_sample.on_day(day),
                "abuse" => study.abuse_store().on_day(day),
                prefix => {
                    let len: u8 = prefix
                        .strip_prefix("prefix")
                        .and_then(|l| l.parse().ok())
                        .expect("family_names emits only known families");
                    study.datasets().prefix_sample(len).on_day(day)
                }
            };
            let recs: Vec<_> = rows.records().collect();
            write_checkpoint_segment(&path, &recs).map_err(StudyError::Spill)?;
        }
        let pair_path = day_dir.join("pair.seg");
        if pair_win.contains(day) {
            if !pair_path.exists() {
                let recs: Vec<_> = study.pair_store().on_day(day).records().collect();
                write_checkpoint_segment(&pair_path, &recs).map_err(StudyError::Spill)?;
            }
        } else if pair_path.exists() {
            fs::remove_file(&pair_path).map_err(|e| storage_err("pruning", &pair_path, &e))?;
        }
    }
    let pass_dir = dir.join("passes");
    fs::create_dir_all(&pass_dir).map_err(|e| storage_err("creating", &pass_dir, &e))?;
    for s in sections {
        let stem = pass_file_stem(&s.id);
        let md = pass_dir.join(format!("{stem}.md"));
        fs::write(&md, &s.markdown).map_err(|e| storage_err("writing", &md, &e))?;
        let sum = pass_dir.join(format!("{stem}.sum"));
        fs::write(&sum, &s.summary).map_err(|e| storage_err("writing", &sum, &e))?;
    }
    let manifest = Json::obj()
        .with("checkpoint_schema", Json::UInt(1))
        .with("identity", identity_json(&study.config))
        .with(
            "covered_extend_days",
            Json::UInt(u64::from(study.config.extend_days)),
        )
        .with(
            "counters",
            Json::obj()
                .with("offered", Json::UInt(study.datasets().offered))
                .with("users_seen", Json::UInt(study.users_seen))
                .with("users_sampled", Json::UInt(study.users_sampled)),
        )
        .with(
            "passes",
            Json::Arr(sections.iter().map(|s| Json::str(&*s.id)).collect()),
        );
    let path = dir.join("manifest.json");
    fs::write(&path, manifest.render_pretty()).map_err(|e| storage_err("writing", &path, &e))?;
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

/// Reconstructs a frozen [`Study`] from persisted day deltas — no
/// simulation. The per-day segments hold rows in canonical frozen
/// order, days are timestamp-disjoint, and the intern tables are a pure
/// function of the key sets, so the rebuilt stores are bit-identical to
/// the ones the original run froze.
fn rebuild_study(config: StudyConfig, cp: &Checkpoint, dir: &Path) -> Result<Study, StudyError> {
    config.validate()?;
    let mut world = World::sized(config.seed, config.households);
    config.ablation.apply_to_world(&mut world);
    let pop = Population::new(&world, config.seed ^ 0x504F_5055, config.households);
    let approx_users = pop.approx_users();
    let samplers = config.sampling.resolve(approx_users);
    let abuse_window = DateRange::new(config.full_range.start, config.full_range.end);
    let labels = AbuseSim::new(
        &world,
        config.seed ^ 0x4142_5553,
        config.campaigns,
        config.households,
        abuse_window,
    )
    .with_detect_scale(config.ablation.detect_scale())
    .labels();

    let mut families: Families<RequestStore> = Families::new(&config.prefix_lengths);
    for day in config.sim_range().days() {
        let day_dir = dir.join("days").join(format!("day{:03}", day.index()));
        for name in family_names(&config) {
            let path = day_dir.join(format!("{name}.seg"));
            let rows = read_checkpoint_segment(&path).map_err(StudyError::Spill)?;
            let store = match name.as_str() {
                "request" => &mut families.request,
                "user" => &mut families.user,
                "ip" => &mut families.ip,
                "abuse" => &mut families.abuse,
                prefix => {
                    let len: u8 = prefix
                        .strip_prefix("prefix")
                        .and_then(|l| l.parse().ok())
                        .expect("family_names emits only known families");
                    &mut families
                        .prefixes
                        .iter_mut()
                        .find(|(l, _)| *l == len)
                        .expect("Families::new creates every configured length")
                        .1
                }
            };
            for rec in rows {
                store.push(rec);
            }
        }
        let pair_path = day_dir.join("pair.seg");
        if pair_path.exists() {
            for rec in read_checkpoint_segment(&pair_path).map_err(StudyError::Spill)? {
                families.pair.push(rec);
            }
        }
    }
    let (datasets, abuse_store, pair_store) =
        driver::freeze_rows(families, config.threads)?.into_stores(samplers, cp.offered);

    let metrics = RunMetrics {
        threads: config.threads,
        shards: Vec::new(),
        plan_wall: Default::default(),
        sim_wall: Default::default(),
        merge_wall: Default::default(),
        sort_wall: Default::default(),
        intern_wall: Default::default(),
        total_wall: Default::default(),
        peak_store_bytes: 0,
    };
    let faults = FaultReport {
        policy: config.failure_policy,
        failures: Vec::new(),
        io_retries: 0,
        checksum_failures: 0,
    };
    let out = DriverOutput {
        datasets,
        abuse_store,
        pair_store,
        metrics,
        faults,
        spill_stats: SpillStats::default(),
        users_seen: cp.users_seen,
        users_sampled: cp.users_sampled,
    };
    let report = build_report(&config, approx_users, &out);
    let DriverOutput {
        datasets,
        abuse_store,
        pair_store,
        metrics,
        faults,
        spill_stats: _,
        users_seen,
        users_sampled,
    } = out;
    Ok(Study {
        config,
        world,
        datasets,
        abuse_store,
        pair_store,
        labels,
        approx_users,
        users_seen,
        users_sampled,
        metrics,
        faults,
        report,
        day_counts: DayCountsCache::default(),
    })
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
        save_checkpoint(&study, &sections, state_dir)?;
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
    let mut covered_config = config;
    covered_config.extend_days = cp.covered_extend_days;
    let base = rebuild_study(covered_config, &cp, state_dir)?;
    let old_range = base.config.sim_range();
    let (mut study, mut stats) = extend(base, n)?;
    let new_range = study.config.sim_range();

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
    save_checkpoint(&study, &sections, state_dir)?;
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
