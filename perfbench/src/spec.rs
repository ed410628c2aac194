//! The benchmark's metric catalogue: every metric it prints, with its
//! unit, which direction is better, and — for per-layer metrics — which
//! end-to-end metric on which workload the layer number should move.
//!
//! `BENCHMARK.json` at the repository root declares the same names; the
//! package tests keep the two in lockstep.

/// The two workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 2] = ["batch_spill", "extend_day"];

/// One printed metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// `(end-to-end metric, workload)` pairs this per-layer metric should
    /// move; empty for end-to-end metrics.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: "lower",
        moves: &[],
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        moves,
    }
}

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("wall_s", "s"),
    e2e("setup_s", "s"),
    e2e("cpu_s", "s"),
    e2e("peak_rss_mb", "MiB"),
    e2e("disk_mb", "MiB"),
];

// `batch_spill`'s set-up is one in-memory batch operation, so whatever
// the in-memory path spends (simulation, freeze, analysis) moves its
// `setup_s` as well.
const BATCH: &[(&str, &str)] = &[("wall_s", "batch_spill"), ("setup_s", "batch_spill")];
const BATCH_CPU: &[(&str, &str)] = &[
    ("wall_s", "batch_spill"),
    ("cpu_s", "batch_spill"),
    ("setup_s", "batch_spill"),
];
const FREEZE: &[(&str, &str)] = &[
    ("wall_s", "batch_spill"),
    ("cpu_s", "batch_spill"),
    ("setup_s", "batch_spill"),
    ("wall_s", "extend_day"),
];
const SETUP_MODEL: &[(&str, &str)] = &[
    ("wall_s", "batch_spill"),
    ("setup_s", "batch_spill"),
    ("setup_s", "extend_day"),
];
const SPILL: &[(&str, &str)] = &[("wall_s", "batch_spill"), ("disk_mb", "batch_spill")];
const ANALYSIS: &[(&str, &str)] = &[("wall_s", "batch_spill"), ("setup_s", "batch_spill")];
const ANALYSIS_REUSED: &[(&str, &str)] = &[
    ("wall_s", "batch_spill"),
    ("setup_s", "batch_spill"),
    ("wall_s", "extend_day"),
];
const TRIES: &[(&str, &str)] = &[("wall_s", "batch_spill"), ("wall_s", "extend_day")];
const ALL_WALL: &[(&str, &str)] = &[("wall_s", "batch_spill"), ("wall_s", "extend_day")];
const MARKDOWN: &[(&str, &str)] = &[("disk_mb", "batch_spill"), ("disk_mb", "extend_day")];
const EXTEND: &[(&str, &str)] = &[("wall_s", "extend_day")];
const EXTEND_DISK: &[(&str, &str)] = &[("wall_s", "extend_day"), ("disk_mb", "extend_day")];

/// Per-layer metrics, printed with `--trace 1` on every workload. A layer
/// a workload does not exercise (the incremental engine on `batch_spill`,
/// spilling on `extend_day`) reads 0 there.
pub const PER_LAYER: [MetricSpec; 59] = [
    layer("driver.plan_s", "s", "lower", BATCH),
    layer("driver.sim_s", "s", "lower", BATCH_CPU),
    layer("driver.merge_s", "s", "lower", FREEZE),
    layer("driver.freeze_s", "s", "lower", FREEZE),
    layer("driver.shards", "count", "higher", BATCH),
    layer("driver.shard_p50_s", "s", "lower", BATCH),
    layer("driver.shard_max_s", "s", "lower", BATCH),
    layer("driver.parallel_eff", "ratio", "higher", BATCH),
    layer("driver.records", "count", "lower", BATCH_CPU),
    layer("driver.sim_records_per_s", "1/s", "higher", BATCH),
    layer(
        "driver.peak_store_mb",
        "MiB",
        "lower",
        &[("peak_rss_mb", "batch_spill")],
    ),
    layer("netmodel.world_s", "s", "lower", SETUP_MODEL),
    layer("behavior.population_s", "s", "lower", SETUP_MODEL),
    layer(
        "telemetry.store_mb",
        "MiB",
        "lower",
        &[
            ("peak_rss_mb", "batch_spill"),
            ("peak_rss_mb", "extend_day"),
        ],
    ),
    layer(
        "telemetry.bytes_per_record",
        "B/record",
        "lower",
        &[("peak_rss_mb", "batch_spill")],
    ),
    layer("telemetry.spill_mb", "MiB", "lower", SPILL),
    layer("telemetry.spill_mb_per_s", "MiB/s", "higher", SPILL),
    layer("analysis.index_s", "s", "lower", ANALYSIS),
    layer("analysis.index_records", "count", "lower", ANALYSIS),
    layer(
        "analysis.index_mb",
        "MiB",
        "lower",
        &[("wall_s", "batch_spill"), ("peak_rss_mb", "batch_spill")],
    ),
    layer("analysis.pool_s", "s", "lower", ANALYSIS),
    layer("analysis.pool_eff", "ratio", "higher", ANALYSIS),
    layer("analysis.pass_s.F1", "s", "lower", ANALYSIS_REUSED),
    layer("analysis.pass_s.T1", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.T2-F12", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.C4.4", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.F2", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.F3", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.O5.1", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.F4", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.F5", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.F6", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.F7", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.F8", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.O6.1", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.F9", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.F10", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.O6.2", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.F11", "s", "lower", ANALYSIS_REUSED),
    layer("analysis.pass_s.S7.2", "s", "lower", ANALYSIS_REUSED),
    layer("analysis.pass_s.X8.1", "s", "lower", ANALYSIS),
    layer("analysis.pass_s.ApxA", "s", "lower", ANALYSIS),
    layer("secapp.trie_build_s", "s", "lower", TRIES),
    layer("secapp.trie_nodes", "count", "lower", TRIES),
    layer("report.render_s", "s", "lower", ALL_WALL),
    layer("report.md_bytes", "B", "lower", MARKDOWN),
    layer("incremental.resume_s", "s", "lower", EXTEND),
    layer("incremental.days_reused", "count", "higher", EXTEND),
    layer("incremental.days_computed", "count", "lower", EXTEND),
    layer("incremental.suffix_sim_s", "s", "lower", EXTEND),
    layer("incremental.rebuild_merge_s", "s", "lower", EXTEND),
    layer("incremental.rebuild_freeze_s", "s", "lower", EXTEND),
    layer("incremental.rerun_s", "s", "lower", EXTEND),
    layer("incremental.extend_in_memory_s", "s", "lower", EXTEND),
    layer("incremental.state_mb", "MiB", "lower", EXTEND_DISK),
    layer("incremental.unattributed_s", "s", "lower", EXTEND),
    layer("obs.trace_overhead_s", "s", "lower", ALL_WALL),
    layer("obs.unattributed_s", "s", "lower", ALL_WALL),
    layer("obs.coverage", "ratio", "higher", ALL_WALL),
];

/// A registry pass id as a metric-name suffix: characters outside the
/// name charset (`T2/F12`'s slash) become `-`.
pub fn sanitize(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
