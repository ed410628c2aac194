//! The observability layer's two contracts:
//!
//! 1. **Schema stability** — a fixed-seed study produces a
//!    `BENCH_run.json` whose *field set* is pinned (timing values are
//!    free to vary run to run, the paths are not), and the document
//!    never contains `Infinity` or `NaN`.
//! 2. **Passivity** — instrumentation cannot perturb the simulation:
//!    runs with instrumentation on and off yield byte-identical
//!    datasets.

use ipv6_user_study::experiments::run_all;
use ipv6_user_study::obs::Json;
use ipv6_user_study::stats::hash::StableHasher;
use ipv6_user_study::telemetry::ColumnSlice;
use ipv6_user_study::{Study, StudyConfig};

fn instrumented_tiny_run() -> Study {
    let mut cfg = StudyConfig::tiny();
    cfg.instrument = true;
    let mut study = Study::run(cfg).expect("tiny preset is valid");
    let _ = run_all(&mut study);
    study
}

/// Every field the acceptance contract requires in `BENCH_run.json`.
const REQUIRED_PATHS: &[&str] = &[
    "$.schema_version",
    "$.enabled",
    "$.config.seed",
    "$.config.households",
    "$.config.threads",
    "$.sim.threads",
    "$.sim.phases.plan",
    "$.sim.phases.sim",
    "$.sim.phases.merge",
    "$.sim.phases.sort",
    "$.sim.phases.sort_intern",
    "$.sim.phases.total",
    "$.sim.shards[].label",
    "$.sim.shards[].records",
    "$.sim.shards[].wall_secs",
    "$.sim.shards[].records_per_sec",
    "$.sim.total_records",
    "$.sim.records_retained",
    "$.sim.records_per_sec",
    "$.sim.store_bytes",
    "$.sim.bytes_per_record",
    "$.sim.peak_store_bytes",
    "$.analysis.index_bytes",
    "$.analysis.figures[].id",
    "$.analysis.figures[].wall_secs",
    "$.analysis.figures[].input_records",
    "$.analysis.total_wall_secs",
    "$.analysis.phases.index",
    "$.analysis.phases.passes",
    "$.analysis.phases.total",
    "$.analysis.scanned_records",
    "$.analysis.records_per_sec",
    "$.analysis.index_records",
    "$.analysis.index_records_per_sec",
    "$.analysis.incremental.days_reused",
    "$.analysis.incremental.days_computed",
    "$.analysis.incremental.extend_wall_secs",
    "$.config.analysis_threads",
    "$.actioning[].granularity",
    "$.actioning[].wall_secs",
    "$.actioning[].units_scored",
    "$.actioning[].units_evaluated",
    "$.actioning_sweep.build_wall_secs",
    "$.actioning_sweep.read_wall_secs",
    "$.actioning_sweep.total_wall_secs",
    "$.actioning_sweep.days",
    "$.actioning_sweep.trie_nodes",
    "$.config.failure_policy",
    "$.config.max_shard_retries",
    "$.config.storage",
    "$.config.segment_rows",
    "$.config.sampling",
    "$.faults.policy",
    "$.faults.failed_shards[]",
    "$.faults.retries_total",
    "$.faults.dropped_shards",
    "$.faults.records_lost",
    "$.faults.io_retries",
    "$.faults.checksum_failures",
    "$.sim.spill_bytes_verified",
    "$.config.disk_budget_bytes",
];

/// The per-shard fault fields, present whenever a shard failed (pinned by
/// a fault-injected run below; a clean run's `failed_shards` is empty).
const FAULT_SHARD_PATHS: &[&str] = &[
    "$.faults.failed_shards[].shard",
    "$.faults.failed_shards[].label",
    "$.faults.failed_shards[].attempts",
    "$.faults.failed_shards[].retries",
    "$.faults.failed_shards[].dropped",
    "$.faults.failed_shards[].records_lost",
    "$.faults.failed_shards[].kind",
    "$.faults.failed_shards[].panic_msg",
];

#[test]
fn bench_report_schema_is_stable_and_finite() {
    let study = instrumented_tiny_run();
    let json = study.report().to_json();
    let paths = json.schema_paths();
    for required in REQUIRED_PATHS {
        assert!(
            paths.iter().any(|p| p == required),
            "missing {required} in schema: {paths:#?}"
        );
    }
    // Schema v8 stores every number once: the `metrics` section, which
    // repeated the typed fields, is gone.
    assert_eq!(json.get("schema_version"), Some(&Json::UInt(8)));
    assert!(
        !paths.iter().any(|p| p.starts_with("$.metrics")),
        "v8 has no metrics section: {paths:#?}"
    );
    assert_eq!(
        json.get("sim").and_then(|sim| sim.get("records_retained")),
        Some(&Json::UInt(study.datasets().retained())),
        "sim.records_retained counts the frozen sampled rows"
    );

    // Values vary run to run; the field set must not.
    let again = instrumented_tiny_run();
    assert_eq!(
        paths,
        again.report().to_json().schema_paths(),
        "report schema differs between identical runs"
    );

    // The acceptance contract: no Infinity/NaN anywhere in the document.
    let text = study.report().to_json_string();
    assert!(!text.contains("Infinity"), "report contains Infinity");
    assert!(!text.contains("NaN"), "report contains NaN");
}

#[test]
fn faulty_run_pins_the_per_shard_fault_schema() {
    let mut cfg = StudyConfig::tiny();
    cfg.instrument = true;
    cfg.failure_policy = ipv6_user_study::FailurePolicy::Retry;
    cfg.faults = Some(ipv6_user_study::FaultInjector::default().fail_shard(0, 1));
    let study = Study::run(cfg).expect("one retry recovers the shard");
    assert_eq!(study.faults().total_retries(), 1);
    let paths = study.report().to_json().schema_paths();
    for required in FAULT_SHARD_PATHS {
        assert!(
            paths.iter().any(|p| p == required),
            "missing {required} in schema: {paths:#?}"
        );
    }
    let text = study.report().to_json_string();
    assert!(text.contains("\"policy\":"), "faults section names policy");
    assert!(!text.contains("Infinity") && !text.contains("NaN"));
}

#[test]
fn report_covers_every_experiment_and_all_sim_records() {
    let study = instrumented_tiny_run();
    assert_eq!(study.report().figures.len(), 20, "one stat per experiment");
    assert!(study.report().figures.iter().any(|f| f.input_records > 0));
    assert_eq!(
        study.report().actioning.len(),
        4,
        "one stat per granularity"
    );
    assert_eq!(
        study.report().actioning_sweep.days,
        4,
        "one aggregation-trie pair per pooled day"
    );
    assert!(study.report().actioning_sweep.trie_nodes > 0);
    assert_eq!(
        study.report().total_records(),
        study.metrics().total_records(),
        "shard stats must account for every simulated record"
    );
    assert!(study.report().phase_wall("sim").is_some());
}

/// Order-sensitive digest of a record sequence.
fn digest(records: ColumnSlice<'_>) -> u64 {
    let mut h = StableHasher::new(0x4f42_5331); // "OBS1"
    for r in records.records() {
        h.write_u64(u64::from(r.ts.secs()))
            .write_u64(r.user.raw())
            .write_u64(r.ip_key())
            .write_u64(u64::from(r.asn.0));
    }
    h.finish()
}

#[test]
fn instrumentation_leaves_datasets_byte_identical() {
    let run = |instrument: bool| {
        let mut cfg = StudyConfig::tiny();
        cfg.instrument = instrument;
        Study::run(cfg).expect("tiny preset is valid")
    };
    let on = run(true);
    let off = run(false);
    assert!(on.report().enabled);
    assert!(!off.report().enabled);

    assert_eq!(on.datasets().offered, off.datasets().offered);
    assert_eq!(
        on.datasets().user_sample.all(),
        off.datasets().user_sample.all()
    );
    assert_eq!(
        digest(on.datasets().request_sample.all()),
        digest(off.datasets().request_sample.all())
    );
    assert_eq!(
        digest(on.datasets().ip_sample.all()),
        digest(off.datasets().ip_sample.all())
    );
    assert_eq!(
        digest(on.abuse_store().all()),
        digest(off.abuse_store().all())
    );
    assert_eq!(
        digest(on.pair_store().all()),
        digest(off.pair_store().all())
    );
    let lengths = on.config().prefix_lengths.clone();
    for &l in &lengths {
        assert_eq!(
            digest(on.datasets().prefix_sample(l).all()),
            digest(off.datasets().prefix_sample(l).all()),
            "prefix /{l} digest"
        );
    }
}
