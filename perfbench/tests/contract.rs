//! The benchmark's own contract: `BENCHMARK.json` and the runner agree on
//! every metric, names stay in the allowed charset, every per-layer metric
//! says what it should move, and the runner really prints what it
//! declares (driven end to end at tiny scale).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use ipv6_user_study::experiments;
use ipv6_user_study::obs::Json;
use perfbench::spec::{self, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::workloads::PASSES;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn arr<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    match json.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn str_field<'a>(json: &'a Json, key: &str) -> &'a str {
    match json.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn keys(json: &Json) -> Vec<&str> {
    match json {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// The declared metrics of one section as (name, unit, better).
fn declared(section: &str) -> Vec<(String, String, String)> {
    let json = benchmark_json();
    arr(&json, section)
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
                str_field(m, "better").to_string(),
            )
        })
        .collect()
}

fn catalogue(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
    specs
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
        .collect()
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys() {
    let json = benchmark_json();
    assert_eq!(
        keys(&json),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(arr(&json, "paths"), [Json::str("perfbench")]);
    for e in arr(&json, "end_to_end") {
        assert_eq!(keys(e), ["name", "unit", "better", "bound"]);
    }
    for m in arr(&json, "per_layer") {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
}

#[test]
fn declared_metrics_match_the_runner_catalogue() {
    assert_eq!(declared("end_to_end"), catalogue(&END_TO_END));
    assert_eq!(declared("per_layer"), catalogue(&PER_LAYER));
    let json = benchmark_json();
    let workloads: Vec<&str> = arr(&json, "workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            str_field(w, "name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_name_and_unit_is_in_the_allowed_charset() {
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    };
    let mut seen = BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(spec::valid_name(m.name), "bad metric name {}", m.name);
        assert!(unit_ok(m.unit), "bad unit {} of {}", m.unit, m.name);
        assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        assert!(seen.insert(m.name), "duplicate metric {}", m.name);
    }
    for w in WORKLOADS {
        assert!(spec::valid_name(w) && seen.insert(w), "bad workload {w}");
    }
}

#[test]
fn every_per_layer_metric_names_what_it_moves() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for m in PER_LAYER {
        assert!(!m.moves.is_empty(), "{} names nothing it moves", m.name);
        for (target, workload) in m.moves {
            assert!(e2e.contains(target), "{}: unknown metric {target}", m.name);
            assert!(
                WORKLOADS.contains(workload),
                "{}: unknown workload {workload}",
                m.name
            );
        }
    }
    for m in END_TO_END {
        assert!(m.moves.is_empty());
    }
}

#[test]
fn every_registry_pass_has_a_per_layer_metric() {
    let ids: Vec<&str> = PASSES.iter().map(|&(id, _)| id).collect();
    assert_eq!(ids, experiments::experiment_ids().collect::<Vec<_>>());
    for id in ids {
        let name = format!("analysis.pass_s.{}", spec::sanitize(id));
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "no per-layer metric {name}"
        );
    }
    assert_eq!(spec::sanitize("T2/F12"), "T2-F12");
}

/// Runs the benchmark binary in a scratch working directory and returns
/// (exit success, stdout).
fn run_bench(dir: &Path, args: &[&str]) -> (bool, String) {
    std::fs::create_dir_all(dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn runner_prints_exactly_the_declared_metrics_and_checks_pass() {
    for workload in WORKLOADS {
        for (trace, specs) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let dir = scratch(&format!("run-{workload}-{trace}"));
            let line = format!("--workload {workload} --seed 3 --seconds 1 --trace {trace} --tiny");
            let args: Vec<&str> = line.split_whitespace().collect();
            let (ok, stdout) = run_bench(&dir, &args);
            assert!(ok, "{workload} trace {trace} failed");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("result line is JSON");
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{last}");
            assert_eq!(result.get("failed"), Some(&Json::UInt(0)));
            let metrics = result.get("metrics").expect("metrics");
            let printed: Vec<&str> = keys(metrics);
            let want: Vec<&str> = specs.iter().map(|m| m.name).collect();
            assert_eq!(printed, want, "{workload} trace {trace}");
            for m in specs {
                let entry = metrics.get(m.name).expect("printed");
                assert_eq!(keys(entry), ["value", "unit"]);
                assert_eq!(entry.get("unit"), Some(&Json::str(m.unit)));
                // End-to-end metrics are never 0 (the bounds are shares of
                // their medians).
                let value = match entry.get("value") {
                    Some(Json::Num(v)) => *v,
                    Some(Json::UInt(v)) => *v as f64,
                    other => panic!("{workload} {}: {other:?}", m.name),
                };
                assert!(trace == "1" || value > 0.0, "{workload} {} reads 0", m.name);
            }
            // Hermetic: the scratch directory is gone after the run.
            assert!(!dir.join(perfbench::probe::SCRATCH_ROOT).exists());
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let dir = scratch("bad-args");
    for line in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload batch_spill --seed x --seconds 1 --trace 0",
        "--workload batch_spill --seed 1 --seconds 0 --trace 0",
        "--workload batch_spill --seed 1 --seconds 1 --trace 2",
        "--workload batch_spill --seed 1 --seconds 1",
    ] {
        let args: Vec<&str> = line.split_whitespace().collect();
        let (ok, stdout) = run_bench(&dir, &args);
        assert!(!ok, "{line} should fail");
        assert!(stdout.is_empty(), "{line} printed {stdout}");
    }
}
