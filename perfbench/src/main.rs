//! Runs one benchmark workload (or both) and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_spill|extend_day|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--tiny` runs every workload at `StudyConfig::tiny()` scale; the
//! package tests use it to drive the whole runner in seconds.
//!
//! Standard error gets a table of every metric with its unit and sample
//! count, the failure share, and (traced runs) the recorded spans. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `--workload all` runs each workload in a child process
//! of its own, so each peak-memory reading covers one workload only.

use std::process::{Command, ExitCode, Stdio};

use ipv6_user_study::obs::Json;
use perfbench::spec::{self, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Args};

const USAGE: &str = "usage: perfbench --workload <batch_spill|extend_day|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !spec::WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("unknown workload"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(bad("expected a positive integer")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// The result line: every reading with its unit.
fn result_json(correct: bool, attempted: u64, failed: u64, readings: &[(String, f64)]) -> String {
    let mut metrics = Json::obj();
    for (name, value) in readings {
        metrics.set(
            name,
            Json::obj().with("value", Json::num(*value)).with(
                "unit",
                Json::str(unit_of(name.rsplit(':').next().unwrap_or(name))),
            ),
        );
    }
    Json::obj()
        .with("correct", Json::Bool(correct))
        .with("attempted", Json::UInt(attempted))
        .with("failed", Json::UInt(failed))
        .with("metrics", metrics)
        .render()
}

fn run_one(args: &Args) -> ExitCode {
    let out = match workloads::run(args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in out.spans.lines() {
        eprintln!("span {line}");
    }
    for note in &out.notes {
        eprintln!("{}: {note}", args.workload);
    }
    for e in &out.errors {
        eprintln!("{}: FAILED {e}", args.workload);
    }
    eprintln!(
        "{}: seed {} trace {}: {} operations, {} failed, failed_share {:.4} ratio",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for r in &out.readings {
        eprintln!(
            "{}: {:<34} {:>16.6} {:<9} n={}",
            args.workload,
            r.name,
            r.value,
            unit_of(&r.name),
            r.samples
        );
    }
    let readings: Vec<(String, f64)> = out
        .readings
        .iter()
        .map(|r| (r.name.clone(), r.value))
        .collect();
    println!(
        "{}",
        result_json(out.failed == 0, out.attempted.max(1), out.failed, &readings)
    );
    ExitCode::SUCCESS
}

/// Runs every workload in its own child process and prints one combined
/// result, metrics named `<workload>:<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut readings = Vec::new();
    for w in spec::WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(args.tiny.then_some("--tiny"))
            .stderr(Stdio::inherit())
            .output();
        let parsed = child.ok().filter(|o| o.status.success()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            Json::parse(text.lines().last()?).ok()
        });
        let Some(result) = parsed else {
            eprintln!("perfbench: workload {w} did not report");
            return ExitCode::FAILURE;
        };
        correct &= result.get("correct") == Some(&Json::Bool(true));
        attempted += json_u64(result.get("attempted"));
        failed += json_u64(result.get("failed"));
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(json_f64) {
                    readings.push((format!("{w}:{name}"), v));
                }
            }
        }
    }
    println!("{}", result_json(correct, attempted, failed, &readings));
    ExitCode::SUCCESS
}

fn json_u64(v: Option<&Json>) -> u64 {
    match v {
        Some(Json::UInt(n)) => *n,
        _ => 0,
    }
}

fn json_f64(v: &Json) -> Option<f64> {
    match v {
        Json::UInt(n) => Some(*n as f64),
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
