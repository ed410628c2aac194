//! Compares two `BENCH_run.json` documents against gate rules — the CI
//! perf gate.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ipv6-study-core --bin bench_diff -- \
//!     baseline.json current.json [--gate 'PATH OP BOUND [FLOOR]']...
//! ```
//!
//! `PATH` is a dotted path of object keys into the report (for example
//! `analysis.phases.total`), and `OP` is one of:
//!
//! - `rel PCT [FLOOR]` — fails when the current value exceeds the
//!   baseline by more than `PCT` percent *and* by more than `FLOOR`
//!   (absolute, in the path's own unit; default 0), so sub-noise blips
//!   on tiny timing baselines never fail. Byte counts are deterministic
//!   and take no floor.
//! - `max BOUND` — fails when the current value exceeds `BOUND`.
//! - `min BOUND` — fails when the current value is below `BOUND`.
//!
//! No gate applies by default; a CI lane lists every gate it wants, with
//! the margin behind each bound documented next to it in
//! `.github/workflows/ci.yml`. A path missing from either document, or a
//! `rel` gate over a zero baseline, fails its gate. Output is the
//! per-figure analysis wall diff, one line per gate, and the incremental
//! engine's day-reuse split.
//!
//! Exit 0 when every gate passes, 1 when any fails, 2 on bad usage (a
//! malformed gate, including a non-finite bound or floor) or an
//! unreadable document. Timing comparisons only make sense between runs
//! of the same scale and machine class.

use ipv6_study_obs::Json;

const USAGE: &str = "usage: bench_diff <baseline.json> <current.json> \
                     [--gate 'PATH rel PCT [FLOOR]' | 'PATH max BOUND' | 'PATH min BOUND']...";

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// What a gate compares, with its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Growth over the baseline, in percent, past an absolute floor.
    Rel { pct: f64, floor: f64 },
    /// Ceiling on the current value.
    Max(f64),
    /// Floor on the current value.
    Min(f64),
}

/// One gate rule: a report path and the check applied to it.
#[derive(Debug, Clone, PartialEq)]
struct Gate {
    path: String,
    op: Op,
}

/// A finite number, or an error naming the field.
fn finite(field: &str, text: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(format!("{field} `{text}` is not a finite number")),
    }
}

impl Gate {
    /// Parses `PATH OP BOUND [FLOOR]`; only `rel` takes a floor.
    fn parse(spec: &str) -> Result<Gate, String> {
        let fields: Vec<&str> = spec.split_whitespace().collect();
        let op = match fields.as_slice() {
            [_, "rel", pct] | [_, "rel", pct, _] => {
                let pct = finite("percentage", pct)?;
                if pct < 0.0 {
                    return Err(format!("rel percentage {pct} is negative"));
                }
                let floor = match fields.get(3) {
                    Some(text) => finite("floor", text)?,
                    None => 0.0,
                };
                if floor < 0.0 {
                    return Err(format!("rel floor {floor} is negative"));
                }
                Op::Rel { pct, floor }
            }
            [_, "max", bound] => Op::Max(finite("bound", bound)?),
            [_, "min", bound] => Op::Min(finite("bound", bound)?),
            [_, "rel" | "max" | "min", ..] => {
                return Err(format!(
                    "gate `{spec}` needs PATH rel PCT [FLOOR], PATH max BOUND or PATH min BOUND"
                ))
            }
            [_, op, ..] => return Err(format!("unknown gate op `{op}` in `{spec}`")),
            _ => return Err(format!("gate `{spec}` needs at least PATH OP BOUND")),
        };
        Ok(Gate {
            path: fields[0].to_string(),
            op,
        })
    }

    /// The rule as written, e.g. `rel 25% past 0.05` or `max 0.89`.
    fn rule(&self) -> String {
        match self.op {
            Op::Rel { pct, floor } if floor > 0.0 => format!("rel {pct}% past {floor}"),
            Op::Rel { pct, .. } => format!("rel {pct}%"),
            Op::Max(bound) => format!("max {bound}"),
            Op::Min(bound) => format!("min {bound}"),
        }
    }

    /// Evaluates the gate: whether it passes, and its report line.
    fn check(&self, baseline: &Json, current: &Json) -> (bool, String) {
        let head = format!("{} ({})", self.path, self.rule());
        let (base, cur) = match (
            number_at(baseline, &self.path),
            number_at(current, &self.path),
        ) {
            (Some(base), Some(cur)) => (base, cur),
            (None, _) => return (false, format!("{head}: missing from the baseline")),
            (_, None) => return (false, format!("{head}: missing from the current run")),
        };
        let values = format!("{base} -> {cur}");
        match self.op {
            Op::Rel { pct, floor } => {
                if base <= 0.0 {
                    let line = format!("{head}: {values}, baseline is not positive");
                    return (false, line);
                }
                let growth = 100.0 * (cur - base) / base;
                let pass = !(growth > pct && cur - base > floor);
                (pass, format!("{head}: {values} ({growth:+.1}%)"))
            }
            Op::Max(bound) => (cur <= bound, format!("{head}: {values}")),
            Op::Min(bound) => (cur >= bound, format!("{head}: {values}")),
        }
    }
}

fn load(path: &str) -> Json {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => usage_exit(&format!("cannot read {path}: {e}")),
    };
    match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => usage_exit(&format!("cannot parse {path}: {e}")),
    }
}

fn as_f64(json: &Json) -> Option<f64> {
    match json {
        Json::UInt(u) => Some(*u as f64),
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// Walks `doc` down a dotted path of object keys.
fn lookup<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |node, key| node.get(key))
}

fn number_at(doc: &Json, path: &str) -> Option<f64> {
    lookup(doc, path).and_then(as_f64)
}

/// Per-figure `(id, wall_secs)` pairs from `analysis.figures`.
fn figure_walls(doc: &Json) -> Vec<(String, f64)> {
    let Some(Json::Arr(figures)) = lookup(doc, "analysis.figures") else {
        return Vec::new();
    };
    figures
        .iter()
        .filter_map(|f| {
            let id = match f.get("id") {
                Some(Json::Str(s)) => s.clone(),
                _ => return None,
            };
            Some((id, f.get("wall_secs").and_then(as_f64)?))
        })
        .collect()
}

fn print_figure_diff(baseline: &Json, current: &Json) {
    println!("== per-figure analysis wall (baseline -> current) ==");
    let base_figs = figure_walls(baseline);
    let cur_figs = figure_walls(current);
    for (id, cur_wall) in &cur_figs {
        match base_figs.iter().find(|(b, _)| b == id) {
            Some((_, base_wall)) => {
                let delta = if *base_wall > 0.0 {
                    100.0 * (cur_wall - base_wall) / base_wall
                } else {
                    0.0
                };
                println!("{id:>10}  {base_wall:>10.4}s -> {cur_wall:>10.4}s  ({delta:+7.1}%)");
            }
            None => println!("{id:>10}  (new)      -> {cur_wall:>10.4}s"),
        }
    }
    for (id, base_wall) in &base_figs {
        if !cur_figs.iter().any(|(c, _)| c == id) {
            println!("{id:>10}  {base_wall:>10.4}s -> (gone)");
        }
    }
}

fn main() {
    let mut paths = Vec::new();
    let mut gates = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--gate" {
            let Some(spec) = args.next() else {
                usage_exit("--gate needs a value")
            };
            match Gate::parse(&spec) {
                Ok(gate) => gates.push(gate),
                Err(e) => usage_exit(&format!("bad --gate: {e}")),
            }
        } else if arg.starts_with("--") {
            usage_exit(&format!("unknown option `{arg}`"));
        } else {
            paths.push(arg);
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        usage_exit("expected exactly two documents");
    };
    let baseline = load(baseline_path);
    let current = load(current_path);

    print_figure_diff(&baseline, &current);
    println!("\n== gates ==");
    let mut failed = 0;
    for gate in &gates {
        let (pass, line) = gate.check(&baseline, &current);
        println!("{} {line}", if pass { "ok  " } else { "FAIL" });
        failed += usize::from(!pass);
    }
    let reused = number_at(&current, "analysis.incremental.days_reused");
    let computed = number_at(&current, "analysis.incremental.days_computed");
    if let (Some(reused), Some(computed)) = (reused, computed) {
        println!("incremental days: {reused:.0} reused, {computed:.0} computed");
    }

    if failed > 0 {
        eprintln!("FAIL: {failed} of {} gate(s) failed", gates.len());
        std::process::exit(1);
    }
    println!("OK: {} gate(s) passed", gates.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report with one number at `a.b`.
    fn doc(v: f64) -> Json {
        Json::obj().with("a", Json::obj().with("b", Json::num(v)))
    }

    fn passes(spec: &str, base: f64, cur: f64) -> bool {
        Gate::parse(spec).unwrap().check(&doc(base), &doc(cur)).0
    }

    #[test]
    fn rel_fails_only_past_both_the_percentage_and_the_floor() {
        // +100% but only +0.04 absolute: under the 0.05 floor.
        assert!(passes("a.b rel 25 0.05", 0.04, 0.08));
        // +100% and +0.1 absolute: past both.
        assert!(!passes("a.b rel 25 0.05", 0.1, 0.2));
        // Past the floor but within the percentage.
        assert!(passes("a.b rel 25 0.05", 1.0, 1.2));
        // No floor: any growth past the percentage fails.
        assert!(passes("a.b rel 10", 1000.0, 1100.0));
        assert!(!passes("a.b rel 10", 1000.0, 1101.0));
        assert!(passes("a.b rel 10", 1000.0, 500.0));
    }

    #[test]
    fn max_and_min_at_inside_and_outside_the_bound() {
        assert!(passes("a.b max 2", 0.0, 2.0));
        assert!(passes("a.b max 2", 0.0, 1.999));
        assert!(!passes("a.b max 2", 0.0, 2.001));
        assert!(passes("a.b min 10", 0.0, 10.0));
        assert!(passes("a.b min 10", 0.0, 10.001));
        assert!(!passes("a.b min 10", 0.0, 9.999));
    }

    #[test]
    fn a_missing_path_fails_in_either_document() {
        let gate = Gate::parse("a.c max 2").unwrap();
        let (pass, line) = gate.check(&doc(1.0), &doc(1.0));
        assert!(!pass);
        assert!(line.contains("missing from the baseline"), "{line}");
        let with_c = Json::obj().with("a", Json::obj().with("c", Json::num(1.0)));
        let (pass, line) = gate.check(&with_c, &doc(1.0));
        assert!(!pass);
        assert!(line.contains("missing from the current run"), "{line}");
        // A non-numeric value (a null, say) is as good as missing.
        let null = Json::obj().with("a", Json::obj().with("c", Json::Null));
        assert!(!gate.check(&with_c, &null).0);
    }

    #[test]
    fn a_rel_gate_over_a_zero_baseline_fails() {
        assert!(!passes("a.b rel 25 0.05", 0.0, 0.0));
        assert!(!passes("a.b rel 100000", 0.0, 1.0));
    }

    #[test]
    fn bad_specs_are_rejected() {
        for spec in [
            "a.b max nan",
            "a.b max NaN",
            "a.b max inf",
            "a.b rel NaN",
            "a.b min -inf",
            "a.b rel 25 nan",
            "a.b rel 25 inf",
            "a.b rel 25 -0.05",
            "a.b rel -10",
            "a.b max banana",
            "a.b lt 2",
            "a.b max",
            "a.b max 2 0.05",
            "a.b min 1 2",
            "a.b rel 25 0.05 7",
            "a.b",
            "",
        ] {
            assert!(Gate::parse(spec).is_err(), "accepted `{spec}`");
        }
    }

    #[test]
    fn good_specs_parse_to_their_rule() {
        let gate = Gate::parse("analysis.phases.total rel 25 0.05").unwrap();
        assert_eq!(gate.path, "analysis.phases.total");
        assert_eq!(
            gate.op,
            Op::Rel {
                pct: 25.0,
                floor: 0.05
            }
        );
        assert_eq!(gate.rule(), "rel 25% past 0.05");
        assert_eq!(Gate::parse("x rel 10").unwrap().rule(), "rel 10%");
        assert_eq!(Gate::parse("x max 0.89").unwrap().op, Op::Max(0.89));
        assert_eq!(Gate::parse("x min 1e7").unwrap().op, Op::Min(1e7));
    }
}
