//! Ablation bench: remove one mechanism at a time and print which paper
//! shapes move (the design-choice attributions of DESIGN.md §5a), then
//! benchmark a full tiny-study simulation per ablation.

use std::time::Instant;

use ipv6_study_core::{experiments, Ablation, AnalysisCtx, Study, StudyConfig};

fn config(ablation: Ablation) -> StudyConfig {
    let mut cfg = StudyConfig::tiny();
    cfg.ablation = ablation;
    cfg
}

fn main() {
    println!("== ablations: which mechanism produces which shape ==");
    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>14}",
        "ablation", "v6 newborn", "v6 wk median", "v4 >3 users", "AA day-1 catch"
    );
    for ablation in Ablation::ALL {
        let study = Study::run(config(ablation)).expect("valid preset");
        let ctx = AnalysisCtx::new(&study);
        let fig5 = experiments::fig5_lifespans(&ctx);
        let fig2 = experiments::fig2_addrs_per_user(&ctx);
        let fig7 = experiments::fig7_users_per_ip(&ctx);
        println!(
            "{:<16} {:>14.3} {:>14.1} {:>14.3} {:>14.3}",
            ablation.name(),
            fig5.get_stat("fig5.v6_newborn_share").unwrap_or(f64::NAN),
            fig2.get_stat("fig2.v6_week_median").unwrap_or(f64::NAN),
            fig7.get_stat("fig7.v4_day_gt3").unwrap_or(f64::NAN),
            study.labels().detected_within(0),
        );
    }

    time_fn("tiny_study_simulation", 10, || {
        Study::run(config(Ablation::Baseline)).expect("valid preset")
    });
}

/// Times `f` over `samples` iterations (after one warm-up call) and prints
/// a one-line min/mean/max summary.
fn time_fn<R>(name: &str, samples: u32, mut f: impl FnMut() -> R) {
    std::hint::black_box(f()); // warm-up
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    let mean = times.iter().sum::<f64>() / f64::from(samples);
    println!(
        "bench {name:40} min {:>9} mean {:>9} max {:>9}",
        fmt_s(min),
        fmt_s(mean),
        fmt_s(max)
    );
}

fn fmt_s(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.1}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{secs:.3}s")
    }
}
