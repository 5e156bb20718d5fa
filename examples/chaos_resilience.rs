//! Chaos mode: the full fault cocktail — node crashes, message loss, a
//! network partition, corrupted reports, a degraded delivery link
//! (latency, jitter, duplication, reordering), and controller crashes
//! with checkpoint recovery — at increasing intensity, against a model
//! that sometimes cannot fit (exercising the sample-and-hold fallback
//! chain). The per-intensity [`FaultReport`]s, link accounting included,
//! are written to `chaos_resilience.json` (in `UTILCAST_BENCH_DIR`,
//! default the working directory).
//!
//! Run with: `cargo run --release --example chaos_resilience`

use serde::Serialize;
use utilcast::core::pipeline::ModelSpec;
use utilcast::datasets::{presets, Resource};
use utilcast::simnet::faults::{run_with_faults, FaultPlan, FaultReport, PartitionWindow};
use utilcast::simnet::link::{DeliveryOptions, LinkPlan};
use utilcast::simnet::sim::SimConfig;
use utilcast::timeseries::arima::{ArimaFitOptions, ArimaGrid};

/// Scales the full fault cocktail by `intensity` (0 = no faults).
fn plan(intensity: f64) -> FaultPlan {
    let mut plan = FaultPlan {
        crash_prob: (0.002 * intensity).min(1.0),
        restart_prob: 0.1,
        loss_prob: (0.02 * intensity).min(1.0),
        controller_crash_prob: (0.005 * intensity).min(1.0),
        corrupt_prob: (0.02 * intensity).min(1.0),
        checkpoint_every: 50,
        seed: 9,
        ..FaultPlan::none()
    };
    if intensity > 0.0 {
        // A 60-tick partition cutting off a quarter of the fleet.
        plan.partitions = vec![PartitionWindow {
            start: 300,
            end: 360,
            node_start: 0,
            node_end: 15,
        }];
    }
    plan
}

/// Surviving reports cross a degraded link at `intensity > 0`: a tick of
/// base latency with jitter, and a chance of loss, duplication or
/// overtaking.
fn delivery(intensity: f64) -> DeliveryOptions {
    if intensity <= 0.0 {
        return DeliveryOptions::none();
    }
    DeliveryOptions {
        link: LinkPlan {
            loss_prob: (0.01 * intensity).min(1.0),
            dup_prob: (0.01 * intensity).min(1.0),
            reorder_prob: (0.02 * intensity).min(1.0),
            delay_ticks: 1,
            jitter_ticks: 2,
            seed: 77,
            ..LinkPlan::perfect()
        },
        ..DeliveryOptions::none()
    }
}

/// One intensity level's full accounting, as emitted to the results JSON.
#[derive(Serialize)]
struct ChaosRow {
    intensity: f64,
    report: FaultReport,
}

/// An ARIMA grid that rarely fits short, flat centroid histories — real
/// deployments hit this when a cluster's series is near-constant — so the
/// forecaster fallback chain gets exercised.
fn fragile_model() -> ModelSpec {
    ModelSpec::AutoArima {
        grid: ArimaGrid {
            p: vec![],
            d: vec![],
            q: vec![],
            sp: vec![],
            sd: vec![],
            sq: vec![],
            s: 0,
        },
        options: ArimaFitOptions::default(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = presets::google_like()
        .nodes(60)
        .steps(600)
        .seed(5)
        .generate();
    let config = SimConfig {
        budget: 0.3,
        k: 3,
        warmup: 100,
        retrain_every: 100,
        model: fragile_model(),
        ..Default::default()
    };

    println!("60 nodes x 600 steps, budget 0.3, unfittable AutoArima grid");
    println!("(every run survives; resilience counters show what fired)\n");
    println!(
        "{:>9} {:>10} {:>8} {:>11} {:>8} {:>9} {:>10} {:>9} {:>9} {:>8}",
        "intensity",
        "staleness",
        "lost",
        "partitioned",
        "corrupt",
        "ctrl-rst",
        "quarantine",
        "fallback",
        "link-lost",
        "mean-age"
    );
    let mut control = None;
    let mut rows = Vec::new();
    for intensity in [0.0, 0.5, 1.0, 2.0, 4.0] {
        let config = SimConfig {
            delivery: delivery(intensity),
            ..config.clone()
        };
        let report = run_with_faults(&config, &trace, Resource::Cpu, &plan(intensity))?;
        if intensity == 0.0 {
            control = Some(report.sim.staleness_rmse);
        }
        println!(
            "{:>9.1} {:>10.4} {:>8} {:>11} {:>8} {:>9} {:>10} {:>9} {:>9} {:>8.2}",
            intensity,
            report.sim.staleness_rmse,
            report.lost_reports,
            report.partitioned_reports,
            report.corrupted_reports,
            report.controller_crashes,
            report.sim.quarantined,
            report.sim.model_fallbacks,
            report.sim.link.lost,
            report.sim.mean_age
        );
        if intensity == 4.0 {
            let control = control.expect("intensity 0 ran first");
            println!(
                "\n4x intensity costs {:.1}% staleness RMSE vs the no-fault control;",
                100.0 * (report.sim.staleness_rmse / control - 1.0)
            );
        }
        rows.push(ChaosRow { intensity, report });
    }
    println!("corrupt reports are quarantined at ingress (never stored), fit");
    println!("failures degrade to sample-and-hold, and controller crashes");
    println!("resume from the latest checkpoint instead of losing the run.");

    // Full fault + link accounting, machine-readable.
    let dir = std::env::var("UTILCAST_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/chaos_resilience.json");
    match serde_json::to_string_pretty(&rows) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("(wrote {path})");
            }
        }
        Err(e) => eprintln!("warning: could not serialize chaos report: {e}"),
    }
    Ok(())
}
