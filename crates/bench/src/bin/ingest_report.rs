//! Collection-plane ingest report: wall-clock cost of a full driver tick
//! (transmission decisions → frame build → metering → controller ingest →
//! clustering stage) on the flat frame path.
//!
//! The measured path is the default configuration: one SoA
//! [`TransmitterBank`] per driver, a recycled [`ReportFrame`], one
//! metering call per frame, `Controller::tick_frames`, and the recycled
//! flat strided-points entry into the stage. A built-in guard first runs
//! the real driver inline and on sharded worker threads and aborts
//! (non-zero exit) unless the two `SimReport`s are bit-identical.
//!
//! Rows:
//! - `d = 1` **end-to-end**: the full tick including the controller's
//!   clustering stage, at `N` and `N/10` nodes.
//! - `d = 2` **ingest-plane**: decisions + frame build + metering + flat
//!   store apply only (the simnet controller is scalar, so the vector
//!   ingest plane is measured up to the controller boundary).
//!
//! Results go to `BENCH_ingest.json` (in `UTILCAST_BENCH_DIR`, default the
//! working directory). Scale knobs: `UTILCAST_NODES` = headline node count
//! (default 100000), `UTILCAST_STEPS` = measured ticks per pass (default
//! 40). The `scripts/check.sh` smoke mode shrinks both and redirects the
//! output directory so quick runs never clobber the committed numbers.

use std::time::Instant;

use serde::Serialize;
use utilcast_bench::report::ResolvedConfig;
use utilcast_bench::{report, Scale};
use utilcast_core::compute::ComputeOptions;
use utilcast_core::transmit::{TransmitConfig, TransmitterBank};
use utilcast_datasets::{presets, Resource};
use utilcast_simnet::controller::{Controller, ControllerConfig};
use utilcast_simnet::sim::{SimConfig, Simulation};
use utilcast_simnet::threaded::run_threaded;
use utilcast_simnet::transport::{Meter, ReportFrame};

/// Clusters in the end-to-end controller, matching the paper-scale
/// `K = 10` workload.
const K: usize = 10;
/// Transmission budget `B` for every row (the paper's default regime).
const BUDGET: f64 = 0.3;

/// One benchmarked configuration.
#[derive(Serialize)]
struct IngestRow {
    nodes: usize,
    width: usize,
    /// `"end_to_end"` (full controller tick, `d = 1`) or `"ingest_plane"`
    /// (decisions + transport + metering + store apply, `d = 2`).
    mode: &'static str,
    ticks: usize,
    /// Microseconds per tick.
    frame_micros: f64,
}

/// The full report serialized to `BENCH_ingest.json`.
#[derive(Serialize)]
struct IngestBench {
    budget: f64,
    k: usize,
    /// Compute configuration the benchmark resolved to.
    resolved: ResolvedConfig,
    rows: Vec<IngestRow>,
}

/// Deterministic synthetic utilization for node `i`, dimension `r`, tick
/// `t`: banded base load, slow per-node drift, small hash jitter — no RNG,
/// so reruns are exactly reproducible.
fn measurement(i: usize, r: usize, t: usize) -> f64 {
    let band = (i % 10) as f64 / 10.0;
    let drift = ((t as f64) * 0.05 + (i % 7) as f64 + r as f64).sin() * 0.04;
    let jitter = (((i * 31 + r * 7 + t * 13) % 100) as f64 / 100.0 - 0.5) * 0.02;
    (band + 0.05 + drift + jitter).clamp(0.0, 1.0)
}

/// Pre-generates the flat per-tick input matrix (`ticks` × `nodes·width`)
/// so input synthesis never lands inside the timed region.
fn inputs(nodes: usize, width: usize, ticks: usize) -> Vec<Vec<f64>> {
    (0..ticks)
        .map(|t| {
            (0..nodes)
                .flat_map(|i| (0..width).map(move |r| measurement(i, r, t)))
                .collect()
        })
        .collect()
}

/// Minimum wall-clock microseconds of `f` over `passes` runs — the
/// standard minimum-time estimator, discarding scheduler interference
/// instead of averaging it in.
fn min_time_micros(passes: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

fn controller(nodes: usize) -> Controller {
    Controller::new(ControllerConfig {
        num_nodes: nodes,
        k: K.min(nodes),
        ..Default::default()
    })
    .expect("valid controller config")
}

fn tx_config() -> TransmitConfig {
    TransmitConfig {
        budget: BUDGET,
        v0: 1.0,
        gamma: 0.65,
    }
}

/// Full driver tick over `ticks` steps, exactly the driver loop's inline
/// slot (decisions, frame build, metering, `Controller::tick_frames` with
/// its clustering stage). Returns microseconds per tick.
fn end_to_end(xs: &[Vec<f64>], nodes: usize, passes: usize) -> f64 {
    let total = min_time_micros(passes, || {
        let mut ctrl = controller(nodes);
        let mut bank = TransmitterBank::new(tx_config(), nodes);
        let mut decisions = Vec::with_capacity(nodes);
        let mut frame = ReportFrame::with_capacity(1, nodes);
        let meter = Meter::new();
        for (t, x) in xs.iter().enumerate() {
            let zs: &[f64] = if t == 0 { x } else { ctrl.stored() };
            bank.decide_batch_against(x, zs, &mut decisions);
            frame.reset(t);
            for (i, &v) in x.iter().enumerate() {
                if t == 0 || decisions[i] {
                    frame.push_scalar(i, v);
                }
            }
            meter.record_frame(&frame);
            let tick = ctrl
                .tick_frames(std::slice::from_ref(&frame))
                .expect("tick_frames");
            std::hint::black_box(tick.intermediate_rmse);
        }
        std::hint::black_box((meter.messages(), meter.bytes()));
    });
    total / xs.len() as f64
}

/// Ingest plane only, at payload width `d`: decisions, frame build,
/// metering, and the flat stored-vector apply — everything up to (but not
/// including) the scalar-only controller stage. Returns microseconds per
/// tick.
fn ingest_plane(xs: &[Vec<f64>], nodes: usize, width: usize, passes: usize) -> f64 {
    let total = min_time_micros(passes, || {
        let mut bank = TransmitterBank::with_width(tx_config(), nodes, width);
        let mut decisions = Vec::with_capacity(nodes);
        let mut frame = ReportFrame::with_capacity(width, nodes);
        let mut stored = vec![0.0f64; nodes * width];
        let meter = Meter::new();
        for (t, x) in xs.iter().enumerate() {
            let zs: &[f64] = if t == 0 { x } else { &stored };
            bank.decide_batch_against(x, zs, &mut decisions);
            frame.reset(t);
            for (i, &d) in decisions.iter().enumerate() {
                if t == 0 || d {
                    frame.push(i, &x[i * width..(i + 1) * width]);
                }
            }
            meter.record_frame(&frame);
            for e in frame.iter() {
                stored[e.node * width..(e.node + 1) * width].copy_from_slice(e.values);
            }
        }
        std::hint::black_box((meter.messages(), meter.bytes(), stored));
    });
    total / xs.len() as f64
}

/// Hard guard: the sharded driver must produce a bit-identical
/// `SimReport` to the inline driver before any numbers are reported. Exits
/// non-zero on divergence.
fn parity_guard() {
    let trace = presets::google_like()
        .nodes(40)
        .steps(120)
        .seed(7)
        .generate();
    let config = SimConfig {
        k: 4,
        warmup: 30,
        retrain_every: 40,
        ..Default::default()
    };
    let inline = Simulation::new(config.clone())
        .expect("config")
        .run(&trace, Resource::Cpu)
        .expect("inline run");
    let sharded = run_threaded(&config, &trace, Resource::Cpu, 3).expect("sharded run");
    if sharded != inline {
        eprintln!("FAIL: the sharded driver diverged from the inline driver");
        eprintln!("  inline:  {inline:?}");
        eprintln!("  sharded: {sharded:?}");
        std::process::exit(1);
    }
    println!("(parity guard: sharded driver bit-identical to inline — ok)");
}

fn main() {
    let scale = Scale::from_env(100_000, 40);
    let ticks = scale.steps.max(2);
    let headline = scale.nodes.max(10);
    let small = (headline / 10).max(5);
    let passes = 2;

    report::banner(
        "ingest-hot-path",
        "per-tick collection plane on the flat frame path",
    );
    parity_guard();

    let mut rows = Vec::new();
    for nodes in [small, headline] {
        let xs = inputs(nodes, 1, ticks);
        rows.push(IngestRow {
            nodes,
            width: 1,
            mode: "end_to_end",
            ticks,
            frame_micros: end_to_end(&xs, nodes, passes),
        });
    }
    for nodes in [small, headline] {
        let xs = inputs(nodes, 2, ticks);
        rows.push(IngestRow {
            nodes,
            width: 2,
            mode: "ingest_plane",
            ticks,
            frame_micros: ingest_plane(&xs, nodes, 2, passes),
        });
    }

    report::table(
        &["mode", "nodes", "d", "frame (us/tick)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.into(),
                    format!("{}", r.nodes),
                    format!("{}", r.width),
                    format!("{:.0}", r.frame_micros),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let bench = IngestBench {
        budget: BUDGET,
        k: K,
        resolved: ResolvedConfig::capture(&ComputeOptions::default()),
        rows,
    };
    let dir = std::env::var("UTILCAST_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_ingest.json");
    match serde_json::to_string_pretty(&bench) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("(wrote {path})");
            }
        }
        Err(e) => eprintln!("warning: could not serialize benchmark: {e}"),
    }
}
