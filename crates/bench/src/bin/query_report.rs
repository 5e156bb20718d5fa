//! Forecast read-plane report: cost of answering per-node point queries
//! from the cached [`ForecastTable`] against the pre-table recompute path
//! (one full `forecast(H)` assembly per query).
//!
//! The recompute path is pinned exactly: every query re-resolves node
//! memberships and offsets over the look-back window, re-runs each
//! cluster's `forecast_or_hold`, and assembles the full `H x N` matrix —
//! the only way to answer a single `(node, horizon)` question before the
//! table existed. The table path is the default configuration: one build
//! per input generation, published through the lock-free [`TableCell`],
//! then O(1) reads (`cluster trajectory + per-node offset`, two indexed
//! loads and an add). A built-in guard first proves the table bitwise
//! identical to the recompute path — across warmup, retrain, and fallback
//! boundaries, and across a serialized snapshot/restore split — and aborts
//! (non-zero exit) on any divergence.
//!
//! Rows:
//! - **query rows** at `N/10` and `N` nodes: table build cost, recompute
//!   cost per read, table cost per read, per-read speedup (the acceptance
//!   bar is ≥ 100x at `N = 100000`, `K = 10`), and the break-even read
//!   count after which the build has amortized.
//! - **reader rows** at 1/2/8 threads: aggregate reads/sec through cloned
//!   [`TableCell`] handles, every read re-resolving the freshest table
//!   (the full serving path: epoch check + slot read + two loads).
//!
//! Results go to `BENCH_query.json` (in `UTILCAST_BENCH_DIR`, default the
//! working directory). Scale knobs: `UTILCAST_NODES` = headline node count
//! (default 100000; set 1000000 for the 1M-node row), `UTILCAST_STEPS` =
//! warm ticks before measuring (default 8). The `scripts/check.sh` smoke
//! mode shrinks both and redirects the output directory so quick runs
//! never clobber the committed numbers.

use std::time::Instant;

use serde::Serialize;
use utilcast_bench::report::ResolvedConfig;
use utilcast_bench::{report, Scale};
use utilcast_core::compute::ComputeOptions;
use utilcast_core::pipeline::ModelSpec;
use utilcast_core::stage::{ForecastStage, ForecastStageConfig};
use utilcast_core::table::ForecastTable;
use utilcast_datasets::{presets, Resource};
use utilcast_simnet::controller::{Controller, ControllerConfig};
use utilcast_simnet::transport::ReportFrame;

/// Clusters in the headline workload, matching the paper-scale `K = 10`.
const K: usize = 10;
/// Query horizon of the measured table (the `max_query_horizon` default).
const HORIZON: usize = 16;

/// One node-count configuration of the query bench.
#[derive(Serialize)]
struct QueryRow {
    nodes: usize,
    k: usize,
    horizon: usize,
    /// One table build (resolve + per-cluster forecasts + intervals), us.
    build_micros: f64,
    /// One full recompute-path read (`forecast(H)` assembly), us.
    recompute_micros: f64,
    /// One cached-table read (`node_forecast`), ns.
    table_nanos: f64,
    /// Per-read speedup: recompute cost over table cost.
    speedup: f64,
    /// Reads after which the table build has paid for itself.
    breakeven_reads: f64,
}

/// One multi-reader throughput measurement.
#[derive(Serialize)]
struct ReaderRow {
    threads: usize,
    /// Reads per thread (every read re-loads the cell).
    reads_per_thread: usize,
    /// Aggregate reads per second across all threads.
    reads_per_sec: f64,
    /// Scaling relative to the single-thread row.
    scaling: f64,
}

/// The full report serialized to `BENCH_query.json`.
#[derive(Serialize)]
struct QueryBench {
    k: usize,
    horizon: usize,
    /// Compute configuration the benchmark resolved to.
    resolved: ResolvedConfig,
    rows: Vec<QueryRow>,
    readers: Vec<ReaderRow>,
}

/// Deterministic synthetic utilization for node `i` at tick `t`: banded
/// base load, slow drift, small hash jitter — no RNG, so reruns are
/// exactly reproducible.
fn measurement(i: usize, t: usize) -> f64 {
    let band = (i % 10) as f64 / 10.0;
    let drift = ((t as f64) * 0.05 + (i % 7) as f64).sin() * 0.04;
    let jitter = (((i * 31 + t * 13) % 100) as f64 / 100.0 - 0.5) * 0.02;
    (band + 0.05 + drift + jitter).clamp(0.0, 1.0)
}

/// Minimum wall-clock microseconds of `f` over `passes` runs — the
/// standard minimum-time estimator, discarding scheduler interference
/// instead of averaging it in. Both paths use the same estimator, so the
/// speedup ratio stays honest.
fn min_time_micros(passes: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// An AutoArima spec whose empty grid can never fit, forcing every
/// cluster onto the sample-and-hold fallback — the parity guard uses it
/// to cross fallback boundaries deterministically.
fn unfittable_model() -> ModelSpec {
    use utilcast_timeseries::arima::{ArimaFitOptions, ArimaGrid};
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

/// Asserts the table answers every `(node, horizon)` query bitwise
/// identically to the recompute path; exits non-zero otherwise.
fn assert_table_matches(table: &ForecastTable, reference: &[Vec<f64>], context: &str) {
    for (h, row) in reference.iter().enumerate() {
        for (i, &v) in row.iter().enumerate() {
            if table.node_forecast(i, h).to_bits() != v.to_bits() {
                eprintln!(
                    "PARITY FAILURE ({context}): table[{i}][{h}] = {} vs recompute {v}",
                    table.node_forecast(i, h)
                );
                std::process::exit(1);
            }
        }
    }
}

/// Hard guard: the cached table must be bitwise identical to the
/// recompute path at every sampled tick of a real controller run — with a
/// healthy model and with one that forces fallback activations — and a
/// controller restored from a JSON-round-tripped checkpoint mid-run must
/// serve the same table as the uninterrupted one. Exits non-zero on any
/// divergence.
fn parity_guard() {
    let trace = presets::google_like()
        .nodes(32)
        .steps(100)
        .seed(7)
        .generate();
    let config = |model: ModelSpec| ControllerConfig {
        num_nodes: trace.num_nodes(),
        k: 4,
        warmup: 10,
        retrain_every: 25,
        model,
        compute: ComputeOptions {
            max_query_horizon: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let to_frame = |t: usize| -> [ReportFrame; 1] {
        let x = trace.snapshot(Resource::Cpu, t).expect("trace snapshot");
        let mut frame = ReportFrame::with_capacity(1, x.len());
        frame.reset(t);
        for (node, &v) in x.iter().enumerate() {
            frame.push_scalar(node, v);
        }
        [frame]
    };
    for (name, model) in [
        ("healthy", ModelSpec::SampleAndHold),
        ("fallback", unfittable_model()),
    ] {
        let mut live = Controller::new(config(model)).expect("valid controller config");
        let mut restored: Option<Controller> = None;
        for t in 0..trace.num_steps() {
            live.tick_frames(&to_frame(t)).expect("tick");
            if let Some(ctrl) = restored.as_mut() {
                ctrl.tick_frames(&to_frame(t)).expect("restored tick");
            }
            if t == trace.num_steps() / 2 {
                // Crash mid-run: recover a second controller from a
                // checkpoint that survived a JSON round trip.
                let json = serde_json::to_string(&live.snapshot()).expect("serialize");
                restored = Some(
                    Controller::restore(serde_json::from_str(&json).expect("parse"))
                        .expect("restore"),
                );
            }
            if t % 10 == 0 || t + 1 == trace.num_steps() {
                let table = live.forecast_table().expect("table");
                let reference = live.forecast(table.horizon()).expect("forecast");
                assert_table_matches(&table, &reference, name);
                if let Some(ctrl) = restored.as_mut() {
                    let other = ctrl.forecast_table().expect("restored table");
                    assert_table_matches(&other, &reference, "restored");
                }
            }
        }
    }
    println!("(parity guard: table bitwise identical to recompute across retrain, fallback, and restore — ok)");
}

/// Builds a warmed stage at `nodes` nodes: `ticks` deterministic steps
/// past a short warmup, so models are fitted and the window is full.
fn warmed_stage(nodes: usize, ticks: usize) -> ForecastStage {
    let mut stage = ForecastStage::new(ForecastStageConfig {
        num_nodes: nodes,
        k: K.min(nodes),
        warmup: 4,
        retrain_every: 1000,
        model: ModelSpec::SampleAndHold,
        compute: ComputeOptions {
            max_query_horizon: HORIZON,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("valid stage config");
    let mut z = vec![0.0f64; nodes];
    for t in 0..ticks {
        for (i, zi) in z.iter_mut().enumerate() {
            *zi = measurement(i, t);
        }
        stage.step(&z).expect("step");
    }
    stage
}

/// Times one node-count configuration: build cost, recompute cost per
/// read, table cost per read.
fn query_row(nodes: usize, ticks: usize, passes: usize) -> QueryRow {
    let mut stage = warmed_stage(nodes, ticks);
    let horizon = stage.config().compute.query_horizon();

    let build_micros = min_time_micros(passes, || {
        std::hint::black_box(stage.build_forecast_table().expect("build"));
    });
    // The pre-table path answers one point query by assembling the full
    // H x N forecast — that assembly IS the per-read cost.
    let recompute_micros = min_time_micros(passes, || {
        std::hint::black_box(stage.forecast(horizon).expect("forecast"));
    });

    let table = stage.forecast_table().expect("table");
    let reads = 2_000_000usize;
    let mut checksum = 0.0f64;
    let table_nanos = min_time_micros(passes, || {
        let mut acc = 0.0f64;
        for q in 0..reads {
            let node = q.wrapping_mul(31) % nodes;
            let h = q % horizon;
            acc += table.node_forecast(node, h);
        }
        checksum = acc;
    }) * 1e3
        / reads as f64;
    std::hint::black_box(checksum);

    let table_micros = table_nanos / 1e3;
    QueryRow {
        nodes,
        k: K.min(nodes),
        horizon,
        build_micros,
        recompute_micros,
        table_nanos,
        speedup: recompute_micros / table_micros.max(1e-9),
        // Reads until build + reads * table_cost < reads * recompute_cost.
        breakeven_reads: build_micros / (recompute_micros - table_micros).max(1e-9),
    }
}

/// Aggregate multi-reader throughput: `threads` detached readers share
/// cloned [`TableCell`] handles, re-resolving the freshest table once per
/// 1024-read batch (the serving loop a query endpoint would run: epoch
/// check + slot read amortized over a batch, O(1) loads per query).
fn reader_row(stage: &mut ForecastStage, threads: usize, reads_per_thread: usize) -> f64 {
    let _ = stage.forecast_table().expect("table");
    let cell = stage.table_handle();
    let horizon = stage.config().compute.query_horizon();
    let nodes = stage.config().num_nodes;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..threads {
            let handle = cell.clone();
            scope.spawn(move || {
                let mut acc = 0.0f64;
                let mut table = handle.load().expect("published table");
                for q in 0..reads_per_thread {
                    if q % 1024 == 0 {
                        table = handle.load().expect("published table");
                    }
                    let node = q.wrapping_mul(31).wrapping_add(p * 17) % nodes;
                    acc += table.node_forecast(node, q % horizon);
                }
                handle.record_reads(reads_per_thread as u64);
                std::hint::black_box(acc);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (threads * reads_per_thread) as f64 / secs.max(1e-12)
}

fn main() {
    let scale = Scale::from_env(100_000, 8);
    let ticks = scale.steps.max(6);
    let headline = scale.nodes.max(10);
    let small = (headline / 10).max(10);
    let passes = 3;

    report::banner(
        "query-read-plane",
        "cached forecast table vs per-query recompute",
    );
    parity_guard();

    let rows: Vec<QueryRow> = [small, headline]
        .iter()
        .map(|&n| query_row(n, ticks, passes))
        .collect();
    report::table(
        &[
            "nodes",
            "build (us)",
            "recompute (us/read)",
            "table (ns/read)",
            "speedup",
            "break-even reads",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.nodes),
                    format!("{:.0}", r.build_micros),
                    format!("{:.1}", r.recompute_micros),
                    format!("{:.2}", r.table_nanos),
                    format!("{:.0}x", r.speedup),
                    format!("{:.1}", r.breakeven_reads),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let headline_row = rows.last().expect("headline row");
    if headline_row.speedup < 100.0 {
        eprintln!(
            "FAIL: headline per-read speedup {:.1}x below the 100x acceptance bar",
            headline_row.speedup
        );
        std::process::exit(1);
    }

    let mut stage = warmed_stage(headline, ticks);
    let reads_per_thread = 1_000_000usize.min(200 * ticks * headline).max(100_000);
    let readers: Vec<ReaderRow> = {
        let mut rows: Vec<ReaderRow> = Vec::new();
        for threads in [1usize, 2, 8] {
            let reads_per_sec = reader_row(&mut stage, threads, reads_per_thread);
            let scaling = rows
                .first()
                .map(|base: &ReaderRow| reads_per_sec / base.reads_per_sec.max(1e-9))
                .unwrap_or(1.0);
            rows.push(ReaderRow {
                threads,
                reads_per_thread,
                reads_per_sec,
                scaling,
            });
        }
        rows
    };
    report::table(
        &["threads", "reads/thread", "Mreads/s", "scaling"],
        &readers
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.threads),
                    format!("{}", r.reads_per_thread),
                    format!("{:.1}", r.reads_per_sec / 1e6),
                    format!("{:.2}x", r.scaling),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let bench = QueryBench {
        k: K,
        horizon: HORIZON,
        resolved: ResolvedConfig::capture(&ComputeOptions::default()),
        rows,
        readers,
    };
    let dir = std::env::var("UTILCAST_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_query.json");
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
