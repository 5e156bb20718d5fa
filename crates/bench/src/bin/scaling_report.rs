//! Controller scaling report: wall-clock cost of one pipeline step and one
//! forecast call as the number of nodes grows — the "can one central node
//! keep up with the datacenter per time slot" question behind the paper's
//! scalability claims.
//!
//! A 5-minute sampling interval gives the controller 300 seconds per step;
//! this report shows how many orders of magnitude of headroom the K=3
//! pipeline has.
//!
//! The second section benchmarks the deterministic parallel compute layer:
//! the `N=1000, K=10, d=2` multi-resource controller tick with the
//! baseline compute path (sequential, cold k-means every step — the
//! original implementation) against the optimized path (warm-start
//! clustering + threaded k-means/retraining).
//!
//! The third section benchmarks the hierarchical (two-level) controller:
//! the `N=100k, K=10` scalar controller tick under the flat baseline, flat
//! warm, and hierarchical full/mini-batch shard kernels, plus the `N=1M`
//! tick that motivates the tier. It is guarded by a single-shard parity
//! check — the hierarchical configuration with `shards <= 1` must
//! reproduce the seed `SimReport` bit-for-bit at several thread counts,
//! and the sharded configuration must be thread-count invariant — which
//! exits nonzero on any bitwise mismatch so CI fails loudly.
//!
//! Everything is written to `BENCH_controller.json` (in
//! `UTILCAST_BENCH_DIR`, default the working directory) so the speedups
//! are tracked in-repo. `UTILCAST_NODES` scales the hierarchical tiers
//! down for smoke runs; `UTILCAST_STEPS` scales the timing reps.

use std::time::Instant;

use serde::Serialize;
use utilcast_bench::report::ResolvedConfig;
use utilcast_bench::{report, Scale};
use utilcast_core::compute::{ComputeOptions, ShardKernel};
use utilcast_core::multi::{MultiPipeline, MultiPipelineConfig};
use utilcast_core::pipeline::{Pipeline, PipelineConfig, TransmissionMode};
use utilcast_core::stage::{ForecastStage, ForecastStageConfig};
use utilcast_datasets::{presets, Resource};
use utilcast_simnet::sim::{SimConfig, Simulation};

#[derive(Serialize)]
struct Row {
    nodes: usize,
    step_micros: f64,
    forecast_micros: f64,
}

/// The hierarchical controller tick at one scale: the same scalar
/// `ForecastStage` workload timed under four compute configurations. The
/// headline `speedup_vs_flat_baseline` compares the mini-batch
/// hierarchical tick against the unoptimized flat controller
/// ([`ComputeOptions::baseline`] — the same baseline the `N=1000` tick
/// section uses); `speedup_vs_flat_warm` is the honest steady-state ratio
/// against the warm-started flat path, which on a single core is bounded
/// by the shared `O(N)` identity bookkeeping both paths pay per tick.
#[derive(Serialize)]
struct HierarchicalTier {
    nodes: usize,
    k: usize,
    shards: usize,
    reps: usize,
    flat_baseline_tick_micros: f64,
    flat_warm_tick_micros: f64,
    hier_full_tick_micros: f64,
    hier_mini_tick_micros: f64,
    speedup_vs_flat_baseline: f64,
    speedup_vs_flat_warm: f64,
}

/// The million-node tick: flat warm vs hierarchical mini-batch, plus the
/// headroom left in the paper's 300-second sampling slot.
#[derive(Serialize)]
struct MillionNodeTier {
    nodes: usize,
    k: usize,
    shards: usize,
    reps: usize,
    flat_warm_tick_micros: f64,
    hier_mini_tick_micros: f64,
    slot_headroom: f64,
}

/// The tick benchmark's parameters and measurements, serialized to
/// `BENCH_controller.json`. `resolved` records the compute configuration
/// the optimized path actually ran under (thread auto-detection included),
/// so recorded speedups can be read in context.
#[derive(Serialize)]
struct ControllerBench {
    nodes: usize,
    k: usize,
    resources: usize,
    reps: usize,
    resolved: ResolvedConfig,
    baseline_tick_micros: f64,
    optimized_tick_micros: f64,
    speedup: f64,
    baseline_compute: ComputeOptions,
    optimized_compute: ComputeOptions,
    hierarchical: HierarchicalTier,
    million_node: MillionNodeTier,
}

/// Deterministic synthetic measurement for node `i`, resource `r`, step
/// `t`: ten utilization bands with slow sinusoidal drift and a small
/// per-node phase offset — the paper's temporal-continuity regime, with no
/// RNG so reruns are exactly reproducible.
fn measurement(i: usize, r: usize, t: usize) -> f64 {
    let band = (i % 10) as f64 / 10.0;
    let drift = ((t as f64 * 0.01) + (r as f64)).sin() * 0.03;
    let jitter = (((i * 31 + r * 7) % 100) as f64 / 100.0 - 0.5) * 0.02;
    (band + 0.05 + drift + jitter).clamp(0.0, 1.0)
}

fn tick_input(n: usize, d: usize, t: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| (0..d).map(|r| measurement(i, r, t)).collect())
        .collect()
}

/// Wall-clock microseconds per controller tick for the given compute
/// options on the `N=1000, K=10, d=2` workload. All tick inputs are
/// generated up front so the timed region contains only pipeline work, and
/// the ticks are timed in batches with the fastest batch reported — the
/// standard minimum-time estimator, which discards scheduler interference
/// on shared machines instead of averaging it in. Both compute paths go
/// through the same estimator, so the speedup ratio stays honest.
fn time_ticks(n: usize, k: usize, d: usize, reps: usize, compute: ComputeOptions) -> f64 {
    let mut mp = MultiPipeline::new(MultiPipelineConfig {
        num_nodes: n,
        num_resources: d,
        k,
        warmup: 8,
        retrain_every: 10_000,
        compute,
        ..Default::default()
    })
    .expect("valid config");
    let batches = 8.min(reps);
    let per_batch = (reps / batches).max(1);
    let timed = batches * per_batch;
    let inputs: Vec<Vec<Vec<f64>>> = (0..8 + timed).map(|t| tick_input(n, d, t)).collect();
    // Warm the pipeline: first ticks include allocation effects and (for
    // the optimized path) the initial cold seeding.
    for x in &inputs[..8] {
        mp.step(x).expect("step");
    }
    let mut best = f64::INFINITY;
    for batch in inputs[8..].chunks(per_batch) {
        let start = Instant::now();
        for x in batch {
            mp.step(x).expect("step");
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e6 / batch.len() as f64);
    }
    best
}

/// Wall-clock microseconds per scalar controller tick
/// ([`ForecastStage::step`] — clustering, identity re-indexing, and
/// forecaster bookkeeping over a flat `N`-value buffer) with the given
/// compute options. Minimum-time estimator over single ticks; ticks at
/// these scales run for milliseconds, so per-tick timer overhead is noise.
fn time_stage_ticks(
    n: usize,
    k: usize,
    reps: usize,
    warmup: usize,
    compute: ComputeOptions,
) -> f64 {
    let mut stage = ForecastStage::new(ForecastStageConfig {
        num_nodes: n,
        k,
        warmup: 4,
        retrain_every: 10_000,
        compute,
        ..Default::default()
    })
    .expect("valid config");
    let inputs: Vec<Vec<f64>> = (0..warmup + reps)
        .map(|t| (0..n).map(|i| measurement(i, 0, t)).collect())
        .collect();
    for x in &inputs[..warmup] {
        stage.step(x).expect("step");
    }
    let mut best = f64::INFINITY;
    for x in &inputs[warmup..] {
        let start = Instant::now();
        stage.step(x).expect("step");
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// Shard count heuristic: ~1.5k nodes per shard (the sweet spot measured
/// on the probe workloads), at least 2 so the hierarchical path actually
/// engages, capped so the merge problem stays small.
fn shards_for(n: usize) -> usize {
    (n / 1500).clamp(2, 256)
}

/// Hard guard for the hierarchical tier (run before anything is timed):
///
/// 1. `shards: 1` is *not* a different algorithm — it must reproduce the
///    seed configuration's `SimReport` bit-for-bit at thread counts 1, 2,
///    and 8.
/// 2. The genuinely sharded configuration must be bit-identical at any
///    thread count (determinism of the fan-out).
///
/// Exits nonzero on any mismatch so the CI bench smoke fails loudly
/// instead of publishing numbers for a divergent code path.
fn single_shard_parity_guard() {
    let trace = presets::google_like()
        .nodes(64)
        .steps(40)
        .seed(7)
        .generate();
    let run = |compute: Option<ComputeOptions>| {
        let mut config = SimConfig {
            k: 3,
            warmup: 10,
            retrain_every: 12,
            ..Default::default()
        };
        if let Some(compute) = compute {
            config.compute = compute;
        }
        Simulation::new(config)
            .expect("valid config")
            .run(&trace, Resource::Cpu)
            .expect("run")
    };
    let seed_report = run(None);
    for threads in [1usize, 2, 8] {
        let single = run(Some(ComputeOptions {
            shards: 1,
            threads,
            ..Default::default()
        }));
        if single != seed_report {
            eprintln!(
                "PARITY FAILURE: single-shard hierarchical (threads = {threads}) \
                 diverged from the seed SimReport"
            );
            std::process::exit(1);
        }
    }
    let sharded = |threads: usize| {
        run(Some(ComputeOptions {
            shards: 4,
            threads,
            ..Default::default()
        }))
    };
    let reference = sharded(1);
    for threads in [2usize, 8] {
        if sharded(threads) != reference {
            eprintln!(
                "PARITY FAILURE: hierarchical (shards = 4) not thread-count \
                 invariant at threads = {threads}"
            );
            std::process::exit(1);
        }
    }
    println!("parity guard: single-shard == seed and shards=4 thread-invariant (bitwise)");
}

/// The hierarchical controller benchmark: `N=100k` four-way comparison and
/// the `N=1M` tick (both scaled down by `UTILCAST_NODES` in smoke runs).
fn hierarchical_tick_bench(scale: &Scale, reps: usize) -> (HierarchicalTier, MillionNodeTier) {
    let (hier_nodes, million_nodes) = if scale.nodes > 0 {
        (scale.nodes.max(8), scale.nodes.max(8))
    } else {
        (100_000, 1_000_000)
    };
    let k = 10usize.min(hier_nodes);
    let shards = shards_for(hier_nodes);
    report::banner(
        "hierarchical-tick",
        "scalar controller tick: flat vs two-level sharded clustering",
    );
    single_shard_parity_guard();

    let hier_reps = reps.min(12);
    let flat_baseline = time_stage_ticks(hier_nodes, k, hier_reps, 4, ComputeOptions::baseline());
    let flat_warm = time_stage_ticks(
        hier_nodes,
        k,
        hier_reps,
        4,
        ComputeOptions {
            threads: 0,
            ..Default::default()
        },
    );
    let hier_full = time_stage_ticks(
        hier_nodes,
        k,
        hier_reps,
        4,
        ComputeOptions {
            threads: 0,
            shards,
            ..Default::default()
        },
    );
    let hier_mini = time_stage_ticks(
        hier_nodes,
        k,
        hier_reps,
        4,
        ComputeOptions {
            threads: 0,
            shards,
            shard_kernel: ShardKernel::MiniBatch,
            ..Default::default()
        },
    );
    let tier = HierarchicalTier {
        nodes: hier_nodes,
        k,
        shards,
        reps: hier_reps,
        flat_baseline_tick_micros: flat_baseline,
        flat_warm_tick_micros: flat_warm,
        hier_full_tick_micros: hier_full,
        hier_mini_tick_micros: hier_mini,
        speedup_vs_flat_baseline: flat_baseline / hier_mini.max(1e-9),
        speedup_vs_flat_warm: flat_warm / hier_mini.max(1e-9),
    };
    report::table(
        &["path", "tick (us)", "vs baseline"],
        &[
            vec![
                "flat baseline".into(),
                format!("{flat_baseline:.0}"),
                "1.0x".into(),
            ],
            vec![
                "flat warm".into(),
                format!("{flat_warm:.0}"),
                format!("{:.1}x", flat_baseline / flat_warm.max(1e-9)),
            ],
            vec![
                format!("hier full s={shards}"),
                format!("{hier_full:.0}"),
                format!("{:.1}x", flat_baseline / hier_full.max(1e-9)),
            ],
            vec![
                format!("hier mini s={shards}"),
                format!("{hier_mini:.0}"),
                format!("{:.1}x", tier.speedup_vs_flat_baseline),
            ],
        ],
    );

    let million_k = 10usize.min(million_nodes);
    let million_shards = shards_for(million_nodes);
    let million_reps = reps.min(4);
    let million_flat = time_stage_ticks(
        million_nodes,
        million_k,
        million_reps,
        3,
        ComputeOptions {
            threads: 0,
            ..Default::default()
        },
    );
    let million_mini = time_stage_ticks(
        million_nodes,
        million_k,
        million_reps,
        3,
        ComputeOptions {
            threads: 0,
            shards: million_shards,
            shard_kernel: ShardKernel::MiniBatch,
            ..Default::default()
        },
    );
    let million = MillionNodeTier {
        nodes: million_nodes,
        k: million_k,
        shards: million_shards,
        reps: million_reps,
        flat_warm_tick_micros: million_flat,
        hier_mini_tick_micros: million_mini,
        slot_headroom: 300e6 / million_mini.max(1.0),
    };
    println!(
        "N={} tick: flat warm {:.0} us, hier mini s={} {:.0} us ({:.0}x headroom in a 5-min slot)",
        million.nodes, million_flat, million.shards, million_mini, million.slot_headroom
    );
    (tier, million)
}

fn controller_tick_bench(scale: &Scale, reps: usize) {
    let (n, k, d) = (1000, 10, 2);
    report::banner(
        "controller-tick",
        "N=1000, K=10, d=2 tick: baseline vs optimized compute",
    );
    let baseline_compute = ComputeOptions::baseline();
    let optimized_compute = ComputeOptions {
        threads: 0,
        ..Default::default()
    };
    let baseline = time_ticks(n, k, d, reps, baseline_compute);
    let optimized = time_ticks(n, k, d, reps, optimized_compute);
    let speedup = baseline / optimized.max(1e-9);
    report::table(
        &["path", "tick (us)", "speedup"],
        &[
            vec!["baseline".into(), format!("{baseline:.0}"), "1.0x".into()],
            vec![
                "optimized".into(),
                format!("{optimized:.0}"),
                format!("{speedup:.1}x"),
            ],
        ],
    );
    let (hierarchical, million_node) = hierarchical_tick_bench(scale, reps);
    let bench = ControllerBench {
        nodes: n,
        k,
        resources: d,
        reps,
        resolved: ResolvedConfig::capture(&optimized_compute),
        baseline_tick_micros: baseline,
        optimized_tick_micros: optimized,
        speedup,
        baseline_compute,
        optimized_compute,
        hierarchical,
        million_node,
    };
    let dir = std::env::var("UTILCAST_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_controller.json");
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

fn main() {
    let scale = Scale::from_env(0, 64); // nodes scale the hierarchical tiers; steps = timing reps
    let reps = scale.steps.max(16);
    report::banner("scaling", "per-step controller cost vs N (K = 3)");

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &n in &[100usize, 400, 1000, 4000] {
        let trace = presets::google_like()
            .nodes(n)
            .steps(reps + 8)
            .seed(1)
            .generate();
        let mut pipeline = Pipeline::new(PipelineConfig {
            num_nodes: n,
            k: 3,
            transmission: TransmissionMode::Adaptive,
            warmup: 4,
            retrain_every: 10_000,
            ..Default::default()
        })
        .expect("valid config");
        // Warm the pipeline (first steps include allocation effects).
        for t in 0..8 {
            pipeline
                .step(&trace.snapshot(Resource::Cpu, t).expect("cpu"))
                .expect("step");
        }
        let start = Instant::now();
        for t in 8..8 + reps {
            pipeline
                .step(&trace.snapshot(Resource::Cpu, t).expect("cpu"))
                .expect("step");
        }
        let step_micros = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let start = Instant::now();
        for _ in 0..reps {
            let _ = pipeline.forecast(50).expect("forecast");
        }
        let forecast_micros = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        rows.push(vec![
            n.to_string(),
            format!("{step_micros:.0}"),
            format!("{forecast_micros:.0}"),
            format!("{:.0}x", 300e6 / step_micros.max(1.0)),
        ]);
        json.push(Row {
            nodes: n,
            step_micros,
            forecast_micros,
        });
    }
    report::table(
        &["nodes", "step (us)", "forecast h=50 (us)", "headroom @5min"],
        &rows,
    );
    report::write_json("scaling_report", &json);

    controller_tick_bench(&scale, reps);
}
