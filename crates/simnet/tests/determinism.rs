//! Determinism suite for the parallel compute layer: the controller's
//! threaded k-means, warm-start clustering, and concurrent per-cluster
//! retraining must be invisible in the results — bit-identical
//! [`SimReport`]s at any thread count, with and without periodic cold
//! re-seeding, and bit-identical snapshot/restore replay while the
//! concurrent paths are active.

use proptest::prelude::*;
use utilcast_core::compute::{ComputeOptions, ShardKernel};
use utilcast_core::pipeline::ModelSpec;
use utilcast_datasets::{presets, Resource, Trace};
use utilcast_simnet::controller::{Controller, ControllerConfig};
use utilcast_simnet::sim::{SimConfig, Simulation};
use utilcast_simnet::threaded::run_threaded;
use utilcast_simnet::transport::ReportFrame;
use utilcast_timeseries::lstm::LstmConfig;

fn trace() -> Trace {
    presets::google_like()
        .nodes(40)
        .steps(200)
        .seed(11)
        .generate()
}

fn run_with(compute: ComputeOptions) -> utilcast_simnet::sim::SimReport {
    Simulation::new(SimConfig {
        k: 4,
        warmup: 30,
        retrain_every: 40,
        compute,
        ..Default::default()
    })
    .unwrap()
    .run(&trace(), Resource::Cpu)
    .unwrap()
}

/// Threaded k-means + concurrent retraining: the full simulation report is
/// bit-identical to the sequential path at every thread count. `SimReport`
/// derives `PartialEq` over its `f64` metrics, so equality here is exact
/// floating-point equality, not a tolerance.
#[test]
fn sim_report_bit_identical_at_any_thread_count() {
    let sequential = run_with(ComputeOptions {
        threads: 1,
        ..Default::default()
    });
    for threads in [2, 8] {
        let parallel = run_with(ComputeOptions {
            threads,
            ..Default::default()
        });
        assert_eq!(parallel, sequential, "threads = {threads} diverged");
    }
}

/// Warm-start clustering with a short cold re-seed period: many cold
/// re-seeds fire mid-run, and the report stays bit-identical across thread
/// counts (the cold re-seed cadence is driven by the step counter, never by
/// scheduling).
#[test]
fn warm_start_with_cold_reseed_bit_identical_at_any_thread_count() {
    let compute = |threads: usize| ComputeOptions {
        threads,
        warm_start: true,
        cold_reseed_every: 13,
        ..Default::default()
    };
    let sequential = run_with(compute(1));
    for threads in [2, 8] {
        assert_eq!(
            run_with(compute(threads)),
            sequential,
            "threads = {threads} diverged"
        );
    }
}

/// Staggered retraining (phase-offset per cluster) is driven purely by the
/// step counter, so the full simulation report stays bit-identical at any
/// thread count with the stagger enabled.
#[test]
fn staggered_retraining_bit_identical_at_any_thread_count() {
    let compute = |threads: usize| ComputeOptions {
        threads,
        retrain_stagger: true,
        ..Default::default()
    };
    let sequential = run_with(compute(1));
    for threads in [2, 8] {
        assert_eq!(
            run_with(compute(threads)),
            sequential,
            "threads = {threads} diverged"
        );
    }
}

/// The stagger genuinely changes the retrain schedule (otherwise the test
/// above would be vacuous), while leaving the ingest metrics untouched.
#[test]
fn staggered_retraining_is_a_distinct_schedule() {
    let staggered = run_with(ComputeOptions {
        retrain_stagger: true,
        ..Default::default()
    });
    let synchronized = run_with(ComputeOptions::default());
    assert_eq!(staggered.steps, synchronized.steps);
    assert_eq!(staggered.messages, synchronized.messages);
    assert_eq!(staggered.quarantined, synchronized.quarantined);
    assert!(staggered.intermediate_rmse.is_finite());
}

/// The warm-start trajectory genuinely engages: it must match the
/// cold-every-step trajectory on cold-reseed steps only by construction,
/// not produce the identical clustering path. (If the two paths were
/// always equal, the warm-start tests above would be vacuous.)
#[test]
fn warm_start_is_a_distinct_code_path() {
    let warm = run_with(ComputeOptions {
        threads: 1,
        warm_start: true,
        cold_reseed_every: 0,
        ..Default::default()
    });
    let cold = run_with(ComputeOptions {
        threads: 1,
        warm_start: false,
        cold_reseed_every: 0,
        ..Default::default()
    });
    // Same workload, same seed: both must be valid runs with comparable
    // error, but the intermediate RMSE traces need not coincide bitwise.
    assert_eq!(warm.steps, cold.steps);
    assert!(warm.intermediate_rmse.is_finite() && cold.intermediate_rmse.is_finite());
}

/// A hierarchical (two-level) controller configured with a single shard
/// must reproduce the seed single-level `SimReport` bit-for-bit at any
/// thread count: `shards <= 1` (including the serde-default `0` from old
/// checkpoints) takes the seed code path verbatim.
#[test]
fn single_shard_hierarchical_reproduces_seed_report_at_any_thread_count() {
    let seed_report = run_with(ComputeOptions::default());
    for shards in [0, 1] {
        for threads in [1, 2, 8] {
            let report = run_with(ComputeOptions {
                shards,
                threads,
                ..Default::default()
            });
            assert_eq!(
                report, seed_report,
                "shards = {shards}, threads = {threads} diverged from the seed"
            );
        }
    }
}

/// The genuinely hierarchical configurations (2 and 8 clustering shards)
/// are each bit-identical across thread counts: the shard fan-out changes
/// wall-clock only, never results.
#[test]
fn hierarchical_report_bit_identical_at_any_thread_count() {
    for shards in [2, 8] {
        let sequential = run_with(ComputeOptions {
            shards,
            threads: 1,
            ..Default::default()
        });
        assert_eq!(sequential.steps, 200);
        assert!(sequential.intermediate_rmse.is_finite());
        for threads in [2, 8] {
            let parallel = run_with(ComputeOptions {
                shards,
                threads,
                ..Default::default()
            });
            assert_eq!(
                parallel, sequential,
                "shards = {shards}, threads = {threads} diverged"
            );
        }
    }
}

/// The mini-batch shard kernel (one warm Lloyd nudge per shard per tick)
/// is a different schedule from the full kernel but equally deterministic:
/// bit-identical across thread counts, including across cold re-seeds.
#[test]
fn mini_batch_shard_kernel_bit_identical_at_any_thread_count() {
    let compute = |threads: usize| ComputeOptions {
        shards: 4,
        shard_kernel: ShardKernel::MiniBatch,
        cold_reseed_every: 13,
        threads,
        ..Default::default()
    };
    let sequential = run_with(compute(1));
    assert!(sequential.intermediate_rmse.is_finite());
    for threads in [2, 8] {
        assert_eq!(
            run_with(compute(threads)),
            sequential,
            "threads = {threads} diverged"
        );
    }
}

/// Per-cluster LSTM retraining runs concurrently on the worker pool: a
/// hidden-16 LSTM under the default kernel gives the same `SimReport` at
/// any thread count. The report carries no forecasts, so the same run is
/// also driven through a bare `Controller` and its forecasts compared.
#[test]
fn lstm_retraining_bit_identical_at_any_thread_count() {
    let trace = trace();
    let model = || {
        ModelSpec::Lstm(LstmConfig {
            hidden: 16,
            epochs: 2,
            ..Default::default()
        })
    };
    let compute = |threads: usize| ComputeOptions {
        threads,
        ..Default::default()
    };
    let report = |threads: usize| {
        Simulation::new(SimConfig {
            model: model(),
            compute: compute(threads),
            ..base_config()
        })
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap()
    };
    let forecast = |threads: usize| {
        let mut controller = Controller::new(ControllerConfig {
            num_nodes: trace.num_nodes(),
            k: 4,
            warmup: 30,
            retrain_every: 40,
            model: model(),
            compute: compute(threads),
            ..Default::default()
        })
        .unwrap();
        let mut frame = ReportFrame::new(1);
        for t in 0..trace.num_steps() {
            frame.reset(t);
            for (node, &v) in trace.snapshot(Resource::Cpu, t).unwrap().iter().enumerate() {
                frame.push_scalar(node, v);
            }
            controller
                .tick_frames(std::slice::from_ref(&frame))
                .unwrap();
        }
        controller.forecast(4).unwrap()
    };
    let (sequential, sequential_forecast) = (report(1), forecast(1));
    for threads in [2, 8] {
        assert_eq!(report(threads), sequential, "threads = {threads} diverged");
        assert_eq!(
            forecast(threads),
            sequential_forecast,
            "threads = {threads} forecasts diverged"
        );
    }
}

fn base_config() -> SimConfig {
    SimConfig {
        k: 4,
        warmup: 30,
        retrain_every: 40,
        ..Default::default()
    }
}

/// The threaded driver at shard counts 1, 2, and 8 reproduces the inline
/// driver's `SimReport` bit for bit (exact `f64` equality).
#[test]
fn threaded_frames_bit_identical_to_inline() {
    let trace = trace();
    let inline = Simulation::new(base_config())
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
    for shards in [1, 2, 8] {
        let threaded = run_threaded(&base_config(), &trace, Resource::Cpu, shards).unwrap();
        assert_eq!(
            threaded, inline,
            "threaded driver diverged at {shards} shards"
        );
    }
}

/// With a hierarchical controller, the threaded driver hands one frame
/// per supervisor shard to `Controller::tick_frames`. The `SimReport`
/// must be bit-identical to the inline driver's single-frame run at every
/// supervisor shard count — supervisor sharding and clustering sharding
/// are independent axes, and neither may leak into results.
#[test]
fn hierarchical_threaded_driver_bit_identical_at_any_supervisor_shard_count() {
    let trace = trace();
    let hier_config = SimConfig {
        compute: ComputeOptions {
            shards: 4,
            ..Default::default()
        },
        ..base_config()
    };
    let reference = Simulation::new(hier_config.clone())
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
    for supervisor_shards in [1, 2, 8] {
        let threaded =
            run_threaded(&hier_config, &trace, Resource::Cpu, supervisor_shards).unwrap();
        assert_eq!(
            threaded, reference,
            "hierarchical run diverged at {supervisor_shards} supervisor shards"
        );
    }
}

/// Under injected in-flight corruption every corrupted entry is
/// quarantined — the link's corruption modes are all invalid for unit-range
/// traces — and each shard count replays bit for bit: each shard's link
/// stream derives from `(plan seed, shard)` alone.
#[test]
fn corrupt_link_is_quarantined_exactly_at_any_shard_count() {
    use utilcast_simnet::link::{DeliveryOptions, LinkPlan};
    let trace = trace();
    let config = SimConfig {
        delivery: DeliveryOptions {
            link: LinkPlan {
                corrupt_prob: 0.25,
                seed: 23,
                ..LinkPlan::perfect()
            },
            ..DeliveryOptions::none()
        },
        ..base_config()
    };
    let inline = Simulation::new(config.clone())
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
    assert!(
        inline.quarantined > 0,
        "0.25 corruption never fired in 200 ticks"
    );
    assert_eq!(inline.link.corrupted, inline.quarantined);
    for shards in [1, 2, 8] {
        let a = run_threaded(&config, &trace, Resource::Cpu, shards).unwrap();
        let b = run_threaded(&config, &trace, Resource::Cpu, shards).unwrap();
        assert!(a.quarantined > 0);
        assert_eq!(a.link.corrupted, a.quarantined, "{shards} shards");
        assert_eq!(a, b, "corrupt run not reproducible at {shards} shards");
    }
    // One shard is the inline driver's single link stream.
    assert_eq!(
        run_threaded(&config, &trace, Resource::Cpu, 1).unwrap(),
        inline
    );
}

const PROP_NODES: usize = 6;

fn arb_tick_reports() -> impl Strategy<Value = Vec<(usize, f64)>> {
    proptest::collection::vec((0usize..PROP_NODES + 2, -0.5f64..1.5), 0..8)
}

fn concurrent_controller() -> Controller {
    Controller::new(ControllerConfig {
        num_nodes: PROP_NODES,
        k: 3,
        warmup: 4,
        retrain_every: 5,
        compute: ComputeOptions {
            threads: 8,
            warm_start: true,
            cold_reseed_every: 7,
            retrain_stagger: true,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap()
}

/// Fills `frames` with tick `t`'s batch in arrival order, split into two
/// frames at `cut`, so ticks exercise multi-frame ingest.
fn fill_split(frames: &mut [ReportFrame; 2], t: usize, batch: &[(usize, f64)], cut: usize) {
    for frame in frames.iter_mut() {
        frame.reset(t);
    }
    for (i, &(node, v)) in batch.iter().enumerate() {
        frames[usize::from(i >= cut)].push_scalar(node, v);
    }
}

proptest! {
    /// Snapshot → JSON round trip → restore → replay is bit-identical to
    /// the uninterrupted run *with concurrent retraining and threaded
    /// warm-start clustering enabled*, for any report sequence (valid,
    /// quarantinable, duplicate, out-of-order), any split of each tick
    /// across two frames, and any split point.
    #[test]
    fn snapshot_restore_bit_identical_with_concurrent_retraining(
        ticks in proptest::collection::vec(arb_tick_reports(), 2..16),
        split_pct in 0u32..100,
        cut in 0usize..8,
    ) {
        let split = (ticks.len() * split_pct as usize / 100).min(ticks.len() - 1);
        let mut frames = [ReportFrame::new(1), ReportFrame::new(1)];

        let mut uninterrupted = concurrent_controller();
        let mut resumed = concurrent_controller();
        for (t, batch) in ticks[..split].iter().enumerate() {
            fill_split(&mut frames, t, batch, cut);
            let a = uninterrupted.tick_frames(&frames).unwrap();
            let b = resumed.tick_frames(&frames).unwrap();
            prop_assert_eq!(a, b);
        }

        let json = serde_json::to_string(&resumed.snapshot()).unwrap();
        let mut resumed = Controller::restore(serde_json::from_str(&json).unwrap()).unwrap();

        for (t, batch) in ticks.iter().enumerate().skip(split) {
            fill_split(&mut frames, t, batch, cut);
            let a = uninterrupted.tick_frames(&frames).unwrap();
            let b = resumed.tick_frames(&frames).unwrap();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(uninterrupted.stored(), resumed.stored());
        prop_assert_eq!(uninterrupted.snapshot(), resumed.snapshot());
    }

    /// Snapshot → restore → replay over node-sorted single frames (the
    /// shape the drivers produce) is bit-identical to the uninterrupted
    /// run for any report sequence and split point.
    #[test]
    fn snapshot_restore_bit_identical_on_frame_path(
        ticks in proptest::collection::vec(arb_tick_reports(), 2..16),
        split_pct in 0u32..100,
    ) {
        let split = (ticks.len() * split_pct as usize / 100).min(ticks.len() - 1);
        let mut frame = ReportFrame::new(1);
        let fill = |frame: &mut ReportFrame, t: usize, batch: &[(usize, f64)]| {
            frame.reset(t);
            let mut sorted = batch.to_vec();
            sorted.sort_by_key(|&(node, _)| node);
            for (node, v) in sorted {
                frame.push_scalar(node, v);
            }
        };

        let mut uninterrupted = concurrent_controller();
        let mut resumed = concurrent_controller();
        for (t, batch) in ticks[..split].iter().enumerate() {
            fill(&mut frame, t, batch);
            let a = uninterrupted.tick_frames(std::slice::from_ref(&frame)).unwrap();
            let b = resumed.tick_frames(std::slice::from_ref(&frame)).unwrap();
            prop_assert_eq!(a, b);
        }

        let json = serde_json::to_string(&resumed.snapshot()).unwrap();
        let mut resumed = Controller::restore(serde_json::from_str(&json).unwrap()).unwrap();

        for (t, batch) in ticks.iter().enumerate().skip(split) {
            fill(&mut frame, t, batch);
            let a = uninterrupted.tick_frames(std::slice::from_ref(&frame)).unwrap();
            let b = resumed.tick_frames(std::slice::from_ref(&frame)).unwrap();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(uninterrupted.stored(), resumed.stored());
        prop_assert_eq!(uninterrupted.snapshot(), resumed.snapshot());
    }
}
