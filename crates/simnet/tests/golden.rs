//! Golden-report fixtures: every entry point of the driver is pinned to a
//! committed `serde_json::to_string` rendering of its report, so a change
//! to the tick loop that moves any bit of any field fails here. The same
//! holds for k-means fits at dimensions 2 and 8 (plain and weighted), a
//! mini-batch hierarchical run and a hidden-4 LSTM run with its forecasts.
//! A mid-run checkpoint written under since-retired kernel knobs
//! (`old_checkpoint_*`) must restore and continue as recorded.
//!
//! Regenerate (only when a behaviour change is intended and documented):
//!
//! ```text
//! cargo test -p utilcast-simnet --test golden -- --ignored generate_golden_fixtures
//! ```

use std::path::PathBuf;

use serde::Serialize;
use utilcast_clustering::kmeans::{fit_weighted_flat, KMeans, KMeansConfig};
use utilcast_core::compute::{ComputeOptions, ShardKernel};
use utilcast_core::pipeline::ModelSpec;
use utilcast_core::transmit::{ArqConfig, TransmitConfig, TransmitterBank};
use utilcast_datasets::{presets, Resource, Trace};
use utilcast_simnet::controller::{Controller, ControllerConfig, ControllerSnapshot};
use utilcast_simnet::faults::{run_with_faults, FaultPlan, FaultReport, PartitionWindow};
use utilcast_simnet::link::{DeliveryOptions, LinkPlan};
use utilcast_simnet::sim::{SimConfig, Simulation};
use utilcast_simnet::threaded::{run_threaded_supervised, SupervisorOptions};
use utilcast_simnet::transport::ReportFrame;
use utilcast_timeseries::lstm::LstmConfig;

fn trace() -> Trace {
    presets::google_like()
        .nodes(20)
        .steps(120)
        .seed(9)
        .generate()
}

fn base() -> SimConfig {
    SimConfig {
        k: 3,
        warmup: 30,
        retrain_every: 40,
        ..Default::default()
    }
}

fn lossy() -> SimConfig {
    SimConfig {
        compute: ComputeOptions {
            staleness_age_limit: 4,
            ..Default::default()
        },
        delivery: DeliveryOptions {
            link: LinkPlan {
                loss_prob: 0.2,
                delay_ticks: 1,
                jitter_ticks: 2,
                dup_prob: 0.05,
                reorder_prob: 0.1,
                seed: 77,
                ..LinkPlan::perfect()
            },
            ack_link: LinkPlan {
                loss_prob: 0.1,
                seed: 5,
                ..LinkPlan::perfect()
            },
            arq: ArqConfig {
                timeout: 3,
                backoff_cap: 3,
                max_retransmits: 10,
            },
        },
        ..base()
    }
}

fn inline(config: SimConfig) -> String {
    let report = Simulation::new(config)
        .unwrap()
        .run(&trace(), Resource::Cpu)
        .unwrap();
    serde_json::to_string(&report).unwrap()
}

fn supervised(config: &SimConfig, shards: usize, options: &SupervisorOptions) -> String {
    let report = run_threaded_supervised(config, &trace(), Resource::Cpu, shards, options).unwrap();
    serde_json::to_string(&report).unwrap()
}

fn faulty(config: &SimConfig, plan: &FaultPlan) -> String {
    let report = run_with_faults(config, &trace(), Resource::Cpu, plan).unwrap();
    serde_json::to_string(&report).unwrap()
}

/// `n` deterministic `dim`-dimensional points in four loose groups, as one
/// row-major buffer: no RNG, so the input never moves with a library.
fn blob_points(n: usize, dim: usize) -> Vec<f64> {
    let mut flat = Vec::with_capacity(n * dim);
    for i in 0..n {
        for d in 0..dim {
            let centre = ((i % 4) * (d % 3 + 1)) as f64;
            let jitter = ((i * 7919 + d * 104_729) % 1000) as f64 / 1000.0;
            flat.push(centre + 0.6 * jitter);
        }
    }
    flat
}

/// `KMeans::fit_flat` under the default kernel at dimension `dim`.
fn kmeans_fit(dim: usize) -> String {
    let flat = blob_points(400, dim);
    let config = KMeansConfig {
        k: 5,
        seed: 3,
        ..Default::default()
    };
    let result = KMeans::new(config).fit_flat(&flat, dim).unwrap();
    serde_json::to_string(&result).unwrap()
}

/// `fit_weighted_flat` under the default kernel at dimension `dim`.
fn kmeans_weighted(dim: usize) -> String {
    let n = 60;
    let flat = blob_points(n, dim);
    let weights: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 + 0.5).collect();
    let config = KMeansConfig {
        k: 4,
        ..Default::default()
    };
    let result = fit_weighted_flat(&flat, dim, &weights, &config).unwrap();
    serde_json::to_string(&result).unwrap()
}

/// A hidden-4 LSTM with the default kernel.
fn lstm_model() -> ModelSpec {
    ModelSpec::Lstm(LstmConfig {
        hidden: 4,
        epochs: 2,
        ..Default::default()
    })
}

/// Fault cases whose fixture is compared on every field except
/// `sim.bytes`: corruption variant 2 used to empty the payload (8 bytes
/// shorter on the wire) and now writes an out-of-range `-1.0` in place.
const BYTES_EXEMPT: &[&str] = &["faults_corrupt"];

/// Every pinned case: fixture name and the current rendering.
fn cases() -> Vec<(&'static str, String)> {
    let probed = SimConfig {
        query_probe: 3,
        ..base()
    };
    let hierarchical = SimConfig {
        compute: ComputeOptions {
            shards: 4,
            ..Default::default()
        },
        ..base()
    };
    let mini_batch = SimConfig {
        compute: ComputeOptions {
            shards: 4,
            shard_kernel: ShardKernel::MiniBatch,
            ..Default::default()
        },
        ..base()
    };
    let plain = SupervisorOptions::default();
    vec![
        ("kmeans_fit_dim2", kmeans_fit(2)),
        ("kmeans_fit_dim8", kmeans_fit(8)),
        ("kmeans_weighted_dim2", kmeans_weighted(2)),
        ("kmeans_weighted_dim8", kmeans_weighted(8)),
        ("inline_minibatch_shards4", inline(mini_batch)),
        ("controller_lstm_hidden4", lstm_run()),
        ("inline_healthy", inline(base())),
        ("threaded_1", supervised(&base(), 1, &plain)),
        ("threaded_3", supervised(&base(), 3, &plain)),
        ("threaded_7", supervised(&base(), 7, &plain)),
        (
            "threaded_hierarchical",
            supervised(&hierarchical, 3, &plain),
        ),
        ("inline_lossy", inline(lossy())),
        ("threaded_lossy_4", supervised(&lossy(), 4, &plain)),
        (
            "threaded_probes_crash",
            supervised(
                &probed,
                3,
                &SupervisorOptions {
                    controller_crash_at: Some(47),
                    checkpoint_every: 20,
                    ..Default::default()
                },
            ),
        ),
        (
            "threaded_worker_panic",
            supervised(
                &base(),
                4,
                &SupervisorOptions {
                    worker_panic_at: Some((2, 57)),
                    ..Default::default()
                },
            ),
        ),
        ("faults_none", faulty(&base(), &FaultPlan::none())),
        (
            "faults_loss_partition",
            faulty(
                &base(),
                &FaultPlan {
                    loss_prob: 0.1,
                    partitions: vec![PartitionWindow {
                        start: 20,
                        end: 50,
                        node_start: 3,
                        node_end: 9,
                    }],
                    seed: 7,
                    ..FaultPlan::none()
                },
            ),
        ),
        (
            "faults_corrupt",
            faulty(
                &base(),
                &FaultPlan {
                    corrupt_prob: 0.2,
                    loss_prob: 0.05,
                    seed: 13,
                    ..FaultPlan::none()
                },
            ),
        ),
    ]
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.json"))
}

#[test]
#[ignore = "writes the fixtures; run only to re-pin an intended change"]
fn generate_golden_fixtures() {
    std::fs::create_dir_all(fixture_path("x").parent().unwrap()).unwrap();
    for (name, rendered) in cases() {
        std::fs::write(fixture_path(name), rendered + "\n").unwrap();
    }
}

#[test]
fn reports_match_golden_fixtures() {
    for (name, rendered) in cases() {
        let fixture = read_fixture(name);
        let fixture = fixture.as_str();
        if BYTES_EXEMPT.contains(&name) {
            let got: FaultReport = serde_json::from_str(&rendered).unwrap();
            let mut want: FaultReport = serde_json::from_str(fixture).unwrap();
            want.sim.bytes = got.sim.bytes;
            assert_eq!(
                serde_json::to_string(&want).unwrap(),
                rendered,
                "{name} diverged from its fixture outside sim.bytes"
            );
        } else {
            assert_eq!(rendered, fixture, "{name} diverged from its fixture");
        }
    }
}

/// Tick at which the old-checkpoint fixture was cut.
const CHECKPOINT_AT: usize = 60;

/// What continuing the checkpointed run produces: per tick the applied
/// report count, the intermediate RMSE and whether a model retrained;
/// then the bank's queues and send counts, the stored values and the
/// 4-step forecast after the last tick.
#[derive(Serialize)]
struct Continuation {
    ticks: Vec<(usize, f64, bool)>,
    queues: Vec<f64>,
    sent: Vec<u64>,
    stored: Vec<f64>,
    forecast: Vec<Vec<f64>>,
}

/// Drives `controller` and `bank` over ticks `from..to` of the golden
/// trace: the bank decides against the controller's stored values and
/// every sending node (every node on tick 0) reports in one frame.
fn drive_ticks(
    controller: &mut Controller,
    bank: &mut TransmitterBank,
    from: usize,
    to: usize,
) -> Vec<(usize, f64, bool)> {
    let trace = trace();
    let mut frame = ReportFrame::new(1);
    let mut decisions = Vec::new();
    let mut ticks = Vec::new();
    for t in from..to {
        let x = trace.snapshot(Resource::Cpu, t).unwrap();
        let zs = if t == 0 {
            x.clone()
        } else {
            controller.stored().to_vec()
        };
        bank.decide_batch_against(&x, &zs, &mut decisions);
        frame.reset(t);
        for (node, (&v, &send)) in x.iter().zip(&decisions).enumerate() {
            if t == 0 || send {
                frame.push_scalar(node, v);
            }
        }
        let tick = controller
            .tick_frames(std::slice::from_ref(&frame))
            .unwrap();
        ticks.push((tick.reports_applied, tick.intermediate_rmse, tick.retrained));
    }
    ticks
}

/// Renders the end state of a driven run.
fn render_run(
    controller: &Controller,
    bank: &TransmitterBank,
    ticks: Vec<(usize, f64, bool)>,
) -> String {
    let continuation = Continuation {
        ticks,
        queues: bank.queues().to_vec(),
        sent: bank.sent_counts().to_vec(),
        stored: controller.stored().to_vec(),
        forecast: controller.forecast(4).unwrap(),
    };
    serde_json::to_string(&continuation).unwrap()
}

/// Continues a checkpointed run to the end of the golden trace.
fn continue_run(mut controller: Controller, mut bank: TransmitterBank) -> String {
    let ticks = drive_ticks(
        &mut controller,
        &mut bank,
        CHECKPOINT_AT,
        trace().num_steps(),
    );
    render_run(&controller, &bank, ticks)
}

/// The whole golden trace through a controller whose clusters forecast
/// with a hidden-4 LSTM: unlike the `SimReport`, the rendering carries
/// the model's forecasts.
fn lstm_run() -> String {
    let mut controller = Controller::new(ControllerConfig {
        num_nodes: trace().num_nodes(),
        k: 3,
        warmup: 30,
        retrain_every: 40,
        model: lstm_model(),
        ..Default::default()
    })
    .unwrap();
    let mut bank = TransmitterBank::new(TransmitConfig::with_budget(0.3), trace().num_nodes());
    let ticks = drive_ticks(&mut controller, &mut bank, 0, trace().num_steps());
    render_run(&controller, &bank, ticks)
}

fn read_fixture(name: &str) -> String {
    std::fs::read_to_string(fixture_path(name))
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"))
        .trim_end()
        .to_string()
}

/// A checkpoint written before the lane-kernel knobs were retired
/// (`old_checkpoint_*` fixtures) restores, and the restored controller and
/// bank continue the run bit for bit as the uninterrupted run did. The
/// checkpoint's compute options select the removed lane k-means kernel,
/// lane bank kernel and nested points, and its LSTM the removed lane
/// kernel at hidden 4; the bank of the recorded run decided with the lane
/// kernel too. Every one of them was bitwise-equal to the path that
/// replaces it.
#[test]
fn old_checkpoint_restores_and_continues_bitwise() {
    let snapshot: ControllerSnapshot =
        serde_json::from_str(&read_fixture("old_checkpoint_controller")).unwrap();
    let bank: TransmitterBank = serde_json::from_str(&read_fixture("old_checkpoint_bank")).unwrap();
    let controller = Controller::restore(snapshot).unwrap();
    assert_eq!(
        continue_run(controller, bank),
        read_fixture("old_checkpoint_continued"),
        "restored run diverged from the recorded continuation"
    );
}
