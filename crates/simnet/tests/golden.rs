//! Golden-report fixtures: every entry point of the driver is pinned to a
//! committed `serde_json::to_string` rendering of its report, so a change
//! to the tick loop that moves any bit of any field fails here.
//!
//! Regenerate (only when a behaviour change is intended and documented):
//!
//! ```text
//! cargo test -p utilcast-simnet --test golden -- --ignored generate_golden_fixtures
//! ```

use std::path::PathBuf;

use utilcast_core::compute::ComputeOptions;
use utilcast_core::transmit::ArqConfig;
use utilcast_datasets::{presets, Resource, Trace};
use utilcast_simnet::faults::{run_with_faults, FaultPlan, FaultReport, PartitionWindow};
use utilcast_simnet::link::{DeliveryOptions, LinkPlan};
use utilcast_simnet::sim::{SimConfig, Simulation};
use utilcast_simnet::threaded::{run_threaded_supervised, SupervisorOptions};

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
    let plain = SupervisorOptions::default();
    vec![
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
        let fixture = std::fs::read_to_string(fixture_path(name))
            .unwrap_or_else(|e| panic!("fixture {name}: {e}"));
        let fixture = fixture.trim_end();
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
