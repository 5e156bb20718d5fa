//! Seeded chaos suite: the full pipeline must survive compound faults —
//! node crashes, message loss, partitions, corrupted reports, controller
//! crashes, and forecaster fit failures — with every resilience mechanism
//! (ingress quarantine, model fallback, checkpoint recovery, worker
//! respawn) demonstrably active, and accuracy degrading by a bounded
//! factor rather than collapsing.

use proptest::prelude::*;
use std::collections::HashSet;
use utilcast_core::compute::ComputeOptions;
use utilcast_core::pipeline::ModelSpec;
use utilcast_core::transmit::ArqConfig;
use utilcast_datasets::{presets, Resource, Trace};
use utilcast_simnet::controller::{Controller, ControllerConfig};
use utilcast_simnet::faults::{run_with_faults, FaultPlan, PartitionWindow};
use utilcast_simnet::link::{DeliveryOptions, DeliveryPlane, LinkPlan};
use utilcast_simnet::sim::{SimConfig, Simulation};
use utilcast_simnet::threaded::{run_threaded, run_threaded_supervised, SupervisorOptions};
use utilcast_simnet::transport::ReportFrame;
use utilcast_timeseries::arima::{ArimaFitOptions, ArimaGrid};

fn chaos_trace() -> Trace {
    presets::google_like()
        .nodes(20)
        .steps(200)
        .seed(17)
        .generate()
}

fn chaos_config() -> SimConfig {
    SimConfig {
        k: 3,
        warmup: 30,
        retrain_every: 40,
        ..Default::default()
    }
}

/// A model spec that can never fit: an AutoArima grid with no candidate
/// orders always returns `FitDiverged`, deterministically exercising the
/// forecaster fallback chain.
fn unfittable_model() -> ModelSpec {
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

fn everything_plan() -> FaultPlan {
    FaultPlan {
        crash_prob: 0.005,
        restart_prob: 0.1,
        loss_prob: 0.05,
        controller_crash_prob: 0.02,
        corrupt_prob: 0.05,
        partitions: vec![PartitionWindow {
            start: 60,
            end: 90,
            node_start: 0,
            node_end: 7,
        }],
        checkpoint_every: 25,
        seed: 42,
    }
}

#[test]
fn compound_faults_leave_every_mechanism_active() {
    let trace = chaos_trace();
    let config = SimConfig {
        model: unfittable_model(),
        ..chaos_config()
    };
    let report = run_with_faults(&config, &trace, Resource::Cpu, &everything_plan()).unwrap();

    // The run completed end to end.
    assert_eq!(report.sim.steps, 200);
    assert!(report.sim.staleness_rmse.is_finite());
    assert!(report.sim.intermediate_rmse.is_finite());

    // Every fault class actually fired under this seed...
    assert!(report.down_node_steps > 0, "no node crashes fired");
    assert!(report.lost_reports > 0, "no message loss fired");
    assert!(
        report.partitioned_reports > 0,
        "partition never blocked a report"
    );
    assert!(report.corrupted_reports > 0, "no corruption fired");
    assert!(report.controller_crashes > 0, "no controller crash fired");
    assert!(report.checkpoints > 200 / 25);

    // ...and every resilience mechanism responded. (The quarantine counter
    // is controller state, so a controller crash rewinds it to the last
    // checkpoint — exact equality with `corrupted_reports` only holds in
    // crash-free runs, covered by the faults module's own tests.)
    assert!(
        report.sim.quarantined > 0,
        "ingress validation must quarantine corrupted reports"
    );
    assert!(
        report.sim.model_fallbacks > 0,
        "fit failures must activate the sample-and-hold fallback"
    );
}

#[test]
fn fault_rmse_stays_within_bounded_factor_of_control() {
    let trace = chaos_trace();
    let config = chaos_config();
    let clean = run_with_faults(&config, &trace, Resource::Cpu, &FaultPlan::none()).unwrap();
    let faulty = run_with_faults(&config, &trace, Resource::Cpu, &everything_plan()).unwrap();
    assert!(
        faulty.sim.staleness_rmse >= clean.sim.staleness_rmse,
        "faults cannot improve freshness"
    );
    // Graceful degradation: the compound-fault run stays within a small
    // constant factor of the no-fault control instead of diverging.
    assert!(
        faulty.sim.staleness_rmse <= 5.0 * clean.sim.staleness_rmse,
        "fault RMSE {} vs control {}",
        faulty.sim.staleness_rmse,
        clean.sim.staleness_rmse
    );
}

#[test]
fn crash_at_checkpoint_boundary_replays_bit_identically() {
    // A controller crash exactly at a checkpoint boundary restores a
    // snapshot that equals the live state, so the remainder of the run must
    // replay bit-identically against an undisturbed reference.
    let trace = chaos_trace();
    let config = chaos_config();
    let reference = run_threaded(&config, &trace, Resource::Cpu, 4).unwrap();
    let recovered = run_threaded_supervised(
        &config,
        &trace,
        Resource::Cpu,
        4,
        &SupervisorOptions {
            checkpoint_every: 20,
            controller_crash_at: Some(40),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(recovered, reference);
}

#[test]
fn lossy_links_mask_stale_nodes_and_still_complete() {
    // Heavy loss plus a staleness age limit: nodes fall behind, the
    // controller masks them out of the clustering stage instead of letting
    // ancient values distort it, and the run still finishes with bounded
    // error and a nonzero information age.
    let trace = chaos_trace();
    let config = SimConfig {
        compute: ComputeOptions {
            staleness_age_limit: 3,
            ..Default::default()
        },
        delivery: DeliveryOptions {
            link: LinkPlan {
                loss_prob: 0.4,
                delay_ticks: 1,
                jitter_ticks: 2,
                seed: 31,
                ..LinkPlan::perfect()
            },
            ..DeliveryOptions::none()
        },
        ..chaos_config()
    };
    let report = Simulation::new(config.clone())
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
    assert_eq!(report.steps, 200);
    assert!(report.link.lost > 0, "0.4 loss never fired");
    assert!(report.mean_age > 0.0, "loss must raise the information age");
    assert!(report.peak_age >= 3);
    assert!(
        report.masked_node_steps > 0,
        "an age limit of 3 under 40% loss must mask some node-steps"
    );
    assert!(report.staleness_rmse.is_finite() && report.staleness_rmse < 0.5);
    // The threaded driver completes under the same degraded plan.
    let threaded = run_threaded(&config, &trace, Resource::Cpu, 4).unwrap();
    assert_eq!(threaded.steps, 200);
    assert!(threaded.masked_node_steps > 0);
}

/// Builds the controller used by the exactly-once admission property: a
/// handful of nodes, warmup far beyond the horizon so every tick stays in
/// the cheap pre-forecast regime.
fn admission_controller(num_nodes: usize) -> Controller {
    Controller::new(ControllerConfig {
        num_nodes,
        k: 2,
        warmup: 1_000_000,
        retrain_every: 1_000_000,
        ..Default::default()
    })
    .unwrap()
}

proptest! {
    /// **Exactly-once admission under loss + delay + reorder + duplication.**
    /// Frames cross a degraded forward link with ARQ retransmission and a
    /// perfect ack link; however many copies of each frame the controller
    /// receives, and in whatever order, each sequence number is admitted at
    /// most once, every surplus copy is counted as a duplicate frame, and —
    /// whenever no frame exhausted its retransmission budget — every
    /// submitted frame is admitted eventually (at-least-once delivery).
    #[test]
    fn sequence_admission_is_exactly_once_under_chaos(
        loss in 0.0f64..0.6,
        dup in 0.0f64..0.3,
        reorder in 0.0f64..0.3,
        delay in 0usize..3,
        jitter in 0usize..3,
        seed in 0u64..1_000,
        ticks in 5usize..20,
    ) {
        let n = 4;
        let options = DeliveryOptions {
            link: LinkPlan {
                loss_prob: loss,
                dup_prob: dup,
                reorder_prob: reorder,
                delay_ticks: delay,
                jitter_ticks: jitter,
                seed,
                ..LinkPlan::perfect()
            },
            ack_link: LinkPlan::perfect(),
            arq: ArqConfig {
                timeout: 4,
                backoff_cap: 2,
                max_retransmits: 32,
            },
        };
        let mut plane = DeliveryPlane::new(1, &options);
        let mut controller = admission_controller(n);
        let mut inbox: Vec<ReportFrame> = Vec::new();
        let mut frame = ReportFrame::new(1);
        let mut distinct: HashSet<u64> = HashSet::new();
        let mut delivered_frames: u64 = 0;

        let mut ingest = |plane: &mut DeliveryPlane,
                          controller: &mut Controller,
                          inbox: &mut Vec<ReportFrame>,
                          t: usize|
         -> Result<(), TestCaseError> {
            plane.collect_into(t, inbox);
            for f in inbox.iter() {
                delivered_frames += 1;
                distinct.insert(f.seq().ok_or_else(|| {
                    TestCaseError::fail("delivered frame lost its sequence number")
                })?);
            }
            controller.tick_frames(inbox).map_err(|e| {
                TestCaseError::fail(format!("controller rejected a tick: {e}"))
            })?;
            plane.ack_delivered(inbox, t);
            Ok(())
        };

        for t in 0..ticks {
            frame.reset(t);
            for node in 0..n {
                frame.push_scalar(node, 0.25 + 0.1 * node as f64);
            }
            plane.submit(0, t, Some(&frame), n);
            ingest(&mut plane, &mut controller, &mut inbox, t)?;
        }
        // Drain: keep the clock running (acks, retransmissions, late
        // arrivals) until the plane settles or the bound proves it never
        // will. 32 retransmits at a backoff capped at 16 ticks settle well
        // inside this horizon.
        let mut t = ticks;
        while !plane.is_idle() && t < ticks + 1_000 {
            plane.submit(0, t, None, n);
            ingest(&mut plane, &mut controller, &mut inbox, t)?;
            t += 1;
        }
        prop_assert!(plane.is_idle(), "plane never settled within the drain bound");

        let summary = plane.summary();
        // Exactly-once admission: one admission per distinct sequence, and
        // every surplus copy accounted as a duplicate frame.
        prop_assert_eq!(controller.frames_admitted(), distinct.len() as u64);
        prop_assert_eq!(
            controller.duplicate_frames(),
            delivered_frames - distinct.len() as u64
        );
        // At-least-once delivery: unless a frame ran out its retransmission
        // budget, everything submitted was eventually admitted.
        if summary.abandoned == 0 {
            prop_assert_eq!(controller.frames_admitted(), ticks as u64);
        }
    }
}

#[test]
fn worker_and_controller_faults_compose() {
    // A worker panic and a mid-interval controller crash in the same run:
    // the supervisor respawns the shard and the controller resumes from its
    // checkpoint, and the run still completes with sane metrics.
    let trace = chaos_trace();
    let config = chaos_config();
    let report = run_threaded_supervised(
        &config,
        &trace,
        Resource::Cpu,
        4,
        &SupervisorOptions {
            checkpoint_every: 30,
            controller_crash_at: Some(77),
            worker_panic_at: Some((1, 110)),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.steps, 200);
    assert!(report.messages > 0);
    assert!(report.staleness_rmse.is_finite() && report.staleness_rmse < 0.5);
}
