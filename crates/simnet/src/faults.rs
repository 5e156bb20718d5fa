//! Fault injection: node crashes, restarts, message loss, network
//! partitions, report corruption, and controller crashes.
//!
//! Real monitoring systems lose reports — machines crash, agents hang,
//! packets drop, switches partition racks away, and bit flips corrupt
//! payloads. The paper's controller design is naturally robust to most of
//! this (a missing report just leaves the stored value stale; a corrupt
//! report is quarantined at ingress), and this module lets the simulation
//! quantify that robustness: a [`FaultPlan`] drives which nodes are down
//! at each tick, which reports are dropped, delayed behind a partition, or
//! corrupted in flight, and when the controller itself crashes and must
//! resume from its latest checkpoint. [`run_with_faults`] executes a full
//! simulation under the plan: the driver loop (see [`crate::driver`]) with
//! the plan's stages switched on, ahead of the delivery plane configured
//! by [`SimConfig::delivery`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use utilcast_datasets::{Resource, Trace};

use crate::driver::{self, Executor};
use crate::link::LinkPayload;
use crate::sim::{SimConfig, SimReport};
use crate::transport::ReportFrame;
use crate::SimError;

/// A timed network partition: nodes in `nodes.start..nodes.end` cannot
/// reach the controller during ticks `steps.start..steps.end` (both ranges
/// end-exclusive). Partitioned reports consume the sender's budget but are
/// never delivered.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// First tick of the partition.
    pub start: usize,
    /// One past the last tick of the partition.
    pub end: usize,
    /// First node cut off.
    pub node_start: usize,
    /// One past the last node cut off.
    pub node_end: usize,
}

impl PartitionWindow {
    fn covers(&self, t: usize, node: usize) -> bool {
        (self.start..self.end).contains(&t) && (self.node_start..self.node_end).contains(&node)
    }
}

/// Stochastic fault model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-step probability that an up node crashes.
    pub crash_prob: f64,
    /// Per-step probability that a down node restarts.
    pub restart_prob: f64,
    /// Probability that any individual report is lost in flight.
    pub loss_prob: f64,
    /// Per-step probability that the controller crashes, losing its live
    /// state, and resumes from the latest checkpoint.
    pub controller_crash_prob: f64,
    /// Probability that a delivered report arrives corrupted (NaN, huge
    /// or negative value, or bogus node id — the link's width-preserving
    /// corruption modes). Corrupted reports still consume bandwidth; the
    /// controller's ingress validation quarantines them.
    pub corrupt_prob: f64,
    /// Deterministic network partition windows.
    pub partitions: Vec<PartitionWindow>,
    /// Take a controller checkpoint every this many ticks (`0` = only the
    /// initial, pre-run checkpoint).
    pub checkpoint_every: usize,
    /// RNG seed for fault sampling.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            crash_prob: 0.001,
            restart_prob: 0.05,
            loss_prob: 0.01,
            controller_crash_prob: 0.0,
            corrupt_prob: 0.0,
            partitions: Vec::new(),
            checkpoint_every: 0,
            seed: 0,
        }
    }
}

impl FaultPlan {
    /// A plan with no faults at all (control condition).
    pub fn none() -> Self {
        FaultPlan {
            crash_prob: 0.0,
            restart_prob: 1.0,
            loss_prob: 0.0,
            controller_crash_prob: 0.0,
            corrupt_prob: 0.0,
            partitions: Vec::new(),
            checkpoint_every: 0,
            seed: 0,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), SimError> {
        for (name, v) in [
            ("crash_prob", self.crash_prob),
            ("restart_prob", self.restart_prob),
            ("loss_prob", self.loss_prob),
            ("controller_crash_prob", self.controller_crash_prob),
            ("corrupt_prob", self.corrupt_prob),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(SimError::InvalidConfig {
                    reason: format!("{name} must be within [0, 1], got {v}"),
                });
            }
        }
        for (i, w) in self.partitions.iter().enumerate() {
            if w.start >= w.end || w.node_start >= w.node_end {
                return Err(SimError::InvalidConfig {
                    reason: format!(
                        "partition {i} must have non-empty step and node ranges, \
                         got steps {}..{} nodes {}..{}",
                        w.start, w.end, w.node_start, w.node_end
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Results of a faulty run, extending [`SimReport`] with fault accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// The base simulation metrics.
    pub sim: SimReport,
    /// Node-steps spent crashed.
    pub down_node_steps: u64,
    /// Reports dropped in flight.
    pub lost_reports: u64,
    /// Reports blocked by a partition window.
    pub partitioned_reports: u64,
    /// Reports delivered corrupted (the controller quarantines these).
    pub corrupted_reports: u64,
    /// Controller crash/recovery events.
    pub controller_crashes: u64,
    /// Controller checkpoints taken (including the initial one, when any
    /// checkpointing is enabled).
    pub checkpoints: u64,
}

/// The fault stages' running totals (the fault fields of [`FaultReport`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FaultCounts {
    pub(crate) down_node_steps: u64,
    pub(crate) lost_reports: u64,
    pub(crate) partitioned_reports: u64,
    pub(crate) corrupted_reports: u64,
}

/// A [`FaultPlan`]'s per-slot stages, run by the driver loop. All draws
/// come from one stream seeded by the plan, in a fixed order per slot: the
/// controller-crash draw (only when its probability is positive), one
/// up/down draw per node, then — for each up node that sends, in ascending
/// node order — the partition check, the loss draw, and the corruption
/// draws (only when the corruption probability is positive).
pub(crate) struct FaultStages<'a> {
    plan: &'a FaultPlan,
    rng: StdRng,
    up: Vec<bool>,
    /// Recycled output buffer of [`FaultStages::apply`].
    scratch: ReportFrame,
    pub(crate) counts: FaultCounts,
}

impl<'a> FaultStages<'a> {
    pub(crate) fn new(plan: &'a FaultPlan, num_nodes: usize) -> Self {
        FaultStages {
            plan,
            rng: StdRng::seed_from_u64(plan.seed),
            up: vec![true; num_nodes],
            scratch: ReportFrame::new(1),
            counts: FaultCounts::default(),
        }
    }

    /// Whether the controller crashes this slot. Drawn only when the
    /// probability is positive, so plans without controller faults keep
    /// their stream.
    pub(crate) fn controller_crashes(&mut self) -> bool {
        self.plan.controller_crash_prob > 0.0
            && self.rng.gen::<f64>() < self.plan.controller_crash_prob
    }

    /// Crashes up nodes and restarts down ones.
    pub(crate) fn evolve_nodes(&mut self) {
        for flag in &mut self.up {
            if *flag {
                if self.rng.gen::<f64>() < self.plan.crash_prob {
                    *flag = false;
                }
            } else if self.rng.gen::<f64>() < self.plan.restart_prob {
                *flag = true;
            }
        }
        self.counts.down_node_steps += self.up.iter().filter(|&&u| !u).count() as u64;
    }

    /// Runs the frame stages over one shard frame in place: down nodes'
    /// decisions are dropped, then partitioned and lost reports, and the
    /// survivors may be corrupted. Returns the reports up nodes sent —
    /// partitioned and lost ones included, since they spent budget.
    pub(crate) fn apply(&mut self, frame: &mut ReportFrame, num_nodes: usize) -> usize {
        let t = frame.t();
        self.scratch.reset(t);
        let mut sent = 0;
        for e in frame.iter() {
            if self.up.get(e.node) != Some(&true) {
                continue;
            }
            sent += 1;
            if self.plan.partitions.iter().any(|w| w.covers(t, e.node)) {
                self.counts.partitioned_reports += 1;
            } else if self.rng.gen::<f64>() < self.plan.loss_prob {
                self.counts.lost_reports += 1;
            } else {
                self.scratch.push(e.node, e.values);
                if self.plan.corrupt_prob > 0.0 && self.rng.gen::<f64>() < self.plan.corrupt_prob {
                    let variant = self.rng.gen_range(0..4usize);
                    let last = self.scratch.len() - 1;
                    self.scratch.corrupt_entry(last, variant, num_nodes);
                    self.counts.corrupted_reports += 1;
                }
            }
        }
        std::mem::swap(frame, &mut self.scratch);
        sent
    }
}

/// Runs the simulation under a fault plan. Crashed nodes neither measure
/// nor transmit, but their transmitter clock keeps running — the budget is
/// per wall-clock step, and a down node's decision is dropped before it
/// reaches the frame; lost and partitioned reports consume the sender's
/// budget but never reach the controller, exactly as a UDP-style telemetry
/// channel behaves; corrupted reports arrive (and cost bandwidth) but are
/// quarantined by the controller's ingress validation; a controller crash
/// discards all live state and restores the latest checkpoint. Surviving
/// reports then cross [`SimConfig::delivery`] and feed the query probes of
/// [`SimConfig::query_probe`], as in every other entry point.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for invalid probabilities or empty
/// partition windows, and propagates controller errors.
pub fn run_with_faults(
    config: &SimConfig,
    trace: &Trace,
    resource: Resource,
    plan: &FaultPlan,
) -> Result<FaultReport, SimError> {
    driver::drive(config, trace, resource, Executor::Inline, Some(plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use utilcast_datasets::presets;

    fn quick_config() -> SimConfig {
        SimConfig {
            k: 3,
            warmup: 50,
            retrain_every: 60,
            ..Default::default()
        }
    }

    #[test]
    fn no_fault_plan_matches_reference_driver() {
        let trace = presets::alibaba_like()
            .nodes(15)
            .steps(150)
            .seed(3)
            .generate();
        let clean =
            run_with_faults(&quick_config(), &trace, Resource::Cpu, &FaultPlan::none()).unwrap();
        let reference = Simulation::new(quick_config())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        assert_eq!(clean.sim, reference);
        assert_eq!(clean.down_node_steps, 0);
        assert_eq!(clean.lost_reports, 0);
        assert_eq!(clean.partitioned_reports, 0);
        assert_eq!(clean.corrupted_reports, 0);
        assert_eq!(clean.controller_crashes, 0);
    }

    #[test]
    fn fault_runs_honour_delivery_and_query_probes() {
        // A fault run is the same loop as the inline driver: with no
        // faults it must apply the configured delivery plane and serve the
        // configured query probes, bit for bit.
        use crate::link::{DeliveryOptions, LinkPlan};
        use utilcast_core::transmit::ArqConfig;
        let trace = presets::alibaba_like()
            .nodes(15)
            .steps(150)
            .seed(3)
            .generate();
        let config = SimConfig {
            query_probe: 3,
            delivery: DeliveryOptions {
                link: LinkPlan {
                    loss_prob: 0.2,
                    delay_ticks: 1,
                    jitter_ticks: 1,
                    dup_prob: 0.05,
                    seed: 41,
                    ..LinkPlan::perfect()
                },
                arq: ArqConfig {
                    timeout: 3,
                    backoff_cap: 3,
                    max_retransmits: 10,
                },
                ..DeliveryOptions::none()
            },
            ..quick_config()
        };
        let faulty = run_with_faults(&config, &trace, Resource::Cpu, &FaultPlan::none()).unwrap();
        let reference = Simulation::new(config)
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        assert!(reference.link.lost > 0, "0.2 loss never fired");
        assert_eq!(reference.forecast_reads_served, 3 * 150);
        assert_eq!(faulty.sim, reference);
    }

    #[test]
    fn faults_increase_staleness_but_do_not_crash() {
        let trace = presets::google_like()
            .nodes(20)
            .steps(300)
            .seed(5)
            .generate();
        let clean =
            run_with_faults(&quick_config(), &trace, Resource::Cpu, &FaultPlan::none()).unwrap();
        let faulty = run_with_faults(
            &quick_config(),
            &trace,
            Resource::Cpu,
            &FaultPlan {
                crash_prob: 0.01,
                restart_prob: 0.05,
                loss_prob: 0.1,
                seed: 7,
                ..FaultPlan::none()
            },
        )
        .unwrap();
        assert!(faulty.down_node_steps > 0);
        assert!(faulty.lost_reports > 0);
        assert!(
            faulty.sim.staleness_rmse > clean.sim.staleness_rmse,
            "faults must cost accuracy: {} vs {}",
            faulty.sim.staleness_rmse,
            clean.sim.staleness_rmse
        );
        // The mechanism degrades gracefully: error stays bounded.
        assert!(faulty.sim.staleness_rmse < 0.5);
    }

    #[test]
    fn lost_reports_consume_budget_but_not_bandwidth() {
        let trace = presets::bitbrains_like()
            .nodes(10)
            .steps(200)
            .seed(9)
            .generate();
        let lossy = run_with_faults(
            &quick_config(),
            &trace,
            Resource::Cpu,
            &FaultPlan {
                crash_prob: 0.0,
                restart_prob: 1.0,
                loss_prob: 0.5,
                seed: 11,
                ..FaultPlan::none()
            },
        )
        .unwrap();
        // Roughly half the sent reports are delivered.
        let total_sent = (lossy.sim.realized_frequency * 200.0 * 10.0).round() as u64;
        assert!(lossy.sim.messages < total_sent);
        assert_eq!(lossy.lost_reports + lossy.sim.messages, total_sent);
    }

    #[test]
    fn partition_blocks_reports_deterministically() {
        let trace = presets::alibaba_like()
            .nodes(10)
            .steps(100)
            .seed(2)
            .generate();
        let plan = FaultPlan {
            partitions: vec![PartitionWindow {
                start: 20,
                end: 40,
                node_start: 0,
                node_end: 5,
            }],
            ..FaultPlan::none()
        };
        let report = run_with_faults(&quick_config(), &trace, Resource::Cpu, &plan).unwrap();
        assert!(report.partitioned_reports > 0);
        assert_eq!(report.lost_reports, 0);
        // Blocked reports consumed budget but not bandwidth.
        let total_sent = (report.sim.realized_frequency * 100.0 * 10.0).round() as u64;
        assert_eq!(report.partitioned_reports + report.sim.messages, total_sent);
    }

    #[test]
    fn corrupted_reports_are_quarantined_not_applied() {
        let trace = presets::google_like()
            .nodes(10)
            .steps(200)
            .seed(8)
            .generate();
        let plan = FaultPlan {
            corrupt_prob: 0.2,
            seed: 13,
            ..FaultPlan::none()
        };
        let report = run_with_faults(&quick_config(), &trace, Resource::Cpu, &plan).unwrap();
        assert!(report.corrupted_reports > 0);
        // Every corrupted report is caught at ingress (all four corruption
        // modes produce invalid reports for in-range [0, 1] traces).
        assert_eq!(report.sim.quarantined, report.corrupted_reports);
        // Stored state never absorbed a corrupt value.
        assert!(report.sim.staleness_rmse < 0.5);
    }

    #[test]
    fn controller_crashes_recover_from_checkpoints() {
        let trace = presets::google_like()
            .nodes(12)
            .steps(200)
            .seed(4)
            .generate();
        let plan = FaultPlan {
            controller_crash_prob: 0.02,
            checkpoint_every: 25,
            seed: 21,
            ..FaultPlan::none()
        };
        let report = run_with_faults(&quick_config(), &trace, Resource::Cpu, &plan).unwrap();
        assert!(report.controller_crashes > 0);
        assert!(report.checkpoints > 200 / 25);
        assert!(report.sim.staleness_rmse.is_finite());
        // Recovery costs some freshness but the run stays bounded.
        assert!(report.sim.staleness_rmse < 0.5);
    }

    #[test]
    fn invalid_probabilities_rejected() {
        let trace = presets::alibaba_like().nodes(4).steps(10).generate();
        for plan in [
            FaultPlan {
                loss_prob: 1.5,
                ..FaultPlan::none()
            },
            FaultPlan {
                controller_crash_prob: -0.1,
                ..FaultPlan::none()
            },
            FaultPlan {
                corrupt_prob: 2.0,
                ..FaultPlan::none()
            },
            FaultPlan {
                partitions: vec![PartitionWindow {
                    start: 10,
                    end: 10,
                    node_start: 0,
                    node_end: 4,
                }],
                ..FaultPlan::none()
            },
        ] {
            assert!(matches!(
                run_with_faults(&quick_config(), &trace, Resource::Cpu, &plan),
                Err(SimError::InvalidConfig { .. })
            ));
        }
    }
}
