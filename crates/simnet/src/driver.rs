//! The one time-slotted loop behind every simulation entry point.
//!
//! Each slot runs once, in this order:
//!
//! 1. an optional controller crash, restored from the latest checkpoint;
//! 2. the fault plan's node up/down draws;
//! 3. the node side: each shard's [`TransmitterBank`] decides against the
//!    controller's stored values and builds the shard's [`ReportFrame`];
//! 4. the fault plan's frame stages (down nodes, partitions, loss,
//!    corruption);
//! 5. the optional [`DeliveryPlane`], with bandwidth metered at delivery;
//! 6. [`Controller::tick_frames`] over the delivered frames, in ascending
//!    shard order;
//! 7. the query probes, then the checkpoint cut.
//!
//! The node side runs on one of two executors: inline on the calling
//! thread (one bank for every node) or on supervised worker threads (one
//! bank per contiguous shard, see [`crate::threaded`]). Decisions depend
//! only on per-node transmitter state and the shared stored values, and
//! admission is per node and tick, so the executor never changes a
//! result.

use utilcast_core::metrics::{rmse_step_scalar, TimeAveragedRmse};
use utilcast_core::transmit::{TransmitConfig, TransmitterBank};
use utilcast_datasets::{Resource, Trace};

use crate::controller::{Controller, ControllerConfig};
use crate::faults::{FaultPlan, FaultReport, FaultStages};
use crate::link::{DeliveryPlane, LinkSummary};
use crate::sim::{SimConfig, SimReport};
use crate::threaded::{SupervisorOptions, Workers};
use crate::transport::{Meter, ReportFrame};
use crate::SimError;

/// Where the node side of the loop runs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Executor<'a> {
    /// On the calling thread, one bank for every node.
    Inline,
    /// On this many supervised worker threads, one bank per shard, under
    /// the given supervision (respawn budget, injected faults, checkpoint
    /// cadence).
    Workers(usize, &'a SupervisorOptions),
}

/// Checks the parameters every entry point shares: the budget, `k` and
/// the delivery plans.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for a budget outside `(0, 1]`,
/// `k == 0`, or a link probability outside `[0, 1]`.
pub(crate) fn validate(config: &SimConfig) -> Result<(), SimError> {
    if !(config.budget > 0.0 && config.budget <= 1.0) {
        return Err(SimError::InvalidConfig {
            reason: format!("budget must be within (0, 1], got {}", config.budget),
        });
    }
    if config.k == 0 {
        return Err(SimError::InvalidConfig {
            reason: "k must be positive".into(),
        });
    }
    config.delivery.validate()
}

/// Batch-decide scratch: the decision buffer, recycled across slots.
#[derive(Debug, Default)]
pub(crate) struct Decider {
    decisions: Vec<bool>,
}

impl Decider {
    /// Steps `bank` (nodes `lo..lo + xs.len()`) for slot `t` against the
    /// stored view `zs` and rebuilds `frame` from the nodes that send. On
    /// the bootstrap slot every node reports; its clock still advances.
    pub(crate) fn step(
        &mut self,
        bank: &mut TransmitterBank,
        lo: usize,
        t: usize,
        xs: &[f64],
        zs: &[f64],
        frame: &mut ReportFrame,
    ) {
        bank.decide_batch_against(xs, zs, &mut self.decisions);
        frame.reset(t);
        for (off, (&x, &send)) in xs.iter().zip(&self.decisions).enumerate() {
            if t == 0 || send {
                frame.push_scalar(lo + off, x);
            }
        }
    }
}

/// The node side of the loop on its executor.
enum Nodes {
    Inline(TransmitterBank, Decider),
    Workers(Workers),
}

/// Runs `config` over one resource of `trace`. `faults` switches on the
/// fault stages; the checkpoint cadence comes from the supervision options
/// or, inline, from the fault plan. Non-fault runs return zero fault
/// counters.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for invalid parameters and
/// [`SimError::WorkerFailed`] once a worker has died more often than
/// the respawn budget allows; propagates trace and controller errors.
pub(crate) fn drive(
    config: &SimConfig,
    trace: &Trace,
    resource: Resource,
    executor: Executor,
    faults: Option<&FaultPlan>,
) -> Result<FaultReport, SimError> {
    validate(config)?;
    if let Some(plan) = faults {
        plan.validate()?;
    }
    let n = trace.num_nodes();
    let steps = trace.num_steps();
    let mut controller = Controller::new(ControllerConfig {
        num_nodes: n,
        k: config.k,
        m: config.m,
        m_prime: config.m_prime,
        warmup: config.warmup,
        retrain_every: config.retrain_every,
        model: config.model.clone(),
        seed: config.seed,
        compute: config.compute,
        ..Default::default()
    })?;
    let tx = TransmitConfig {
        budget: config.budget,
        v0: config.v0,
        gamma: config.gamma,
    };
    let mut nodes = match executor {
        Executor::Inline => Nodes::Inline(TransmitterBank::new(tx, n), Decider::default()),
        Executor::Workers(shards, options) => {
            Nodes::Workers(Workers::spawn(tx, n, shards, options)?)
        }
    };
    let sources = match &nodes {
        Nodes::Inline(..) => 1,
        Nodes::Workers(workers) => workers.shards(),
    };
    let mut frames: Vec<ReportFrame> = (0..sources)
        .map(|_| ReportFrame::with_capacity(1, n.div_ceil(sources)))
        .collect();
    // A passthrough delivery configuration keeps the plane out of the
    // path entirely: frames go straight to the controller.
    let mut plane =
        (!config.delivery.is_passthrough()).then(|| DeliveryPlane::new(sources, &config.delivery));
    let mut inbox: Vec<ReportFrame> = Vec::new();
    let mut stages = faults.map(|plan| FaultStages::new(plan, n));

    let (checkpoint_every, crash_at) = match executor {
        Executor::Workers(_, options) => (options.checkpoint_every, options.controller_crash_at),
        Executor::Inline => (faults.map_or(0, |plan| plan.checkpoint_every), None),
    };
    let crash_prob = faults.map_or(0.0, |plan| plan.controller_crash_prob);
    let mut checkpoint = (checkpoint_every > 0 || crash_at.is_some() || crash_prob > 0.0)
        .then(|| controller.snapshot());
    let mut checkpoints = u64::from(checkpoint.is_some());
    let mut controller_crashes: u64 = 0;
    let meter = Meter::new();
    let mut staleness = TimeAveragedRmse::new();
    let mut intermediate = TimeAveragedRmse::new();
    let mut sent: u64 = 0;
    for t in 0..steps {
        // The crash draw is the fault stream's first draw of the slot.
        let drawn = stages.as_mut().is_some_and(FaultStages::controller_crashes);
        if drawn || crash_at == Some(t) {
            if let Some(cp) = &checkpoint {
                // Live state is gone; stored values regress to the
                // checkpoint until fresh reports land.
                controller = Controller::restore(cp.clone())?;
                controller_crashes += 1;
            }
        }
        if let Some(stages) = &mut stages {
            stages.evolve_nodes();
        }
        let x = trace.snapshot(resource, t)?;
        let zs: &[f64] = if t == 0 { &x } else { controller.stored() };
        match &mut nodes {
            Nodes::Inline(bank, decider) => {
                // lint:allow(panic-path): the inline executor has exactly one frame
                decider.step(bank, 0, t, &x, zs, &mut frames[0])
            }
            Nodes::Workers(workers) => workers.step(t, &x, zs, &mut frames)?,
        }
        for frame in &mut frames {
            sent += match &mut stages {
                Some(stages) => stages.apply(frame, n),
                None => frame.len(),
            } as u64;
        }
        let tick = match &mut plane {
            None => {
                for frame in &frames {
                    meter.record_frame(frame);
                }
                controller.tick_frames(&frames)?
            }
            Some(plane) => {
                for (source, frame) in frames.iter().enumerate() {
                    plane.submit(source, t, Some(frame), n);
                }
                plane.collect_into(t, &mut inbox);
                // Bandwidth is counted at delivery: lost frames cost
                // nothing, duplicates and retransmissions cost again.
                for frame in &inbox {
                    meter.record_frame(frame);
                }
                let tick = controller.tick_frames(&inbox)?;
                plane.ack_delivered(&inbox, t);
                tick
            }
        };
        staleness.add(rmse_step_scalar(controller.stored(), &x));
        intermediate.add(tick.intermediate_rmse);
        // Probes run before the checkpoint cut, so a restored controller
        // carries the same table generation and read counters.
        controller.serve_query_probes(config.query_probe)?;
        if checkpoint_every > 0 && (t + 1) % checkpoint_every == 0 {
            checkpoint = Some(controller.snapshot());
            checkpoints += 1;
        }
    }
    if let Nodes::Workers(workers) = nodes {
        workers.join();
    }
    let counts = stages.map(|s| s.counts).unwrap_or_default();
    Ok(FaultReport {
        sim: SimReport {
            steps,
            messages: meter.messages(),
            bytes: meter.bytes(),
            realized_frequency: sent as f64 / (steps as f64 * n as f64),
            staleness_rmse: staleness.value(),
            intermediate_rmse: intermediate.value(),
            quarantined: controller.quarantined(),
            model_fallbacks: controller.model_fallbacks(),
            fallback_fit_failures: controller.fallback_fit_failures(),
            duplicates: controller.duplicates(),
            mean_age: controller.age().mean(),
            peak_age: controller.age().peak(),
            masked_node_steps: controller.masked_node_steps(),
            link: plane
                .as_ref()
                .map_or_else(LinkSummary::default, DeliveryPlane::summary),
            forecast_table_rebuilds: controller.forecast_table_rebuilds(),
            forecast_reads_served: controller.forecast_reads_served(),
        },
        down_node_steps: counts.down_node_steps,
        lost_reports: counts.lost_reports,
        partitioned_reports: counts.partitioned_reports,
        corrupted_reports: counts.corrupted_reports,
        controller_crashes,
        checkpoints,
    })
}
