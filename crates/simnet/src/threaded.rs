//! Supervised worker shards: the threaded executor of the driver loop.
//!
//! Nodes are partitioned into `shards` contiguous ranges, each stepped by
//! its own worker thread. Every slot the supervisor hands each worker a
//! job over a crossbeam channel — the shard's measurements and stored
//! values, its [`TransmitterBank`], and its recycled [`ReportFrame`] — and
//! collects the filled frames in ascending shard order for the
//! controller (see [`crate::driver`]). The run is **deterministic and
//! identical to the inline driver**, regardless of thread scheduling.
//!
//! The driver is *supervised*: when a worker thread panics, the supervisor
//! reaps it, respawns the shard, and re-runs the interrupted slot from the
//! shard's last good bank. That bank — one per shard, replaced after every
//! completed slot — is the whole recovery state, so it stays O(N) however
//! long the run. Only when the respawn budget is exhausted does the run
//! fail, with the worker's panic payload in [`SimError::WorkerFailed`].
//! The supervisor can also checkpoint the controller periodically and
//! restore it from the latest checkpoint on an (injected) controller crash
//! — see [`SupervisorOptions`].

use crossbeam::channel::{self, Receiver, Sender};
use std::any::Any;
use std::thread::{self, JoinHandle};
use utilcast_core::transmit::{TransmitConfig, TransmitterBank};
use utilcast_datasets::{Resource, Trace};

use crate::driver::{self, Decider, Executor};
use crate::sim::{SimConfig, SimReport};
use crate::transport::ReportFrame;
use crate::SimError;

/// Supervision parameters for [`run_threaded_supervised`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorOptions {
    /// Total worker respawns allowed across the run before giving up with
    /// [`SimError::WorkerFailed`].
    pub max_respawns: usize,
    /// Take a controller checkpoint every this many ticks (`0` = only the
    /// initial, pre-run checkpoint).
    pub checkpoint_every: usize,
    /// Fault injection for tests and chaos runs: the given `(shard, tick)`
    /// worker panics when it first processes that tick. The respawned
    /// worker does not re-panic.
    pub worker_panic_at: Option<(usize, usize)>,
    /// Fault injection: the controller crashes right before processing the
    /// given tick, losing its live state, and is restored from the latest
    /// checkpoint.
    pub controller_crash_at: Option<usize>,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            max_respawns: 3,
            checkpoint_every: 0,
            worker_panic_at: None,
            controller_crash_at: None,
        }
    }
}

/// One slot of work for one shard: the worker steps `bank`, refills
/// `frame`, and sends the job back.
struct Job {
    t: usize,
    xs: Vec<f64>,
    zs: Vec<f64>,
    bank: TransmitterBank,
    frame: ReportFrame,
}

/// The worker thread body for the shard starting at node `lo`.
fn worker_loop(lo: usize, jobs: Receiver<Job>, done: Sender<Job>, panic_at: Option<usize>) {
    let mut decider = Decider::default();
    while let Ok(mut job) = jobs.recv() {
        if panic_at == Some(job.t) {
            // lint:allow(panic): injected fault for the chaos suite;
            // the supervisor must observe a real worker panic
            panic!(
                "injected fault: worker for nodes {lo}..{} at tick {}",
                lo + job.xs.len(),
                job.t
            );
        }
        decider.step(&mut job.bank, lo, job.t, &job.xs, &job.zs, &mut job.frame);
        if done.send(job).is_err() {
            break;
        }
    }
}

/// Renders a worker's panic payload for [`SimError::WorkerFailed`].
fn panic_reason(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// One shard's worker and its recovery state.
struct Worker {
    lo: usize,
    hi: usize,
    /// The shard's bank as of its last completed slot.
    bank: TransmitterBank,
    jobs: Sender<Job>,
    done: Receiver<Job>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    fn spawn(lo: usize, hi: usize, bank: TransmitterBank, panic_at: Option<usize>) -> Self {
        let (jobs, job_rx) = channel::unbounded::<Job>();
        let (done_tx, done) = channel::unbounded::<Job>();
        let handle = thread::spawn(move || worker_loop(lo, job_rx, done_tx, panic_at));
        Worker {
            lo,
            hi,
            bank,
            jobs,
            done,
            handle: Some(handle),
        }
    }

    /// Sends slot `t` with a copy of the last good bank. A dead worker
    /// drops the job; the receive side notices.
    // lint:allow(panic-path): fn-scope audit: `lo..hi` is one of the
    // contiguous ranges `Workers::spawn` cut from `0..n`, and both slices
    // span all `n` nodes; exemplar chain: simnet::threaded::Workers::step
    // -> simnet::threaded::Worker::send
    fn send(&self, t: usize, x: &[f64], zs: &[f64], frame: ReportFrame) {
        let (lo, hi) = (self.lo, self.hi);
        let _ = self.jobs.send(Job {
            t,
            xs: x[lo..hi].to_vec(),
            zs: zs[lo..hi].to_vec(),
            bank: self.bank.clone(),
            frame,
        });
    }
}

/// The supervised worker executor: one worker per contiguous shard.
pub(crate) struct Workers {
    respawns_left: usize,
    workers: Vec<Worker>,
}

impl Workers {
    /// Spawns `shards` workers (clamped to `n`) over near-equal
    /// contiguous node ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for `shards == 0`.
    pub(crate) fn spawn(
        tx: TransmitConfig,
        n: usize,
        shards: usize,
        options: &SupervisorOptions,
    ) -> Result<Self, SimError> {
        if shards == 0 {
            return Err(SimError::InvalidConfig {
                reason: "shards must be positive".into(),
            });
        }
        let shards = shards.min(n);
        let workers = (0..shards)
            .map(|s| {
                // lint:allow(panic-path): shards == 0 is rejected above
                let (lo, hi) = (s * n / shards, (s + 1) * n / shards);
                let panic_at = options
                    .worker_panic_at
                    .and_then(|(ps, pt)| (ps == s).then_some(pt));
                Worker::spawn(lo, hi, TransmitterBank::new(tx, hi - lo), panic_at)
            })
            .collect();
        Ok(Workers {
            respawns_left: options.max_respawns,
            workers,
        })
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Runs slot `t` on every shard and collects the shard frames into
    /// `frames` (one per shard, ascending). A worker that dies is reaped,
    /// respawned from its last good bank, and re-run on the same slot.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WorkerFailed`] once the respawn budget is spent.
    pub(crate) fn step(
        &mut self,
        t: usize,
        x: &[f64],
        zs: &[f64],
        frames: &mut [ReportFrame],
    ) -> Result<(), SimError> {
        for (worker, frame) in self.workers.iter().zip(frames.iter_mut()) {
            worker.send(t, x, zs, std::mem::replace(frame, ReportFrame::new(1)));
        }
        for (s, (worker, frame)) in self.workers.iter_mut().zip(frames).enumerate() {
            loop {
                if let Ok(job) = worker.done.recv() {
                    worker.bank = job.bank;
                    *frame = job.frame;
                    break;
                }
                let reason = match worker.handle.take().map(JoinHandle::join) {
                    Some(Err(payload)) => panic_reason(payload),
                    Some(Ok(())) => "worker exited unexpectedly".to_string(),
                    None => "worker already reaped".to_string(),
                };
                if self.respawns_left == 0 {
                    return Err(SimError::WorkerFailed { shard: s, reason });
                }
                self.respawns_left -= 1;
                let bank = worker.bank.clone();
                *worker = Worker::spawn(worker.lo, worker.hi, bank, None);
                worker.send(t, x, zs, ReportFrame::new(1));
            }
        }
        Ok(())
    }

    /// Shuts the workers down and joins them.
    pub(crate) fn join(self) {
        for worker in self.workers {
            drop(worker.jobs);
            if let Some(handle) = worker.handle {
                let _ = handle.join();
            }
        }
    }
}

/// Runs the simulation with node decisions distributed over `shards`
/// worker threads. Produces the same [`SimReport`] as
/// [`crate::sim::Simulation::run`] for the same inputs. Equivalent to
/// [`run_threaded_supervised`] with default [`SupervisorOptions`].
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for invalid parameters or
/// `shards == 0`, and [`SimError::WorkerFailed`] if a worker dies more
/// often than the respawn budget allows.
pub fn run_threaded(
    config: &SimConfig,
    trace: &Trace,
    resource: Resource,
    shards: usize,
) -> Result<SimReport, SimError> {
    run_threaded_supervised(
        config,
        trace,
        resource,
        shards,
        &SupervisorOptions::default(),
    )
}

/// The supervised threaded driver: like [`run_threaded`], plus worker
/// respawn from each shard's last good bank, periodic controller
/// checkpointing, and fault injection (see [`SupervisorOptions`]).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for invalid parameters or
/// `shards == 0`, and [`SimError::WorkerFailed`] (carrying the panic
/// payload) once a worker has died more often than `max_respawns` allows.
pub fn run_threaded_supervised(
    config: &SimConfig,
    trace: &Trace,
    resource: Resource,
    shards: usize,
    options: &SupervisorOptions,
) -> Result<SimReport, SimError> {
    let executor = Executor::Workers(shards, options);
    driver::drive(config, trace, resource, executor, None).map(|r| r.sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use utilcast_datasets::presets;

    fn quick_config() -> SimConfig {
        SimConfig {
            k: 3,
            warmup: 30,
            retrain_every: 40,
            ..Default::default()
        }
    }

    #[test]
    fn threaded_matches_reference_driver() {
        let trace = presets::google_like()
            .nodes(20)
            .steps(120)
            .seed(9)
            .generate();
        let reference = Simulation::new(quick_config())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        for shards in [1, 3, 7] {
            let threaded = run_threaded(&quick_config(), &trace, Resource::Cpu, shards).unwrap();
            assert_eq!(threaded, reference, "{shards} shards diverged");
        }
    }

    #[test]
    fn query_probes_match_reference_driver_and_survive_crashes() {
        let trace = presets::google_like()
            .nodes(20)
            .steps(120)
            .seed(9)
            .generate();
        let probed_config = SimConfig {
            query_probe: 3,
            ..quick_config()
        };
        let reference = Simulation::new(probed_config.clone())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        assert_eq!(reference.forecast_reads_served, 3 * 120);
        assert_eq!(reference.forecast_table_rebuilds, 120);
        for shards in [1, 3] {
            let threaded = run_threaded(&probed_config, &trace, Resource::Cpu, shards).unwrap();
            assert_eq!(threaded, reference, "{shards} shards diverged with probes");
        }
        // A controller crash restored from checkpoint must replay the probe
        // stream (generation + read counters ride in the snapshot).
        let crashed = run_threaded_supervised(
            &probed_config,
            &trace,
            Resource::Cpu,
            3,
            &SupervisorOptions {
                controller_crash_at: Some(60),
                checkpoint_every: 20,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(crashed, reference, "crash recovery diverged with probes");
    }

    #[test]
    fn worker_panic_recovery_is_bit_identical_in_frame_mode() {
        let trace = presets::google_like()
            .nodes(20)
            .steps(120)
            .seed(9)
            .generate();
        let reference = Simulation::new(quick_config())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        // The dying worker takes its recycled frame buffer and its bank
        // with it; the respawn restarts from the last good bank.
        let supervised = run_threaded_supervised(
            &quick_config(),
            &trace,
            Resource::Cpu,
            4,
            &SupervisorOptions {
                worker_panic_at: Some((1, 33)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(supervised, reference);
    }

    #[test]
    fn forced_delivery_plane_matches_seed_across_shards() {
        // Perfect links + ARQ force every frame through the delivery plane
        // in the threaded driver too; the run must stay bit-identical to
        // the plain threaded run (which itself matches the reference) in
        // every field except the plane's own accounting.
        use crate::link::{DeliveryOptions, LinkSummary};
        use utilcast_core::transmit::ArqConfig;
        let trace = presets::google_like()
            .nodes(20)
            .steps(120)
            .seed(9)
            .generate();
        let seed = Simulation::new(quick_config())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        let planed_config = SimConfig {
            delivery: DeliveryOptions {
                arq: ArqConfig {
                    timeout: 4,
                    backoff_cap: 3,
                    max_retransmits: 8,
                },
                ..DeliveryOptions::none()
            },
            ..quick_config()
        };
        for shards in [1, 3, 7] {
            let planed = run_threaded(&planed_config, &trace, Resource::Cpu, shards).unwrap();
            assert_eq!(planed.link.retransmits, 0, "perfect links never time out");
            assert!(planed.link.sent >= 120, "at least one frame per tick");
            assert_eq!(planed.link.sent, planed.link.delivered);
            let neutral = SimReport {
                link: LinkSummary::default(),
                ..planed
            };
            assert_eq!(neutral, seed, "{shards} shards diverged under the plane");
        }
    }

    #[test]
    fn lossy_links_in_threaded_driver_match_reference_driver() {
        // A degraded plan is still fully deterministic: per-shard RNG
        // streams derive from (seed, shard), so the threaded driver with
        // the same shard count as the reference's plane must agree with
        // itself run-to-run and complete with sane metrics.
        use crate::link::{DeliveryOptions, LinkPlan};
        use utilcast_core::transmit::ArqConfig;
        let trace = presets::google_like()
            .nodes(20)
            .steps(120)
            .seed(9)
            .generate();
        let config = SimConfig {
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
                arq: ArqConfig {
                    timeout: 6,
                    backoff_cap: 3,
                    max_retransmits: 10,
                },
                ..DeliveryOptions::none()
            },
            ..quick_config()
        };
        let a = run_threaded(&config, &trace, Resource::Cpu, 4).unwrap();
        let b = run_threaded(&config, &trace, Resource::Cpu, 4).unwrap();
        assert_eq!(a, b, "lossy threaded run must be reproducible");
        assert!(a.link.lost > 0, "0.2 loss never fired");
        assert!(a.link.retransmits > 0, "loss must trigger retransmission");
        assert!(a.staleness_rmse.is_finite());
        assert_eq!(a.steps, 120);
    }

    #[test]
    fn more_shards_than_nodes_is_clamped() {
        let trace = presets::alibaba_like()
            .nodes(4)
            .steps(40)
            .seed(2)
            .generate();
        let report = run_threaded(&quick_config(), &trace, Resource::Memory, 16);
        // k=3 <= 4 nodes, so this must succeed.
        assert!(report.is_ok());
    }

    #[test]
    fn zero_shards_rejected() {
        let trace = presets::alibaba_like().nodes(4).steps(10).generate();
        assert!(matches!(
            run_threaded(&quick_config(), &trace, Resource::Cpu, 0),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn worker_panic_recovery_is_bit_identical() {
        let trace = presets::google_like()
            .nodes(20)
            .steps(120)
            .seed(9)
            .generate();
        let config = quick_config();
        let reference = Simulation::new(config.clone())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        // Shard 2 dies mid-run; the supervisor must restore its bank so
        // exactly the same reports flow afterwards.
        let supervised = run_threaded_supervised(
            &config,
            &trace,
            Resource::Cpu,
            4,
            &SupervisorOptions {
                worker_panic_at: Some((2, 57)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(supervised, reference);
    }

    #[test]
    fn exhausted_respawn_budget_surfaces_panic_payload() {
        let trace = presets::alibaba_like()
            .nodes(8)
            .steps(30)
            .seed(1)
            .generate();
        let err = run_threaded_supervised(
            &quick_config(),
            &trace,
            Resource::Cpu,
            2,
            &SupervisorOptions {
                max_respawns: 0,
                worker_panic_at: Some((1, 5)),
                ..Default::default()
            },
        )
        .unwrap_err();
        match err {
            SimError::WorkerFailed { shard, reason } => {
                assert_eq!(shard, 1);
                assert!(reason.contains("injected fault"), "reason: {reason}");
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    }

    #[test]
    fn controller_crash_recovers_from_checkpoint() {
        let trace = presets::google_like()
            .nodes(12)
            .steps(100)
            .seed(6)
            .generate();
        let report = run_threaded_supervised(
            &quick_config(),
            &trace,
            Resource::Cpu,
            3,
            &SupervisorOptions {
                checkpoint_every: 20,
                controller_crash_at: Some(47),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.steps, 100);
        assert!(report.staleness_rmse.is_finite());
        assert!(report.messages > 0);
    }
}
