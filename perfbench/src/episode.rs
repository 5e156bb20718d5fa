//! One episode: a fresh controller run over the workload's trace from
//! slot 0, timed from `Controller::new` through the first training tick
//! (set-up) and then over a fixed number of slots (the timed region).

use std::time::Instant;

use utilcast_core::cluster::{DynamicClusterer, DynamicClustererConfig};
use utilcast_core::metrics::{rmse_step_scalar, TimeAveragedRmse};
use utilcast_core::stage::{ForecastStage, ForecastStageConfig};
use utilcast_datasets::{Resource, Trace};
use utilcast_simnet::sim::SimReport;

use crate::spans::{Layer, Recorder};
use crate::tickloop::TickLoop;
use crate::workload::Workload;

/// The scored outcome of an episode. Every episode of a run replays the
/// same inputs, so these must agree bit for bit across episodes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Eq. 4 with `h = 0` over the whole episode.
    pub staleness_rmse: f64,
    /// Data-vs-centroid RMSE over the whole episode.
    pub intermediate_rmse: f64,
    /// Eq. 3/4 per-node RMSE of table answers at `t + 1`.
    pub forecast_rmse_h1: f64,
    /// Eq. 3/4 per-node RMSE of table answers at `t + H`.
    pub forecast_rmse_h16: f64,
    /// Delivered wire bytes per node and slot.
    pub wire_bytes_per_node_step: f64,
}

impl Quality {
    /// Bitwise equality (the replay check).
    pub fn same_bits(&self, other: &Quality) -> bool {
        let bits = |q: &Quality| {
            [
                q.staleness_rmse,
                q.intermediate_rmse,
                q.forecast_rmse_h1,
                q.forecast_rmse_h16,
                q.wire_bytes_per_node_step,
            ]
            .map(f64::to_bits)
        };
        bits(self) == bits(other)
    }
}

/// Per-layer counters over the timed regions of a run's traced episodes.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Frame entries sent.
    pub sent: u64,
    /// Modelled bytes of the frames built.
    pub frame_bytes: u64,
    /// Frames handed to the controller.
    pub delivered: u64,
    /// Frames lost on the forward link.
    pub lost: u64,
    /// Frames duplicated on the forward link.
    pub duplicated: u64,
    /// ARQ retransmissions.
    pub retransmits: u64,
    /// Sequence-numbered frames admitted exactly once.
    pub frames_admitted: u64,
    /// Frames dropped by sequence dedup.
    pub duplicate_frames: u64,
    /// Ticks that (re)trained a model.
    pub retrain_ticks: u64,
    /// Controller ns on ticks without / with a retrain.
    pub tick_ns: [u64; 2],
    /// Reports admitted.
    pub admitted: u64,
    /// Reports quarantined.
    pub quarantined: u64,
    /// Reports dropped as stale duplicates.
    pub duplicates: u64,
    /// Node-steps masked by the staleness limit.
    pub masked: u64,
    /// Table builds.
    pub table_builds: u64,
    /// Checkpoint JSON sizes, in order.
    pub checkpoint_bytes: Vec<usize>,
}

/// Everything one episode measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// `Controller::new` through the first training tick, ns.
    pub setup_ns: u64,
    /// Whether spans were recorded in the timed region.
    pub traced: bool,
    /// Per-slot tick latencies of the timed region, ns.
    pub tick_ns: Vec<u64>,
    /// Slot plus checkpoint time of the timed region, ns.
    pub loop_ns: u64,
    /// Per-read costs of the read batches, ns.
    pub read_ns: Vec<f64>,
    /// Scores.
    pub quality: Quality,
    /// The loop's reference-driver report at the parity prefix.
    pub parity: Option<SimReport>,
    /// Twin layers stayed in lockstep with the controller (traced only).
    pub twin_ok: bool,
    /// Operations attempted: ticks, table builds, reads, restores.
    pub attempted: u64,
    /// Operations that failed or failed a correctness check.
    pub failed: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
}

/// A twin `ForecastStage` and `DynamicClusterer` fed the controller's
/// store after every tick, so their step cost can be timed apart from the
/// controller's admission work.
struct Twins {
    stage: ForecastStage,
    cluster: DynamicClusterer,
}

impl Twins {
    fn new(w: &Workload) -> Option<Twins> {
        let c = w.controller_config();
        let stage = ForecastStage::new(ForecastStageConfig {
            num_nodes: c.num_nodes,
            k: c.k,
            m: c.m,
            m_prime: c.m_prime,
            warmup: c.warmup,
            retrain_every: c.retrain_every,
            model: c.model.clone(),
            seed: c.seed,
            compute: c.compute,
            ..Default::default()
        })
        .ok()?;
        let cluster = DynamicClusterer::new(DynamicClustererConfig {
            k: c.k,
            m: c.m,
            similarity: stage.config().similarity,
            seed: c.seed,
            compute: c.compute,
            ..Default::default()
        });
        Some(Twins { stage, cluster })
    }

    /// Steps both twins on `z`; `false` when either disagrees with the
    /// controller's tick (`rmse` bits, `retrained`).
    fn step(&mut self, z: &[f64], rmse: f64, retrained: bool, rec: &mut Recorder) -> bool {
        let s = rec.begin();
        let stage = self.stage.step(z);
        rec.end(Layer::TwinStage, s);
        let s = rec.begin();
        let cluster = self.cluster.step_flat(z, 1);
        rec.end(Layer::TwinCluster, s);
        let (Ok(stage), Ok(cluster)) = (stage, cluster) else {
            return false;
        };
        // Intermediate RMSE from the clusterer's output, summed in the
        // stage's order.
        let centroid = |a: usize| {
            cluster
                .centroids
                .get(a)
                .and_then(|c| c.first())
                .copied()
                .unwrap_or(0.0)
        };
        let sum: f64 = z
            .iter()
            .zip(&cluster.assignments)
            .map(|(&v, &a)| (v - centroid(a)) * (v - centroid(a)))
            .sum();
        let cluster_rmse = (sum / z.len() as f64).sqrt();
        stage.intermediate_rmse.to_bits() == rmse.to_bits()
            && stage.retrained == retrained
            && cluster_rmse.to_bits() == rmse.to_bits()
    }
}

/// Episode options.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Record spans (and run the twins) in the timed region.
    pub traced: bool,
    /// Capture the loop's reference report after this many ticks.
    pub parity_at: Option<usize>,
    /// Stop after the set-up phase.
    pub setup_only: bool,
}

/// Runs one episode over the workload's trace, adding its timed-region
/// counts to `counters`.
pub fn run(
    w: &Workload,
    trace: &Trace,
    index: usize,
    plan: Plan,
    counters: &mut Counters,
    rec: &mut Recorder,
) -> Episode {
    let mut ep = Episode {
        traced: plan.traced,
        twin_ok: plan.traced,
        tick_ns: Vec::with_capacity(w.timed_ticks),
        ..Episode::default()
    };
    if let Err(e) = drive(w, trace, index, plan, counters, rec, &mut ep) {
        ep.failed += 1;
        ep.failures.push(e);
    }
    rec.set_enabled(false);
    ep
}

/// Slot `t`'s measurements (the load generator; never timed).
fn measurements(trace: &Trace, t: usize) -> Result<Vec<f64>, String> {
    if t >= trace.num_steps() {
        return Err(format!("slot {t}: trace too short"));
    }
    trace
        .snapshot(Resource::Cpu, t)
        .map_err(|e| format!("slot {t}: {e}"))
}

fn drive(
    w: &Workload,
    trace: &Trace,
    index: usize,
    plan: Plan,
    c: &mut Counters,
    rec: &mut Recorder,
    ep: &mut Episode,
) -> Result<(), String> {
    rec.set_enabled(false);
    let horizon = w.compute.query_horizon();
    let built = Instant::now();
    let mut lp = TickLoop::new(w).map_err(|e| format!("Controller::new: {e}"))?;
    let mut setup_ns = built.elapsed().as_nanos() as u64;
    let mut twins = if plan.traced { Twins::new(w) } else { None };
    if plan.traced && twins.is_none() {
        ep.twin_ok = false;
    }
    let mut h1 = TimeAveragedRmse::new();
    let mut hh = TimeAveragedRmse::new();
    let mut timed = false;
    let mut link_at_start = lp.link();
    let mut admitted_at_start = (0, 0);
    let total = w.episode_ticks();
    let mut probes = 0usize;

    for t in 0..total {
        let x = measurements(trace, t)?;
        rec.at(index, t);
        let serve = timed && w.serve_reads;
        ep.attempted += 1 + u64::from(serve);
        let slot = lp
            .slot(t, &x, serve, rec)
            .map_err(|e| format!("slot {t}: {e}"))?;
        let mut loop_ns = slot.slot_ns;
        let checkpoint = w.checkpoint_every > 0 && (t + 1) % w.checkpoint_every == 0;
        if checkpoint {
            ep.attempted += 1;
            let started = Instant::now();
            let bytes = lp.checkpoint(rec).map_err(|e| format!("slot {t}: {e}"))?;
            loop_ns += started.elapsed().as_nanos() as u64;
            if timed {
                c.checkpoint_bytes.push(bytes);
            }
        }

        // --- scoring and checks, outside the slot's clock ---
        if let Some(tw) = twins.as_mut() {
            let ok = tw.step(
                lp.controller().stored(),
                slot.report.intermediate_rmse,
                slot.report.retrained,
                rec,
            );
            if !ok {
                ep.twin_ok = false;
                twins = None;
            }
        }
        if plan.parity_at == Some(t + 1) {
            ep.parity = Some(lp.sim_report());
        }
        if timed {
            ep.tick_ns.push(slot.tick_ns);
            ep.loop_ns += loop_ns;
            c.sent += slot.sent as u64;
            c.frame_bytes += slot.frame_bytes;
            c.delivered += slot.delivered as u64;
            c.retrain_ticks += u64::from(slot.report.retrained);
            c.tick_ns[usize::from(slot.report.retrained)] += slot.controller_ns;
            c.admitted += slot.report.reports_applied as u64;
            c.quarantined += slot.report.quarantined as u64;
            c.duplicates += slot.report.duplicates as u64;
            c.masked += slot.report.masked as u64;
            if let Some(ns) = slot.read_ns {
                ep.read_ns.push(ns);
                c.table_builds += 1;
            }
            let probe = (t + 1) % w.probe_every == 0;
            if w.serve_reads || probe {
                score(&mut lp, trace, t, horizon, w.serve_reads, &mut h1, &mut hh)?;
            }
            if probe {
                // The recompute is as costly as a table build: check the
                // first probe of an episode and every fourth after it.
                let check = probes.is_multiple_of(4);
                probes += 1;
                ep.attempted += 1;
                if let Err(e) = probe_tick(&mut lp, t, w.serve_reads, check, ep) {
                    ep.failed += 1;
                    ep.failures.push(e);
                }
            }
        } else {
            setup_ns += loop_ns;
            if slot.report.retrained {
                // The first training tick ends set-up; the rest is timed.
                ep.setup_ns = setup_ns;
                if plan.setup_only {
                    return Ok(());
                }
                timed = true;
                rec.set_enabled(plan.traced);
                link_at_start = lp.link();
                let ctl = lp.controller();
                admitted_at_start = (ctl.frames_admitted(), ctl.duplicate_frames());
            }
        }
    }
    if !timed {
        return Err("no tick trained a model".into());
    }
    rec.set_enabled(false);
    let link = lp.link();
    c.lost += link.lost - link_at_start.lost;
    c.duplicated += link.duplicated - link_at_start.duplicated;
    c.retransmits += link.retransmits - link_at_start.retransmits;
    c.frames_admitted += lp.controller().frames_admitted() - admitted_at_start.0;
    c.duplicate_frames += lp.controller().duplicate_frames() - admitted_at_start.1;
    ep.attempted += lp.reads.attempted;
    ep.failed += lp.reads.failed;
    ep.quality = Quality {
        staleness_rmse: lp.staleness_rmse(),
        intermediate_rmse: lp.intermediate_rmse(),
        forecast_rmse_h1: h1.value(),
        forecast_rmse_h16: hh.value(),
        wire_bytes_per_node_step: lp.bytes() as f64 / (w.nodes as f64 * total as f64),
    };
    Ok(())
}

/// Scores slot `t`'s table answers at `t + 1` and `t + H` against the
/// trace. Off the serve path the table is built here first (outside the
/// timed region).
fn score(
    lp: &mut TickLoop,
    trace: &Trace,
    t: usize,
    horizon: usize,
    served: bool,
    h1: &mut TimeAveragedRmse,
    hh: &mut TimeAveragedRmse,
) -> Result<(), String> {
    let table = if served {
        lp.reader().load().ok_or("no published table")?
    } else {
        lp.controller_mut()
            .forecast_table()
            .map_err(|e| format!("slot {t}: table: {e}"))?
    };
    let next = measurements(trace, t + 1)?;
    let far = measurements(trace, t + horizon)?;
    let at = |h: usize| -> Vec<f64> {
        (0..table.num_nodes())
            .map(|i| table.node_forecast(i, h))
            .collect()
    };
    h1.add(rmse_step_scalar(&at(0), &next));
    hh.add(rmse_step_scalar(&at(horizon - 1), &far));
    Ok(())
}

/// A sampled slot, outside the timed region: with `check`, the table must
/// equal `Controller::forecast(H)` bit for bit; off the serve path, one
/// read batch is also timed here.
fn probe_tick(
    lp: &mut TickLoop,
    t: usize,
    served: bool,
    check: bool,
    ep: &mut Episode,
) -> Result<(), String> {
    let generation = if served {
        lp.reader().load().ok_or("no published table")?.generation()
    } else {
        lp.controller_mut()
            .forecast_table()
            .map_err(|e| format!("slot {t}: table: {e}"))?
            .generation()
    };
    if !served {
        let started = Instant::now();
        let reads = lp.read_batch(t, generation);
        ep.read_ns
            .push(started.elapsed().as_nanos() as f64 / reads.attempted.max(1) as f64);
        ep.attempted += reads.attempted;
        ep.failed += reads.failed;
    }
    if !check {
        return Ok(());
    }
    let table = lp.reader().load().ok_or("no published table")?;
    let horizon = table.horizon();
    let recompute = lp
        .controller()
        .forecast(horizon)
        .map_err(|e| format!("slot {t}: forecast: {e}"))?;
    let same = recompute.len() == horizon
        && recompute.iter().enumerate().all(|(h, row)| {
            row.len() == table.num_nodes()
                && row
                    .iter()
                    .enumerate()
                    .all(|(i, v)| v.to_bits() == table.node_forecast(i, h).to_bits())
        });
    if same {
        Ok(())
    } else {
        Err(format!("slot {t}: table differs from Controller::forecast"))
    }
}
