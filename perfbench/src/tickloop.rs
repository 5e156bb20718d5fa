//! The benchmark's time-slotted loop: the layer calls of `simnet::sim`'s
//! frame path, made from outside the library, with a clock around each.
//!
//! One slot is: the transmitter bank decides against the controller's
//! store, the slot's frame is built and metered, the frame crosses the
//! delivery plane (when one is configured), the controller ticks, and — on
//! the serve path — the forecast table is rebuilt and a reader serves one
//! read per node through a cloned `TableCell` handle. Everything the loop
//! computes for scoring (RMSE, parity checks, twins) happens outside the
//! slot's clock.

use std::hint::black_box;
use std::time::Instant;

use utilcast_core::metrics::{rmse_step_scalar, TimeAveragedRmse};
use utilcast_core::table::TableCell;
use utilcast_core::transmit::{TransmitConfig, TransmitterBank};
use utilcast_simnet::controller::{Controller, TickReport};
use utilcast_simnet::link::{DeliveryPlane, LinkSummary};
use utilcast_simnet::sim::SimReport;
use utilcast_simnet::transport::{Meter, ReportFrame};
use utilcast_simnet::SimError;

use crate::spans::{Layer, Recorder};
use crate::workload::{Workload, BUDGET};

/// What one slot did and how long it took.
#[derive(Debug)]
pub struct Slot {
    /// The controller's tick summary.
    pub report: TickReport,
    /// Stamp → stage done (controller tick; on the serve path, the fresh
    /// table published), ns.
    pub tick_ns: u64,
    /// Stamp → end of the slot's reads, ns.
    pub slot_ns: u64,
    /// `Controller::tick_frames` alone, ns (`0` when not tracing).
    pub controller_ns: u64,
    /// Frames handed to the controller this slot.
    pub delivered: usize,
    /// Entries in the slot's frame (reports sent).
    pub sent: usize,
    /// Modelled wire bytes of the slot's frame.
    pub frame_bytes: u64,
    /// Per-read cost of the slot's read batch, ns, when one was served.
    pub read_ns: Option<f64>,
}

/// Reads served and failed by one batch.
#[derive(Debug, Default, Clone, Copy)]
pub struct Reads {
    /// Reads attempted.
    pub attempted: u64,
    /// Reads that found no table, a stale table, or a non-finite answer.
    pub failed: u64,
}

/// The node side, the link and the controller of one episode.
pub struct TickLoop {
    controller: Controller,
    bank: TransmitterBank,
    decisions: Vec<bool>,
    frame: ReportFrame,
    plane: Option<DeliveryPlane>,
    inbox: Vec<ReportFrame>,
    meter: Meter,
    reader: TableCell,
    nodes: usize,
    horizon: usize,
    sent: u64,
    staleness: TimeAveragedRmse,
    intermediate: TimeAveragedRmse,
    ticks: usize,
    /// Reads served by this loop.
    pub reads: Reads,
}

impl TickLoop {
    /// Builds the controller, the transmitter bank and the delivery plane.
    ///
    /// # Errors
    ///
    /// Propagates `Controller::new` errors.
    pub fn new(w: &Workload) -> Result<TickLoop, SimError> {
        let controller = Controller::new(w.controller_config())?;
        let sim = w.sim_config();
        let tx = TransmitConfig {
            budget: BUDGET,
            v0: sim.v0,
            gamma: sim.gamma,
        };
        let reader = controller.table_handle();
        Ok(TickLoop {
            controller,
            bank: TransmitterBank::new(tx, w.nodes),
            decisions: Vec::with_capacity(w.nodes),
            frame: ReportFrame::with_capacity(1, w.nodes),
            plane: (!w.delivery.is_passthrough()).then(|| DeliveryPlane::new(1, &w.delivery)),
            inbox: Vec::new(),
            meter: Meter::new(),
            reader,
            nodes: w.nodes,
            horizon: w.compute.query_horizon(),
            sent: 0,
            staleness: TimeAveragedRmse::new(),
            intermediate: TimeAveragedRmse::new(),
            ticks: 0,
            reads: Reads::default(),
        })
    }

    /// The controller.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Mutable controller access (table builds on probe ticks).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// The reader's table handle.
    pub fn reader(&self) -> &TableCell {
        &self.reader
    }

    /// Delivery-plane accounting (zeros without a plane).
    pub fn link(&self) -> LinkSummary {
        self.plane
            .as_ref()
            .map(DeliveryPlane::summary)
            .unwrap_or_default()
    }

    /// Modelled wire bytes delivered so far.
    pub fn bytes(&self) -> u64 {
        self.meter.bytes()
    }

    /// Runs slot `t` on measurements `x`. With `serve`, the slot ends with
    /// a table rebuild and one read per node.
    ///
    /// # Errors
    ///
    /// Propagates controller errors (a failed tick or table build).
    pub fn slot(
        &mut self,
        t: usize,
        x: &[f64],
        serve: bool,
        rec: &mut Recorder,
    ) -> Result<Slot, SimError> {
        let stamp = Instant::now();

        let s = rec.begin();
        // The bootstrap slot decides against the measurements themselves
        // (everyone reports), exactly as the reference driver does.
        let zs: &[f64] = if t == 0 { x } else { self.controller.stored() };
        self.bank.decide_batch_against(x, zs, &mut self.decisions);
        rec.end(Layer::Transmit, s);

        let s = rec.begin();
        self.frame.reset(t);
        for (i, (&v, &send)) in x.iter().zip(&self.decisions).enumerate() {
            if t == 0 || send {
                self.frame.push_scalar(i, v);
            }
        }
        if self.plane.is_none() {
            self.meter.record_frame(&self.frame);
        }
        rec.end(Layer::Transport, s);

        let (report, controller_ns, delivered) = match &mut self.plane {
            None => {
                let s = rec.begin();
                let report = self
                    .controller
                    .tick_frames(std::slice::from_ref(&self.frame));
                (report?, rec.end(Layer::Controller, s), 1)
            }
            Some(plane) => {
                let s = rec.begin();
                plane.submit(0, t, Some(&self.frame), self.nodes);
                plane.collect_into(t, &mut self.inbox);
                // Bandwidth is counted at delivery, as the reference
                // driver counts it.
                for f in &self.inbox {
                    self.meter.record_frame(f);
                }
                rec.end(Layer::Link, s);
                let s = rec.begin();
                let report = self.controller.tick_frames(&self.inbox);
                let controller_ns = rec.end(Layer::Controller, s);
                let report = report?;
                let s = rec.begin();
                plane.ack_delivered(&self.inbox, t);
                rec.end(Layer::Link, s);
                (report, controller_ns, self.inbox.len())
            }
        };

        let mut read_ns = None;
        let tick_done = if serve {
            let s = rec.begin();
            let built = self.controller.forecast_table();
            rec.end(Layer::Table, s);
            let generation = built?.generation();
            let tick_done = Instant::now();
            let reads_start = Instant::now();
            let s = rec.begin();
            let batch = self.read_batch(t, generation);
            rec.end(Layer::Query, s);
            read_ns = Some(reads_start.elapsed().as_nanos() as f64 / self.nodes as f64);
            self.reads.attempted += batch.attempted;
            self.reads.failed += batch.failed;
            tick_done
        } else {
            Instant::now()
        };
        let end = Instant::now();
        rec.push(Layer::Slot, stamp, end);

        self.sent += self.frame.len() as u64;
        self.ticks += 1;
        self.staleness
            .add(rmse_step_scalar(self.controller.stored(), x));
        self.intermediate.add(report.intermediate_rmse);
        Ok(Slot {
            tick_ns: tick_done.duration_since(stamp).as_nanos() as u64,
            slot_ns: end.duration_since(stamp).as_nanos() as u64,
            controller_ns,
            delivered,
            sent: self.frame.len(),
            frame_bytes: self.frame.wire_bytes(),
            read_ns,
            report,
        })
    }

    /// One read per node through the reader's handle, node `i` at horizon
    /// `(t + i) % H`, against the table of generation `generation`.
    pub fn read_batch(&self, t: usize, generation: u64) -> Reads {
        let n = self.nodes as u64;
        let Some(table) = self.reader.load() else {
            return Reads {
                attempted: n,
                failed: n,
            };
        };
        if table.generation() != generation {
            return Reads {
                attempted: n,
                failed: n,
            };
        }
        let mut sum = 0.0;
        let mut h = t % self.horizon;
        for i in 0..self.nodes {
            sum += table.node_forecast(i, h);
            h += 1;
            if h == self.horizon {
                h = 0;
            }
        }
        self.reader.record_reads(n);
        let sum = black_box(sum);
        Reads {
            attempted: n,
            failed: if sum.is_finite() { 0 } else { n },
        }
    }

    /// Checkpoints the controller, round-trips the snapshot through JSON
    /// and continues on the restored controller. Returns the JSON size.
    ///
    /// # Errors
    ///
    /// Returns a message when encoding, decoding or restoring fails.
    pub fn checkpoint(&mut self, rec: &mut Recorder) -> Result<usize, String> {
        let s = rec.begin();
        let snapshot = self.controller.snapshot();
        rec.end(Layer::Snapshot, s);
        let s = rec.begin();
        let json = serde_json::to_string(&snapshot).map_err(|e| format!("encode: {e}"))?;
        rec.end(Layer::Encode, s);
        drop(snapshot);
        let s = rec.begin();
        let restored = serde_json::from_str(&json)
            .map_err(|e| format!("decode: {e}"))
            .and_then(|snap| Controller::restore(snap).map_err(|e| format!("restore: {e}")));
        rec.end(Layer::Restore, s);
        self.controller = restored?;
        // The restored controller publishes through a new cell.
        self.reader = self.controller.table_handle();
        Ok(json.len())
    }

    /// The reference driver's report for the ticks run so far, with the
    /// read-plane counters zeroed (the reference run serves no reads).
    pub fn sim_report(&self) -> SimReport {
        let c = &self.controller;
        SimReport {
            steps: self.ticks,
            messages: self.meter.messages(),
            bytes: self.meter.bytes(),
            realized_frequency: self.sent as f64 / (self.ticks as f64 * self.nodes as f64),
            staleness_rmse: self.staleness.value(),
            intermediate_rmse: self.intermediate.value(),
            quarantined: c.quarantined(),
            model_fallbacks: c.model_fallbacks(),
            fallback_fit_failures: c.fallback_fit_failures(),
            duplicates: c.duplicates(),
            mean_age: c.age().mean(),
            peak_age: c.age().peak(),
            masked_node_steps: c.masked_node_steps(),
            link: self.link(),
            forecast_table_rebuilds: 0,
            forecast_reads_served: 0,
        }
    }

    /// Time-averaged staleness RMSE so far (Eq. 4, `h = 0`).
    pub fn staleness_rmse(&self) -> f64 {
        self.staleness.value()
    }

    /// Time-averaged intermediate RMSE so far.
    pub fn intermediate_rmse(&self) -> f64 {
        self.intermediate.value()
    }
}
