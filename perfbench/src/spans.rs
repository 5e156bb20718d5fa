//! In-memory span recording around the calls into each layer.
//!
//! A span is `(layer, slot, start, end)`; every layer span of one slot is a
//! child of that slot's `Slot` span, and the slot index is the identifier
//! they share. The twin spans sit outside the slot (they are the
//! benchmark's own measurement, not part of the tick). Recording is off in
//! untraced runs: `begin` then returns `None` and nothing is stored.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole slot, from its stamp to its last read (parent span).
    Slot,
    /// `TransmitterBank::decide_batch_against`.
    Transmit,
    /// `ReportFrame` build plus `Meter::record_frame`.
    Transport,
    /// `DeliveryPlane::{submit, collect_into, ack_delivered}` plus metering
    /// the delivered frames.
    Link,
    /// `Controller::tick_frames`.
    Controller,
    /// `Controller::forecast_table`.
    Table,
    /// `TableCell::load` plus one `node_forecast` per node.
    Query,
    /// `Controller::snapshot`.
    Snapshot,
    /// `serde_json` encode of the snapshot.
    Encode,
    /// `serde_json` decode plus `Controller::restore`.
    Restore,
    /// The twin `ForecastStage::step` (outside the slot).
    TwinStage,
    /// The twin `DynamicClusterer::step_flat` (outside the slot).
    TwinCluster,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::Slot,
        Layer::Transmit,
        Layer::Transport,
        Layer::Link,
        Layer::Controller,
        Layer::Table,
        Layer::Query,
        Layer::Snapshot,
        Layer::Encode,
        Layer::Restore,
        Layer::TwinStage,
        Layer::TwinCluster,
    ];

    /// Span name used in the output.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Slot => "slot",
            Layer::Transmit => "transmit",
            Layer::Transport => "transport",
            Layer::Link => "link",
            Layer::Controller => "controller",
            Layer::Table => "table",
            Layer::Query => "query",
            Layer::Snapshot => "checkpoint.snapshot",
            Layer::Encode => "checkpoint.encode",
            Layer::Restore => "checkpoint.restore",
            Layer::TwinStage => "twin.stage",
            Layer::TwinCluster => "twin.cluster",
        }
    }

    /// Whether the span is a child of the slot span.
    pub fn in_slot(self) -> bool {
        matches!(
            self,
            Layer::Transmit
                | Layer::Transport
                | Layer::Link
                | Layer::Controller
                | Layer::Table
                | Layer::Query
        )
    }

    fn index(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).unwrap_or(0)
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Covered layer.
    pub layer: Layer,
    /// Episode-local slot index (the identifier shared with the parent).
    pub slot: usize,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span store for one process.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    slot: usize,
    episode: usize,
    spans: Vec<(usize, Span)>,
}

impl Recorder {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            slot: 0,
            episode: 0,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (the untraced baseline episode of a
    /// traced run and every set-up phase record nothing).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the episode and slot the next spans belong to.
    pub fn at(&mut self, episode: usize, slot: usize) {
        self.episode = episode;
        self.slot = slot;
    }

    /// Opens a span: the current time when recording, else `None`.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Closes a span opened by [`Recorder::begin`], returning its
    /// duration in ns (`0` when not recording).
    #[inline]
    pub fn end(&mut self, layer: Layer, begun: Option<Instant>) -> u64 {
        match begun {
            Some(start) => {
                let end = Instant::now();
                self.push(layer, start, end);
                end.duration_since(start).as_nanos() as u64
            }
            None => 0,
        }
    }

    /// Stores a span with explicit bounds (used for the slot span, whose
    /// bounds the loop measures anyway).
    pub fn push(&mut self, layer: Layer, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            layer,
            slot: self.slot,
            start: ns(start),
            end: ns(end),
        };
        self.spans.push((self.episode, span));
    }

    /// Per-layer totals: `(busy ns, span count)` per [`Layer::ALL`] entry,
    /// with the slot entry replaced by the slot's self time (the part of
    /// each slot span no child span covers).
    pub fn totals(&self) -> Totals {
        let mut busy = [0u64; 12];
        let mut count = [0u64; 12];
        for (_, s) in &self.spans {
            busy[s.layer.index()] += s.ns();
            count[s.layer.index()] += 1;
        }
        let children: u64 = self
            .spans
            .iter()
            .filter(|(_, s)| s.layer.in_slot())
            .map(|(_, s)| s.ns())
            .sum();
        let slot_total = busy[Layer::Slot.index()];
        Totals {
            busy,
            count,
            slot_total,
            unattributed: slot_total.saturating_sub(children),
        }
    }

    /// Writes every span as CSV (`episode,slot,span,parent,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "episode,slot,span,parent,start_ns,end_ns")?;
        for (episode, s) in &self.spans {
            let parent = if s.layer.in_slot() { "slot" } else { "" };
            writeln!(
                out,
                "{episode},{},{},{parent},{},{}",
                s.slot,
                s.layer.name(),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Aggregated span totals (see [`Recorder::totals`]).
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    busy: [u64; 12],
    count: [u64; 12],
    /// Sum of slot span durations, ns.
    pub slot_total: u64,
    /// Slot time covered by no child span, ns.
    pub unattributed: u64,
}

impl Totals {
    /// Total busy ns of `layer`.
    pub fn busy(&self, layer: Layer) -> u64 {
        self.busy[layer.index()]
    }

    /// Number of `layer` spans.
    pub fn count(&self, layer: Layer) -> u64 {
        self.count[layer.index()]
    }

    /// Mean span duration of `layer` in µs (`0` when it never ran).
    pub fn mean_us(&self, layer: Layer) -> f64 {
        let c = self.count(layer);
        if c == 0 {
            0.0
        } else {
            self.busy(layer) as f64 / c as f64 / 1e3
        }
    }
}
