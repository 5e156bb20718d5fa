//! A time-slotted simulation of the paper's distributed system.
//!
//! While `utilcast-core` exposes the algorithms as a single in-process
//! pipeline, this crate deploys them the way the paper's system actually
//! runs (Fig. 2): `N` **local nodes** each own an adaptive transmitter and
//! decide independently when to push their measurement; a **central
//! controller** receives the messages, maintains the stale store, and runs
//! dynamic clustering plus per-cluster forecasting.
//!
//! One driver loop runs every slot: the nodes' transmitter banks decide,
//! the decisions become flat [`transport::ReportFrame`]s, the frames cross
//! an optional delivery plane, and [`controller::Controller::tick_frames`]
//! ingests them — frames are the only ingest path. The loop has two
//! executors for the node side, which produce identical results:
//!
//! * [`sim::Simulation`] — inline on the calling thread;
//! * [`threaded::run_threaded`] / [`threaded::run_threaded_supervised`] —
//!   contiguous node shards on supervised worker threads, respawned from
//!   each shard's last good transmitter bank after a panic.
//!
//! [`faults::run_with_faults`] runs the same loop with a [`faults::FaultPlan`]'s
//! stages switched on: node crashes, message loss, partitions, corruption,
//! and controller crashes with checkpoint recovery. The controller
//! validates and quarantines malformed reports at ingress and can
//! snapshot/restore its full state ([`controller::ControllerSnapshot`]).
//! The [`link`] module models degraded channels — loss, latency/jitter,
//! duplication, reordering, bounded capacity — and layers
//! sequence-numbered, ack/retransmit frame delivery on top (at-least-once
//! delivery, exactly-once admission), while the controller tracks per-node
//! staleness age and can mask nodes aged past a configurable limit. A
//! [`transport::Meter`] counts every delivered message and byte so
//! experiments can report communication cost.
//!
//! # Example
//!
//! ```
//! use utilcast_datasets::presets;
//! use utilcast_datasets::Resource;
//! use utilcast_simnet::sim::{SimConfig, Simulation};
//!
//! let trace = presets::alibaba_like().nodes(20).steps(120).seed(1).generate();
//! let config = SimConfig { k: 2, warmup: 30, retrain_every: 20, ..Default::default() };
//! let report = Simulation::new(config)?.run(&trace, Resource::Cpu)?;
//! assert!(report.realized_frequency <= 0.4);
//! assert_eq!(report.steps, 120);
//! # Ok::<(), utilcast_simnet::SimError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod controller;
mod driver;
mod error;
pub mod faults;
pub mod link;
pub mod sim;
pub mod threaded;
pub mod transport;

pub use error::SimError;
