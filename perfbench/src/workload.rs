//! The three benchmark workloads and the configuration each one resolves
//! to. Everything not named here is a library default: the controller
//! runs `ComputeOptions::default()` apart from the staleness limit of the
//! `degraded` workload, so a change of defaults shows in the numbers.

use utilcast_core::compute::ComputeOptions;
use utilcast_core::pipeline::ModelSpec;
use utilcast_core::transmit::ArqConfig;
use utilcast_datasets::generator::ClusterTraceConfig;
use utilcast_datasets::{presets, Resource, Trace};
use utilcast_simnet::controller::ControllerConfig;
use utilcast_simnet::link::{DeliveryOptions, LinkPlan};
use utilcast_simnet::sim::SimConfig;
use utilcast_timeseries::arima::{ArimaFitOptions, ArimaGrid};

/// Clusters / per-cluster models.
pub const K: usize = 10;
/// Transmission budget `B`.
pub const BUDGET: f64 = 0.3;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Transmit → admission → k-means + Hungarian at N = 100k.
    Collect,
    /// The forecast-consumer path: a fresh table and N reads every slot.
    Serve,
    /// Lossy links with ARQ, staleness masking and checkpoint round trips.
    Degraded,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "collect" => Some(Kind::Collect),
            "serve" => Some(Kind::Serve),
            "degraded" => Some(Kind::Degraded),
            _ => None,
        }
    }

    /// The workload's name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Collect => "collect",
            Kind::Serve => "serve",
            Kind::Degraded => "degraded",
        }
    }
}

/// A fully resolved workload: trace, controller, link and loop shape.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload this is.
    pub kind: Kind,
    /// Generator preset name (for the output).
    pub preset: &'static str,
    /// The trace generator configuration (CPU only, seeded).
    pub trace: ClusterTraceConfig,
    /// Node count `N`.
    pub nodes: usize,
    /// Per-cluster model.
    pub model: ModelSpec,
    /// Short model name (for the output).
    pub model_name: &'static str,
    /// Observations before the first training.
    pub warmup: usize,
    /// Retraining interval.
    pub retrain_every: usize,
    /// Controller seed (also seeds the trace and the links).
    pub seed: u64,
    /// Nominal wall time of one episode on a 2-core x86-64 host, s: a run
    /// of `--seconds s` runs `s / episode_s` episodes (at least one).
    pub episode_s: f64,
    /// Controller compute options.
    pub compute: ComputeOptions,
    /// Delivery layer between the nodes and the controller.
    pub delivery: DeliveryOptions,
    /// Whether every slot rebuilds the table and serves N reads.
    pub serve_reads: bool,
    /// Checkpoint round trip every this many ticks (`0` = never).
    pub checkpoint_every: usize,
    /// Ticks after the first training tick that one episode times.
    pub timed_ticks: usize,
    /// Ticks of the trace prefix checked against `Simulation::run`.
    pub parity_prefix: usize,
    /// Every this many ticks, table answers are checked against
    /// `Controller::forecast` (and, off the serve path, forecast error and
    /// read cost are sampled) outside the timed region.
    pub probe_every: usize,
}

/// SplitMix64 finalizer: spreads a small CLI seed over 64 bits.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn auto_arima() -> ModelSpec {
    ModelSpec::AutoArima {
        grid: ArimaGrid::quick(),
        options: ArimaFitOptions::default(),
    }
}

impl Workload {
    /// Resolves episode `episode` of `kind` for the run seed `run_seed`, at
    /// full (`tiny == false`) or smoke-test scale. Each episode draws its
    /// own trace, controller seed and link seeds from `(run_seed, episode)`.
    pub fn new(kind: Kind, run_seed: u64, episode: usize, tiny: bool) -> Workload {
        let seed = mix(run_seed).wrapping_add(episode as u64);
        let pick = |full: usize, small: usize| if tiny { small } else { full };
        let (preset, mut trace, nodes) = match kind {
            Kind::Collect => ("alibaba_like", presets::alibaba_like(), pick(100_000, 600)),
            Kind::Serve => ("google_like", presets::google_like(), pick(20_000, 300)),
            Kind::Degraded => (
                "bitbrains_like",
                presets::bitbrains_like(),
                pick(2_000, 200),
            ),
        };
        trace.resources = vec![Resource::Cpu];
        trace.num_nodes = nodes;
        trace.seed ^= mix(seed);
        let mut w = Workload {
            kind,
            preset,
            trace,
            nodes,
            model: ModelSpec::SampleAndHold,
            model_name: "SampleAndHold",
            warmup: pick(4, 4),
            retrain_every: 288,
            seed,
            episode_s: 1.0,
            compute: ComputeOptions::default(),
            delivery: DeliveryOptions::none(),
            serve_reads: false,
            checkpoint_every: 0,
            timed_ticks: pick(16, 12),
            parity_prefix: pick(12, 10),
            probe_every: pick(8, 5),
        };
        match kind {
            Kind::Collect => w.episode_s = 1.9,
            Kind::Serve => {
                w.model = auto_arima();
                w.model_name = "AutoArima(quick)";
                w.warmup = pick(100, 20);
                w.retrain_every = pick(100, 20);
                w.serve_reads = true;
                w.timed_ticks = pick(110, 24);
                w.parity_prefix = pick(105, 24);
                w.probe_every = pick(25, 6);
                w.episode_s = 8.0;
            }
            Kind::Degraded => {
                w.model = auto_arima();
                w.model_name = "AutoArima(quick)";
                w.warmup = pick(100, 20);
                w.retrain_every = pick(100, 20);
                w.compute.staleness_age_limit = 8;
                w.checkpoint_every = pick(50, 10);
                w.timed_ticks = pick(1900, 40);
                w.parity_prefix = pick(160, 35);
                w.probe_every = pick(10, 5);
                w.episode_s = 8.0;
                let lossy = LinkPlan {
                    loss_prob: 0.05,
                    corrupt_prob: 0.001,
                    dup_prob: 0.05,
                    reorder_prob: 0.05,
                    delay_ticks: 1,
                    jitter_ticks: 2,
                    capacity: 0,
                    seed: mix(seed ^ 0x11),
                };
                w.delivery = DeliveryOptions {
                    link: lossy,
                    ack_link: LinkPlan {
                        loss_prob: 0.05,
                        delay_ticks: 1,
                        seed: mix(seed ^ 0x22),
                        ..LinkPlan::perfect()
                    },
                    arq: ArqConfig {
                        timeout: 3,
                        ..ArqConfig::default()
                    },
                };
            }
        }
        // One episode runs the warmup, the timed ticks, and needs the
        // trace `horizon` steps further for forecast scoring.
        w.trace.num_steps = w.episode_ticks() + w.compute.query_horizon();
        w
    }

    /// Episodes a run of `seconds` makes: a function of the arguments
    /// only, so every run of a seed does the same work.
    pub fn episodes(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.episode_s).round() as usize).max(1)
    }

    /// Ticks one episode runs: the set-up ticks through the first training
    /// plus the timed ticks.
    pub fn episode_ticks(&self) -> usize {
        self.warmup + self.timed_ticks
    }

    /// Generates the workload's trace (the load generator; not timed).
    pub fn generate(&self) -> Trace {
        self.trace.generate()
    }

    /// The controller configuration, built the way `Simulation::run` builds
    /// it from [`Workload::sim_config`].
    pub fn controller_config(&self) -> ControllerConfig {
        let sim = self.sim_config();
        ControllerConfig {
            num_nodes: self.nodes,
            k: sim.k,
            m: sim.m,
            m_prime: sim.m_prime,
            warmup: sim.warmup,
            retrain_every: sim.retrain_every,
            model: sim.model,
            seed: sim.seed,
            compute: sim.compute,
            ..Default::default()
        }
    }

    /// The equivalent reference-driver configuration.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            budget: BUDGET,
            k: K,
            warmup: self.warmup,
            retrain_every: self.retrain_every,
            model: self.model.clone(),
            seed: self.seed,
            compute: self.compute,
            delivery: self.delivery,
            ..Default::default()
        }
    }
}
