//! Compute options for the controller hot path.
//!
//! The controller re-runs clustering and per-cluster model retraining every
//! time step (Sec. V-B/V-C); the paper's Table II shows this compute —
//! not message handling — dominates controller wall-clock as `N` and `K`
//! grow. [`ComputeOptions`] bundles the knobs that accelerate it:
//!
//! * `threads` — deterministic parallelism for k-means restarts, the Lloyd
//!   assignment step, and per-cluster retraining. Results are
//!   **bit-identical at any thread count**; threads change wall-clock time
//!   only.
//! * `warm_start` / `cold_reseed_every` — reuse the previous step's matched
//!   centroids as the k-means initializer. The paper's temporal-continuity
//!   premise (clusters persist across steps; that is what makes re-indexing
//!   meaningful at all) makes the previous centroids near-converged, so a
//!   single short Lloyd descent replaces `n_init` cold restarts. A periodic
//!   cold re-seed bounds how long a poor local optimum can persist.
//! * `shards` / `shard_kernel` — the hierarchical two-level controller:
//!   with `shards > 1` each deterministic contiguous node shard clusters
//!   locally (in parallel across shards), and the count-weighted shard
//!   centroids feed a small global merge that preserves cluster identity
//!   through the usual Hungarian re-indexing. Turns the per-tick
//!   clustering cost from one `O(N·K·d)` descent into `shards`
//!   independent `O((N/shards)·K·d)` descents plus an `O(shards·K²·d)`
//!   merge — the scaling lever for `N` in the millions.
//!
//! Every layer runs one production kernel: the cached-norm k-means
//! ([`Kernel::CachedNorms`](utilcast_clustering::kmeans::Kernel)), the
//! per-row [`TransmitterBank`](crate::transmit::TransmitterBank) sweep and
//! the fused flat LSTM. Their reference oracles are selected by tests
//! directly on the layer, not through these options.

use serde::{Deserialize, Serialize};

/// Per-shard Lloyd kernel for the hierarchical (two-level) controller,
/// selected by [`ComputeOptions::shard_kernel`] and only consulted when
/// [`ComputeOptions::shards`] `> 1`: a full mode plus an incremental
/// mode, both deterministic at any thread count. The two give different
/// results, so this is a choice of schedule rather than of kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShardKernel {
    /// Run each shard's k-means to convergence every step (warm-started
    /// from the shard's previous centroids when warm starts are on).
    #[default]
    Full,
    /// Mini-batch/incremental mode: a warm shard re-assigns only a
    /// rotating 1/8 batch of its nodes per step (cached labels carry the
    /// rest, so every node is refreshed at least once per 8 ticks) while
    /// the centroid update still averages **all** current values — the
    /// per-tick assignment cost drops from `O(n·K)` to `O(n·K/8 + n)`,
    /// amortizing convergence across the tick stream. Cold steps (first
    /// step, periodic cold re-seed, shape change) still run the full fit
    /// so the stream re-anchors and the label cache rebuilds.
    MiniBatch,
}

/// Knobs for the controller's per-step compute (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComputeOptions {
    /// Worker threads for clustering and retraining: `0` = one per
    /// available CPU, `1` = fully sequential (default). Results are
    /// bit-identical at every setting.
    pub threads: usize,
    /// Initialize each step's k-means from the previous step's matched
    /// centroids instead of re-seeding from scratch (default `true`).
    pub warm_start: bool,
    /// Force a cold k-means++ re-seed every this many steps (`0` = never
    /// after the first step). Only meaningful with `warm_start`; the
    /// default of 288 re-seeds once per day at the paper's 5-minute
    /// cadence.
    pub cold_reseed_every: usize,
    /// Phase-offset each cluster's retraining schedule by
    /// `j · retrain_every / K` steps so at most ~one model refits per tick
    /// instead of all `K` spiking on the same tick (default `false`).
    /// Purely step-counter driven, so results stay bit-identical at any
    /// thread count; it changes *when* each model retrains, so reports
    /// differ from the unstaggered schedule by construction.
    pub retrain_stagger: bool,
    /// Mask nodes whose staleness age (ticks since their freshest admitted
    /// measurement) exceeds this limit: before clustering/retraining their
    /// stored value is imputed with the mean of the fresh nodes, so stale
    /// state stops poisoning centroids and model fits when links degrade.
    /// `0` disables masking (default) — every stored value is used as-is,
    /// which preserves the seed behavior bit-identically.
    pub staleness_age_limit: usize,
    /// Shard count for the hierarchical two-level clustering: nodes are
    /// partitioned into this many deterministic contiguous shards, each
    /// shard clusters its own nodes (in parallel across shards, seeded
    /// per shard), and the shard centroids — weighted by member counts —
    /// feed a small global merge whose labels go through the usual
    /// Hungarian re-indexing against node-level history. `<= 1` (default
    /// `1`) runs the seed single-level clustering bit-identically; the
    /// hierarchical result at any fixed shard count is itself
    /// bit-identical at every thread count.
    #[serde(default)]
    pub shards: usize,
    /// Per-shard Lloyd kernel when `shards > 1` (default
    /// [`ShardKernel::Full`]; ignored by the single-level path).
    #[serde(default)]
    pub shard_kernel: ShardKernel,
    /// Maximum horizon (steps ahead) precomputed into the cached
    /// [`ForecastTable`](crate::table::ForecastTable) — the read plane
    /// answers point queries for horizon indices `0..max_query_horizon`
    /// in O(1). Affects only the table (build cost is linear in it);
    /// the recompute path and every report stay bit-identical at any
    /// setting. `0` — including checkpoints written before the read plane
    /// existed, which carry no field — means the default depth of 16 (see
    /// [`ComputeOptions::query_horizon`], the only consumer).
    #[serde(default)]
    pub max_query_horizon: usize,
}

/// Table depth used when [`ComputeOptions::max_query_horizon`] is unset.
pub const DEFAULT_QUERY_HORIZON: usize = 16;

impl Default for ComputeOptions {
    fn default() -> Self {
        ComputeOptions {
            threads: 1,
            warm_start: true,
            cold_reseed_every: 288,
            retrain_stagger: false,
            staleness_age_limit: 0,
            shards: 1,
            shard_kernel: ShardKernel::Full,
            max_query_horizon: DEFAULT_QUERY_HORIZON,
        }
    }
}

impl ComputeOptions {
    /// The effective forecast-table depth: `max_query_horizon`, with `0`
    /// (unset / pre-table checkpoint) normalized to
    /// [`DEFAULT_QUERY_HORIZON`] — the same convention as `shards == 0`
    /// meaning single-level.
    pub fn query_horizon(&self) -> usize {
        if self.max_query_horizon == 0 {
            DEFAULT_QUERY_HORIZON
        } else {
            self.max_query_horizon
        }
    }
    /// The compute schedule of the original implementation — fully
    /// sequential, cold k-means++ restarts every step, synchronized
    /// retrains — used as the benchmark baseline.
    pub fn baseline() -> Self {
        ComputeOptions {
            threads: 1,
            warm_start: false,
            cold_reseed_every: 0,
            retrain_stagger: false,
            staleness_age_limit: 0,
            shards: 1,
            shard_kernel: ShardKernel::Full,
            max_query_horizon: DEFAULT_QUERY_HORIZON,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential_warm() {
        let c = ComputeOptions::default();
        assert_eq!(c.threads, 1);
        assert!(c.warm_start);
        assert_eq!(c.cold_reseed_every, 288);
        assert!(!c.retrain_stagger);
        assert_eq!(c.staleness_age_limit, 0, "masking is off by default");
        assert_eq!(c.shards, 1, "single-level clustering by default");
        assert_eq!(c.shard_kernel, ShardKernel::Full);
        assert_eq!(c.max_query_horizon, 16);
    }

    #[test]
    fn baseline_matches_original_path() {
        let c = ComputeOptions::baseline();
        assert_eq!(c.threads, 1);
        assert!(!c.warm_start);
        assert!(!c.retrain_stagger);
        assert_eq!(c.shards, 1);
        assert_eq!(c.shard_kernel, ShardKernel::Full);
        assert_eq!(
            c.max_query_horizon, 16,
            "read-plane depth does not belong to the seed contract"
        );
    }

    #[test]
    fn snapshots_without_shard_fields_deserialize_to_single_level() {
        // Checkpoints written before the hierarchical tier existed carry
        // no shard fields; they must restore onto the single-level path
        // (`shards == 0` is treated as `<= 1` everywhere). Their `kernel`
        // field names a retired knob and is ignored.
        let json = r#"{
            "threads": 1, "warm_start": true, "cold_reseed_every": 288,
            "kernel": "CachedNorms", "retrain_stagger": false,
            "staleness_age_limit": 0
        }"#;
        let c: ComputeOptions = serde_json::from_str(json).unwrap();
        assert!(c.shards <= 1);
        assert_eq!(c.shard_kernel, ShardKernel::Full);
        assert_eq!(c.max_query_horizon, 0, "field absent from old JSON");
        assert_eq!(
            c.query_horizon(),
            16,
            "old checkpoints take the default read-plane depth"
        );
    }
}
