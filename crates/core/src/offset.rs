//! Cluster-membership forecasting and per-node offsets (Sec. V-C, Eq. 12).
//!
//! The forecast for node `i` at horizon `h` is
//! `x̂_{i,t+h} = ĉ_{j*,t+h} + ŝ_i`, where
//!
//! * `j*` is the cluster node `i` belonged to most often within the last
//!   `M' + 1` steps (`[t - M', t]`), and
//! * the offset `ŝ_i` averages the clipped deviations
//!   `α_{t-m}(z_{i,t-m} − c_{j*,t-m})` over the same window, with `α` chosen
//!   as the largest value in `(0, 1]` such that the shifted point
//!   `c_{j*} + α(z − c_{j*})` is still closest to centroid `j*` among all
//!   centroids of that step — the offset must not push the estimate into a
//!   different cluster's territory.

/// Returns the cluster index node `i` belonged to most frequently in the
/// given assignment window (most recent first). Ties break toward the most
/// recent occurrence, which matches the online intuition of trusting newer
/// information.
///
/// # Panics
///
/// Panics if `window` is empty or `i` is out of range for any entry.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: core::offset::forecast_membership
pub fn forecast_membership(window: &[&[usize]], i: usize, k: usize) -> usize {
    assert!(!window.is_empty(), "membership window must be non-empty");
    let mut counts = vec![0usize; k];
    // `window` is most-recent-first; remember first (most recent) position
    // of each label for tie-breaking.
    let mut first_seen = vec![usize::MAX; k];
    for (age, assignment) in window.iter().enumerate() {
        let label = assignment[i];
        assert!(label < k, "assignment {label} out of range (k = {k})");
        counts[label] += 1;
        if first_seen[label] == usize::MAX {
            first_seen[label] = age;
        }
    }
    // Infallible argmax (the label-range assertions above guarantee
    // k >= 1 once the window is non-empty): highest count wins, ties go
    // to the lower age (more recently seen).
    let mut best = 0usize;
    for cand in 1..k {
        if counts[cand] > counts[best]
            || (counts[cand] == counts[best] && first_seen[cand] < first_seen[best])
        {
            best = cand;
        }
    }
    best
}

/// Computes the largest `α ∈ (0, 1]` such that `c_j + α (z − c_j)` remains
/// closest to `centroids[j]` among all centroids. Returns `1.0` when the
/// full deviation stays inside cluster `j`'s Voronoi cell.
///
/// Derivation: the constraint against centroid `l` is
/// `‖αΔ‖² ≤ ‖c_j + αΔ − c_l‖²` with `Δ = z − c_j`, which reduces to
/// `0 ≤ ‖c_j − c_l‖² + 2α Δ·(c_j − c_l)` — linear in `α`, so each
/// competitor contributes an upper bound when `Δ·(c_j − c_l) < 0`.
///
/// # Panics
///
/// Panics if `j` is out of range or dimensions are inconsistent.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: core::offset::clip_alpha
pub fn clip_alpha(z: &[f64], j: usize, centroids: &[Vec<f64>]) -> f64 {
    assert!(j < centroids.len(), "cluster {j} out of range");
    let cj = &centroids[j];
    assert_eq!(z.len(), cj.len(), "dimension mismatch");
    let delta: Vec<f64> = z.iter().zip(cj).map(|(a, b)| a - b).collect();
    let mut alpha: f64 = 1.0;
    for (l, cl) in centroids.iter().enumerate() {
        if l == j || cl.is_empty() {
            continue;
        }
        let diff: Vec<f64> = cj.iter().zip(cl).map(|(a, b)| a - b).collect();
        let dist_sq: f64 = diff.iter().map(|v| v * v).sum();
        if dist_sq < 1e-24 {
            // Coincident centroids: the bisector is degenerate; skip.
            continue;
        }
        let proj: f64 = delta.iter().zip(&diff).map(|(a, b)| a * b).sum();
        if proj < 0.0 {
            // Upper bound: α ≤ dist_sq / (-2 proj).
            let bound = dist_sq / (-2.0 * proj);
            alpha = alpha.min(bound);
        }
    }
    alpha.clamp(0.0, 1.0)
}

/// One step of history used by the offset estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct OffsetSnapshot<'a> {
    /// Stored measurements `z_{i,t-m}` for all nodes.
    pub values: &'a [Vec<f64>],
    /// Centroids `c_{j,t-m}` of that step.
    pub centroids: &'a [Vec<f64>],
}

/// Computes the Eq. 12 offset for node `i` with respect to cluster `j`,
/// averaging clipped deviations over the supplied history window
/// (most recent first, length `M' + 1`).
///
/// # Panics
///
/// Panics if `window` is empty or shapes are inconsistent.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: core::offset::node_offset
pub fn node_offset(window: &[OffsetSnapshot<'_>], i: usize, j: usize) -> Vec<f64> {
    assert!(!window.is_empty(), "offset window must be non-empty");
    let dim = window[0].values[i].len();
    let mut acc = vec![0.0; dim];
    for snap in window {
        let z = &snap.values[i];
        let cj = &snap.centroids[j];
        assert_eq!(z.len(), dim, "dimension mismatch in offset window");
        let alpha = clip_alpha(z, j, snap.centroids);
        for ((a, zv), cv) in acc.iter_mut().zip(z).zip(cj) {
            *a += alpha * (zv - cv);
        }
    }
    for a in &mut acc {
        *a /= window.len() as f64;
    }
    acc
}

/// One step of history used by the offset estimator, with the stored
/// scalar measurements in one contiguous buffer (one value per node) —
/// the view the stage's `N × 1` history snapshots expose. Centroids stay
/// nested: there are only `K` of them, and they are produced nested by the
/// clustering stage.
#[derive(Debug, Clone, PartialEq)]
pub struct OffsetSnapshotFlat<'a> {
    /// Stored measurements `z_{i,t-m}` for all nodes.
    pub values: &'a [f64],
    /// Centroids `c_{j,t-m}` of that step.
    pub centroids: &'a [Vec<f64>],
}

/// The node-independent half of [`clip_alpha`] over a whole scalar offset
/// window, hoisted out of the per-node loop. For every `(snapshot,
/// cluster j)` cell it holds `c_j` and the competitor list
/// `(c_j − c_l, ‖c_j − c_l‖²)` of every `l` that [`clip_alpha`] would not
/// skip (`l ≠ j`, `c_l` non-empty, not coincident). Building it costs
/// `O((M'+1)·K²)`; [`ClipGeometry::offset`] then evaluates one node's
/// Eq. 12 offset without allocating, performing the same float operations
/// in the same order as [`node_offset`] over [`clip_alpha`], so the result
/// is bitwise identical. (A one-term `sum()` equals its term bitwise, and
/// the sign of a zero `proj` never matters because `-0.0 < 0.0` is false.)
#[derive(Debug)]
pub(crate) struct ClipGeometry<'a> {
    k: usize,
    /// Stored values per snapshot, most recent first.
    values: Vec<&'a [f64]>,
    /// `c_j` per cell `s * k + j`; `None` when snapshot `s` has no scalar
    /// centroid for `j` (the oracle's dimension check would fail).
    centers: Vec<Option<f64>>,
    /// Cell `c`'s competitors are `competitors[bounds[c]..bounds[c + 1]]`.
    bounds: Vec<usize>,
    /// `(c_j − c_l, ‖c_j − c_l‖²)` per competitor, in centroid order.
    competitors: Vec<(f64, f64)>,
}

impl<'a> ClipGeometry<'a> {
    /// Hoists the centroid geometry of `window` (most recent first) for
    /// clusters `0..k`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is empty.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts (`centroids[l]` ranges over the enumerated
    // slice itself); the overflow-checked debug-assert CI job backstops the
    // proof at runtime; exemplar chain: core::offset::ClipGeometry::new
    pub(crate) fn new(window: &[OffsetSnapshotFlat<'a>], k: usize) -> Self {
        assert!(!window.is_empty(), "offset window must be non-empty");
        let cells = window.len() * k;
        let mut centers = Vec::with_capacity(cells);
        let mut bounds = Vec::with_capacity(cells + 1);
        let mut competitors = Vec::new();
        bounds.push(0);
        for snap in window {
            for j in 0..k {
                let cj = match snap.centroids.get(j) {
                    Some(c) if c.len() == 1 => Some(c[0]),
                    _ => None,
                };
                if let Some(cj) = cj {
                    for (l, cl) in snap.centroids.iter().enumerate() {
                        if l == j || cl.is_empty() {
                            continue;
                        }
                        let diff = cj - cl[0];
                        let dist_sq = diff * diff;
                        if dist_sq < 1e-24 {
                            // Coincident centroids: the bisector is
                            // degenerate; skip.
                            continue;
                        }
                        competitors.push((diff, dist_sq));
                    }
                }
                centers.push(cj);
                bounds.push(competitors.len());
            }
        }
        ClipGeometry {
            k,
            values: window.iter().map(|snap| snap.values).collect(),
            centers,
            bounds,
            competitors,
        }
    }

    /// Node `i`'s clipped Eq. 12 offset with respect to cluster `j`:
    /// bitwise `node_offset(window, i, j)[0]` on the nested view of the
    /// same window.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k`, `i` is out of range for a snapshot, or some
    /// snapshot has no scalar centroid for `j`.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts (cell `s * k + j` is below `centers.len()`
    // once `j < k` holds, and `bounds` has one more entry than `centers`);
    // the overflow-checked debug-assert CI job backstops the proof at
    // runtime; exemplar chain: core::offset::ClipGeometry::offset
    pub(crate) fn offset(&self, i: usize, j: usize) -> f64 {
        assert!(j < self.k, "cluster {j} out of range");
        let mut acc = 0.0;
        for (s, values) in self.values.iter().enumerate() {
            let cell = s * self.k + j;
            let center = self.centers[cell];
            assert!(
                center.is_some(),
                "snapshot {s} has no scalar centroid for cluster {j}"
            );
            let cj = center.unwrap_or_default();
            let delta = values[i] - cj;
            let mut alpha: f64 = 1.0;
            for &(diff, dist_sq) in &self.competitors[self.bounds[cell]..self.bounds[cell + 1]] {
                let proj = delta * diff;
                if proj < 0.0 {
                    alpha = alpha.min(dist_sq / (-2.0 * proj));
                }
            }
            acc += alpha.clamp(0.0, 1.0) * delta;
        }
        acc / self.values.len() as f64
    }
}

/// Eq. 12 without the `α` clipping (every deviation taken in full) — the
/// ablation counterpart of [`node_offset`], used by the `ablation_offset_alpha`
/// bench to quantify what the clipping buys.
///
/// # Panics
///
/// Panics if `window` is empty or shapes are inconsistent.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: core::offset::node_offset_unclipped
pub fn node_offset_unclipped(window: &[OffsetSnapshot<'_>], i: usize, j: usize) -> Vec<f64> {
    assert!(!window.is_empty(), "offset window must be non-empty");
    let dim = window[0].values[i].len();
    let mut acc = vec![0.0; dim];
    for snap in window {
        let z = &snap.values[i];
        let cj = &snap.centroids[j];
        assert_eq!(z.len(), dim, "dimension mismatch in offset window");
        for ((a, zv), cv) in acc.iter_mut().zip(z).zip(cj) {
            *a += zv - cv;
        }
    }
    for a in &mut acc {
        *a /= window.len() as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unclipped_offset_exceeds_clipped_when_outside_cell() {
        let values = vec![vec![0.8]];
        let centroids = vec![vec![0.0], vec![1.0]];
        let window = vec![OffsetSnapshot {
            values: &values,
            centroids: &centroids,
        }];
        let clipped = node_offset(&window, 0, 0)[0];
        let unclipped = node_offset_unclipped(&window, 0, 0)[0];
        assert!((unclipped - 0.8).abs() < 1e-12);
        assert!(clipped < unclipped);
    }

    #[test]
    fn membership_majority_wins() {
        let w1 = [0usize, 1];
        let w2 = [0usize, 1];
        let w3 = [1usize, 1];
        let window: Vec<&[usize]> = vec![&w3, &w1, &w2]; // most recent first
        assert_eq!(forecast_membership(&window, 0, 2), 0); // 0 appears twice
        assert_eq!(forecast_membership(&window, 1, 2), 1);
    }

    #[test]
    fn membership_tie_breaks_to_most_recent() {
        let newer = [1usize];
        let older = [0usize];
        let window: Vec<&[usize]> = vec![&newer, &older];
        assert_eq!(forecast_membership(&window, 0, 2), 1);
    }

    #[test]
    fn membership_single_step_window() {
        let only = [2usize, 0, 1];
        let window: Vec<&[usize]> = vec![&only];
        assert_eq!(forecast_membership(&window, 0, 3), 2);
    }

    #[test]
    fn alpha_is_one_inside_own_cell() {
        let centroids = vec![vec![0.0], vec![1.0]];
        // z = 0.2 is firmly inside cluster 0's cell (boundary at 0.5).
        assert_eq!(clip_alpha(&[0.2], 0, &centroids), 1.0);
    }

    #[test]
    fn alpha_clips_at_voronoi_boundary() {
        let centroids = vec![vec![0.0], vec![1.0]];
        // z = 0.8 belongs to cluster 1; moving from c_0 towards z crosses
        // the bisector at 0.5, so α = 0.5 / 0.8 = 0.625.
        let a = clip_alpha(&[0.8], 0, &centroids);
        assert!((a - 0.625).abs() < 1e-12, "alpha {a}");
        // The clipped point must (weakly) belong to cluster 0.
        let p = 0.0 + a * 0.8;
        assert!((p - 0.0).abs() <= (p - 1.0).abs() + 1e-12);
    }

    #[test]
    fn alpha_exact_boundary_point() {
        let centroids = vec![vec![0.0], vec![1.0]];
        // z = 0.5 is exactly on the bisector: α = 1 keeps the tie.
        let a = clip_alpha(&[0.5], 0, &centroids);
        assert_eq!(a, 1.0);
    }

    #[test]
    fn alpha_multidimensional() {
        let centroids = vec![vec![0.0, 0.0], vec![2.0, 0.0], vec![0.0, 2.0]];
        // z pulls towards centroid 1; boundary is x = 1.
        let a = clip_alpha(&[1.6, 0.0], 0, &centroids);
        assert!((a - 1.0 / 1.6).abs() < 1e-12, "alpha {a}");
    }

    #[test]
    fn alpha_ignores_coincident_centroids() {
        let centroids = vec![vec![0.5], vec![0.5]];
        assert_eq!(clip_alpha(&[0.9], 0, &centroids), 1.0);
    }

    #[test]
    fn offset_averages_deviations() {
        let values1 = vec![vec![0.3], vec![0.9]];
        let centroids1 = vec![vec![0.2], vec![0.9]];
        let values2 = vec![vec![0.1], vec![0.9]];
        let centroids2 = vec![vec![0.2], vec![0.9]];
        let window = vec![
            OffsetSnapshot {
                values: &values1,
                centroids: &centroids1,
            },
            OffsetSnapshot {
                values: &values2,
                centroids: &centroids2,
            },
        ];
        // Node 0 vs cluster 0: deviations +0.1 and -0.1, both unclipped.
        let s = node_offset(&window, 0, 0);
        assert!(s[0].abs() < 1e-12, "offset {:?}", s);
    }

    #[test]
    fn offset_clipping_limits_cross_cluster_pull() {
        // Node 0's stored value sits in cluster 1's cell; the offset
        // towards it must be clipped at the bisector.
        let values = vec![vec![0.8]];
        let centroids = vec![vec![0.0], vec![1.0]];
        let window = vec![OffsetSnapshot {
            values: &values,
            centroids: &centroids,
        }];
        let s = node_offset(&window, 0, 0);
        // α = 0.625, offset = 0.625 * 0.8 = 0.5 (the bisector).
        assert!((s[0] - 0.5).abs() < 1e-12, "offset {:?}", s);
    }
}
