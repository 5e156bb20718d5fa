//! Oracle parity for the Eq. 12 node resolution: the hoisted, allocation-
//! free [`resolve_nodes`] must equal, bit for bit, the per-node oracle
//! (`forecast_membership`, then the nested `node_offset` over
//! `clip_alpha`) on every node of every window.
//!
//! The stage's and the benchmark's "table == recompute" checks both go
//! through `resolve_nodes`, so they cannot catch a wrong offset; this
//! suite is the independent check. Random windows force the edge cases
//! the hoisted geometry must reproduce: coincident and near-coincident
//! centroids (the `1e-24` skip), empty competitor centroids, values
//! exactly on a bisector or exactly on a centroid, `±0.0`, and tied votes.

use proptest::prelude::*;
use utilcast_core::offset::{
    clip_alpha, forecast_membership, node_offset, OffsetSnapshot, OffsetSnapshotFlat,
};
use utilcast_core::table::resolve_nodes;

/// One history step in both layouts' source form.
#[derive(Debug, Clone)]
struct Step {
    values: Vec<f64>,
    centroids: Vec<Vec<f64>>,
    assignments: Vec<usize>,
}

/// Runs both paths over `window` (most recent first) and compares every
/// node's membership and offset bits.
fn assert_parity(window: &[Step], n: usize, k: usize) -> Result<(), TestCaseError> {
    let assign: Vec<&[usize]> = window.iter().map(|s| s.assignments.as_slice()).collect();
    let flat: Vec<OffsetSnapshotFlat<'_>> = window
        .iter()
        .map(|s| OffsetSnapshotFlat {
            values: &s.values,
            centroids: &s.centroids,
        })
        .collect();
    let nested_values: Vec<Vec<Vec<f64>>> = window
        .iter()
        .map(|s| s.values.iter().map(|&v| vec![v]).collect())
        .collect();
    let nested: Vec<OffsetSnapshot<'_>> = window
        .iter()
        .zip(&nested_values)
        .map(|(s, values)| OffsetSnapshot {
            values,
            centroids: &s.centroids,
        })
        .collect();

    let resolution = resolve_nodes(&assign, &flat, n, k);
    prop_assert_eq!(resolution.memberships.len(), n);
    prop_assert_eq!(resolution.offsets.len(), n);
    for i in 0..n {
        let j_star = forecast_membership(&assign, i, k);
        let offset = node_offset(&nested, i, j_star)[0];
        prop_assert_eq!(
            resolution.memberships[i],
            j_star,
            "membership of node {}",
            i
        );
        prop_assert_eq!(
            resolution.offsets[i].to_bits(),
            offset.to_bits(),
            "offset of node {} (cluster {}): {} vs oracle {}",
            i,
            j_star,
            resolution.offsets[i],
            offset
        );
    }
    Ok(())
}

/// SplitMix64: a tiny deterministic stream so one proptest seed expands
/// into a whole window.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`; half the time snapped to a multiple of 1/16
    /// so exact coincidences and exact bisector midpoints are common.
    fn coord(&mut self) -> f64 {
        let v = self.unit() * 2.0 - 1.0;
        if self.below(2) == 0 {
            (v * 16.0).round() / 16.0
        } else {
            v
        }
    }
}

/// Builds a random window of `w` steps over `n` nodes and `k` clusters.
/// Labels are drawn from the first `used` clusters only, so the others
/// never become a node's `j*` and may carry empty centroids.
fn random_window(seed: u64, w: usize, n: usize, k: usize, used: usize) -> Vec<Step> {
    let mut rng = Mix(seed);
    let mut window = Vec::with_capacity(w);
    for _ in 0..w {
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        for l in 0..k {
            let c = match rng.below(8) {
                // Coincident with an earlier centroid.
                0 if l > 0 => centroids[rng.below(l)].first().copied().unwrap_or(0.25),
                // Near-coincident: inside the `1e-24` squared-distance skip.
                1 if l > 0 => {
                    let base = centroids[rng.below(l)].first().copied().unwrap_or(0.25);
                    let tiny = if rng.below(2) == 0 { 1e-13 } else { -3e-13 };
                    base + tiny
                }
                2 => {
                    if rng.below(2) == 0 {
                        0.0
                    } else {
                        -0.0
                    }
                }
                // Empty competitor: only for clusters no node votes for.
                3 if l >= used => {
                    centroids.push(Vec::new());
                    continue;
                }
                _ => rng.coord(),
            };
            centroids.push(vec![c]);
        }
        let scalar: Vec<f64> = centroids
            .iter()
            .map(|c| c.first().copied().unwrap_or(0.0))
            .collect();
        let mut values = Vec::with_capacity(n);
        let mut assignments = Vec::with_capacity(n);
        for i in 0..n {
            let label = if i % 3 == 0 && used >= 2 {
                // Every third node alternates between clusters 0 and 1:
                // a tied vote whenever the window length is even.
                (i / 3 + window.len()) % 2
            } else {
                rng.below(used)
            };
            assignments.push(label);
            let z = match rng.below(7) {
                // Exactly on a centroid (often the node's own: `z == c_j`).
                0 => scalar[label],
                1 => scalar[rng.below(k)],
                // Exactly on (or next to) the bisector of two centroids.
                2 => (scalar[label] + scalar[rng.below(k)]) / 2.0,
                3 => {
                    if rng.below(2) == 0 {
                        0.0
                    } else {
                        -0.0
                    }
                }
                _ => rng.coord() * 1.5,
            };
            values.push(z);
        }
        window.push(Step {
            values,
            centroids,
            assignments,
        });
    }
    window
}

/// Windows drawn per generated case: the runner's default case count
/// times this gives a few hundred windows per run.
const WINDOWS_PER_CASE: u64 = 8;

proptest! {
    #[test]
    fn resolve_nodes_matches_per_node_oracle(
        seed in 0u64..u64::MAX,
        w in 1usize..=6,
        n in 0usize..=64,
        k in 1usize..=12,
        used_seed in 0usize..1024,
    ) {
        let used = 1 + used_seed % k;
        for r in 0..WINDOWS_PER_CASE {
            let window = random_window(seed.wrapping_add(r), w, n, k, used);
            assert_parity(&window, n, k)?;
        }
    }
}

fn step(values: &[f64], centroids: &[f64], assignments: &[usize]) -> Step {
    Step {
        values: values.to_vec(),
        centroids: centroids.iter().map(|&c| vec![c]).collect(),
        assignments: assignments.to_vec(),
    }
}

fn check(window: &[Step], k: usize) {
    let n = window[0].values.len();
    if let Err(e) = assert_parity(window, n, k) {
        panic!("{e:?}");
    }
}

#[test]
fn near_coincident_competitor_is_skipped() {
    // c_1 sits 1e-13 from c_0 (squared distance below 1e-24): the oracle
    // ignores it, so node 0 keeps its full deviation toward it.
    let centroids = [0.0, 1e-13, 1.0];
    assert_eq!(
        clip_alpha(&[0.3], 0, &[vec![0.0], vec![1e-13], vec![1.0]]),
        1.0
    );
    check(&[step(&[0.3, 0.3, 1e-13], &centroids, &[0, 0, 1])], 3);
}

#[test]
fn exactly_coincident_centroids_are_skipped() {
    check(
        &[
            step(&[0.5, 0.9, 0.5], &[0.5, 0.5, 0.75], &[0, 1, 2]),
            step(&[0.2, 0.4, 0.6], &[0.5, 0.5, 0.5], &[0, 1, 2]),
        ],
        3,
    );
}

#[test]
fn value_on_bisector_and_on_centroid() {
    // 0.5 is the exact bisector of 0.0 and 1.0; 0.0 is the own centroid
    // (zero deviation); 1.0 is the competitor's centroid.
    check(
        &[step(&[0.5, 0.0, 1.0, 0.5], &[0.0, 1.0], &[0, 0, 0, 1])],
        2,
    );
}

#[test]
fn signed_zeros() {
    check(
        &[
            step(&[0.0, -0.0, -0.0, 0.0], &[-0.0, 0.0, 0.25], &[0, 1, 0, 2]),
            step(&[-0.0, 0.0, 0.0, -0.0], &[0.0, -0.0, -0.25], &[1, 0, 0, 2]),
        ],
        3,
    );
}

#[test]
fn tied_votes_break_toward_the_most_recent_label() {
    let window = [
        step(&[0.1, 0.9], &[0.0, 1.0], &[1, 0]),
        step(&[0.2, 0.8], &[0.0, 1.0], &[0, 1]),
    ];
    let assign: Vec<&[usize]> = window.iter().map(|s| s.assignments.as_slice()).collect();
    assert_eq!(forecast_membership(&assign, 0, 2), 1);
    assert_eq!(forecast_membership(&assign, 1, 2), 0);
    check(&window, 2);
}

#[test]
fn empty_competitor_centroid_is_skipped() {
    let window = [Step {
        values: vec![0.8, 0.1],
        centroids: vec![vec![0.0], Vec::new(), vec![1.0]],
        assignments: vec![0, 2],
    }];
    check(&window, 3);
}
