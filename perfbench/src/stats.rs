//! Order statistics and process memory.

/// Nearest-rank percentile `p` (0–100) of `values` (`0` when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (the mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The highest of a fixed ladder of percentiles that leaves at least ten
/// samples beyond it, with its value. Falls back to p50 for fewer than 20
/// samples.
pub fn tail_percentile(values: &[f64]) -> (f64, f64) {
    const LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0];
    let n = values.len() as f64;
    let p = LADDER
        .into_iter()
        .find(|p| (n * (1.0 - p / 100.0)).floor() >= 10.0)
        .unwrap_or(50.0);
    (p, percentile(values, p))
}

/// Peak resident set size of this process in MB (`VmHWM`), or `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor has stolen from the virtual machine so far, in
/// seconds (the `steal` column of `/proc/stat`), where available. Printed
/// so a noisy run can be told apart from a slow program.
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 80.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let (p, value) = tail_percentile(&v);
        assert_eq!(p, 97.5);
        assert_eq!(value, 390.0);
        assert_eq!(tail_percentile(&v[..15]).0, 50.0);
    }
}
