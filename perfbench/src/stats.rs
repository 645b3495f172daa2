//! Order statistics over timing samples.

/// A summarised timing.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    /// Interquartile mean: the mean of the middle half of the samples.
    pub iqm: f64,
    /// The median over time windows of each window's p90 (see
    /// [`summarize_windowed`]).
    pub p90: f64,
    /// The highest percentile with at least ten samples beyond it, capped
    /// at p99, over the whole run; `tail_pct` names it.
    pub tail: f64,
    pub tail_pct: f64,
    pub n: usize,
}

/// Linear-interpolated quantile of a sorted slice, `q` in `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The highest percentile with at least ten samples beyond it, capped
/// at p99: p99 from 1000 samples up, p90 at 100, and so on.
pub fn tail_quantile(n: usize) -> f64 {
    if n <= 10 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// Interquartile mean: the mean of the middle half of `values`.
pub fn iqm(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    mean(&v[n / 4..(n - n / 4).max(n / 4 + 1)])
}

/// The highest percentile of `values` with ten samples beyond it.
pub fn tail(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), tail_quantile(values.len()))
}

/// Summarises `(completion time, value)` samples of a run `wall_ns`
/// long.
///
/// The central value is the interquartile mean rather than the median:
/// on two vCPUs a 1-row request lands in one of two latency modes (the
/// scheduler either finds the next thread's CPU awake or not), and a
/// median near the middle of the mix jumps between the modes from run to
/// run, while the interquartile mean moves smoothly with the mix.
///
/// `p90` is the median over up to ten equal time windows of each
/// window's p90, so one stall moves one window rather than the run.
/// Windows keep at least 100 samples each; a run with fewer than 200
/// samples is one window.
pub fn summarize_windowed(samples: &[(u64, f64)], wall_ns: u64) -> Summary {
    let all = sorted(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
    let n = all.len();
    let windows = (n / 100).clamp(1, 10);
    let mut parts = vec![Vec::new(); windows];
    for &(at, v) in samples {
        let window = at as u128 * windows as u128 / wall_ns.max(1) as u128;
        parts[(window as usize).min(windows - 1)].push(v);
    }
    let p90s: Vec<f64> =
        parts.iter().filter(|p| !p.is_empty()).map(|p| quantile_sorted(&sorted(p), 0.9)).collect();
    let q = tail_quantile(n);
    Summary {
        median: quantile_sorted(&all, 0.5),
        iqm: iqm(&all),
        p90: median(&p90s),
        tail: quantile_sorted(&all, q),
        tail_pct: q * 100.0,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(100_000), 0.99);
        assert!((tail_quantile(100) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn windowed_summary_of_a_ramp() {
        let samples: Vec<(u64, f64)> = (0..1000).map(|i| (i, i as f64)).collect();
        let s = summarize_windowed(&samples, 1000);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 499.5);
        assert_eq!(s.iqm, 499.5);
        // Ten windows of 100: the median of their p90s is the mean of
        // the fifth's (400 + 0.9 * 99) and the sixth's (500 + 0.9 * 99).
        assert!((s.p90 - 539.1).abs() < 1e-9, "{}", s.p90);
        assert!((s.tail - 989.01).abs() < 1e-9, "{}", s.tail);
    }
}
