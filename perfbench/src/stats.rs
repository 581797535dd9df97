//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints is computed from the full list of
//! per-operation samples, never from a bucketed histogram.

/// The `q`-quantile of `sorted` (ascending), by linear interpolation
/// between the two nearest order statistics — the "R-7" definition that
/// NumPy and most spreadsheets use. Exact: no bucketing, no sampling.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| quantile(&sorted(values), 0.5))
}

/// Median and 99th percentile of one operation's latencies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of raw samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Summarises raw samples; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    Some(Summary {
        count: s.len(),
        p50: quantile(&s, 0.5),
        p99: quantile(&s, 0.99),
    })
}
