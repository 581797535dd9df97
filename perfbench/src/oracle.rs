//! The correctness oracle: exhaustive checking in the time domain,
//! independent of the index, the planner, the server and the engines'
//! spectral distance kernel.
//!
//! A moving-average family member `mv_m` is the circular convolution of
//! the normal form with the mask `[1/m; m]` (§3.1.1), and the unitary DFT
//! preserves norms (Parseval, Eq. 8), so the engines' symmetric distance
//! `D(mv_m(x̂), mv_m(q̂))` equals the Euclidean norm of the circular moving
//! average of `x̂ − q̂` — computed here with running sums, every window of
//! a family in one sweep. Range answers follow the sequential scan (every
//! sequence, every transformation, keep `D < ε`); kNN answers follow exact
//! brute force (each sequence scores its best transformation, the `k`
//! lowest win, ties to the lower ordinal).
//!
//! The two computations agree to rounding, not bit for bit. Where a
//! decision sits within [`AMBIGUOUS`] of its boundary — a distance next to
//! ε, or a score next to the k-th best — the oracle decides it with the
//! engines' `Transform::transformed_distance`, which is the definition
//! the answer is specified by.

use simquery::feature::SeqFeatures;
use simquery::transform::Transform;
use std::collections::BTreeMap;
use tseries::TimeSeries;

/// Relative width of the band around a decision boundary inside which the
/// oracle defers to the spectral distance.
pub const AMBIGUOUS: f64 = 1e-9;

/// The normal forms of a corpus snapshot.
pub struct Oracle<'a> {
    series: &'a [TimeSeries],
    normal: Vec<Option<Vec<f64>>>,
    transforms: BTreeMap<usize, Transform>,
}

/// Distances of every sequence to one query under windows `lo..=hi`:
/// `(seq, [D_lo, …, D_hi])`.
pub struct Rows {
    lo: usize,
    rows: Vec<(usize, Vec<f64>)>,
}

impl<'a> Oracle<'a> {
    /// Normalises every sequence; `max_window` bounds the windows asked
    /// for later. Degenerate (constant) sequences are not indexed by the
    /// engines and never match.
    pub fn new(series: &'a [TimeSeries], max_window: usize) -> Self {
        let n = series.first().map_or(0, TimeSeries::len);
        let normal = series
            .iter()
            .map(|ts| ts.normal_form().map(|nf| nf.series.into_values()))
            .collect();
        let transforms = (1..=max_window.min(n))
            .map(|m| (m, Transform::moving_average(m, n)))
            .collect();
        Self {
            series,
            normal,
            transforms,
        }
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Time-domain distances from sequence `query` under every circular
    /// moving average `lo..=hi`; `None` when the query is degenerate.
    pub fn rows(&self, query: usize, lo: usize, hi: usize) -> Option<Rows> {
        let q = self.normal[query].as_ref()?;
        let n = q.len();
        let mut d = vec![0.0; n];
        let mut sums = vec![0.0; n];
        let mut rows = Vec::with_capacity(self.normal.len());
        for (seq, x) in self.normal.iter().enumerate() {
            let Some(x) = x else { continue };
            for i in 0..n {
                d[i] = x[i] - q[i];
            }
            // sums[i] = Σ_{j<m} d[(i − j) mod n], grown one lag at a time.
            sums.fill(0.0);
            let mut row = Vec::with_capacity(hi + 1 - lo);
            for m in 1..=hi {
                let lag = m - 1;
                for (i, s) in sums.iter_mut().enumerate() {
                    *s += d[(i + n - lag % n) % n];
                }
                if m >= lo {
                    let inv = 1.0 / m as f64;
                    let e: f64 = sums.iter().map(|s| (s * inv) * (s * inv)).sum();
                    row.push(e.sqrt());
                }
            }
            rows.push((seq, row));
        }
        Some(Rows { lo, rows })
    }

    /// The engines' spectral distance of one pair under `mv_m`.
    fn exact(&self, seq: usize, query: usize, m: usize) -> f64 {
        let x = SeqFeatures::extract(&self.series[seq]).expect("non-degenerate sequence");
        let q = SeqFeatures::extract(&self.series[query]).expect("non-degenerate query");
        self.transforms[&m].transformed_distance(&x, &q)
    }

    /// Sorted `(seq, transform)` pairs within `eps` for the family
    /// `lo..=hi` (transform indices count from `lo`), as the sequential
    /// scan answers.
    pub fn range(
        &self,
        rows: &Rows,
        query: usize,
        lo: usize,
        hi: usize,
        eps: f64,
    ) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (seq, row) in &rows.rows {
            for m in lo..=hi {
                let d = row[m - rows.lo];
                let inside = if (d - eps).abs() <= AMBIGUOUS * eps.max(1.0) {
                    self.exact(*seq, query, m) < eps
                } else {
                    d < eps
                };
                if inside {
                    out.push((*seq, m - lo));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Sorted `(seq, transform)` pairs of the exact `k` nearest sequences
    /// under the family `lo..=hi`, each with its first best
    /// transformation.
    pub fn knn(
        &self,
        rows: &Rows,
        query: usize,
        lo: usize,
        hi: usize,
        k: usize,
    ) -> Vec<(usize, usize)> {
        let mut best: Vec<(f64, usize)> = rows
            .rows
            .iter()
            .map(|(seq, row)| {
                let d = row[lo - rows.lo..=hi - rows.lo]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                (d, *seq)
            })
            .collect();
        best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if best.is_empty() || k == 0 {
            return Vec::new();
        }
        // Everything that could be in the top k once rounding is allowed
        // for is scored exactly; the exact scores decide.
        let kth = best[k.min(best.len()) - 1].0;
        let limit = kth + AMBIGUOUS * kth.max(1.0);
        let q = SeqFeatures::extract(&self.series[query]).expect("non-degenerate query");
        let mut exact: Vec<(f64, usize, usize)> = best
            .iter()
            .take_while(|(d, _)| *d <= limit)
            .map(|&(_, seq)| {
                let x = SeqFeatures::extract(&self.series[seq]).expect("non-degenerate sequence");
                let (mut bt, mut bd) = (0usize, f64::INFINITY);
                for m in lo..=hi {
                    let d = self.transforms[&m].transformed_distance(&x, &q);
                    if d < bd {
                        bd = d;
                        bt = m - lo;
                    }
                }
                (bd, seq, bt)
            })
            .collect();
        exact.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        exact.truncate(k);
        let mut out: Vec<(usize, usize)> = exact.into_iter().map(|(_, s, t)| (s, t)).collect();
        out.sort_unstable();
        out
    }
}
