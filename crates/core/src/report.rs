//! Query results and the metrics every engine reports.

use std::fmt;
use std::time::Duration;

/// One qualifying `(sequence, transformation)` pair of Query 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Match {
    /// Ordinal of the matching sequence in the corpus.
    pub seq: usize,
    /// Index of the qualifying transformation in the family.
    pub transform: usize,
    /// The exact distance `D(t(x), t(q))`.
    pub dist: f64,
}

/// One qualifying pair of the spatial join (Query 2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinMatch {
    /// First sequence (always `< seq_b`).
    pub seq_a: usize,
    /// Second sequence.
    pub seq_b: usize,
    /// Index of the qualifying transformation.
    pub transform: usize,
    /// The exact distance `D(t(x), t(y))`.
    pub dist: f64,
}

/// Cost counters of one query execution — the quantities the paper's cost
/// model (Eq. 18–20) is built from.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineMetrics {
    /// Index node accesses over all levels — `Σ DA_all(q, rᵢ)`.
    pub node_accesses: u64,
    /// Leaf-node accesses — `Σ DA_leaf(q, rᵢ)`.
    pub leaf_accesses: u64,
    /// Heap (record) page accesses during scans and post-processing
    /// (physical: buffer-pool misses).
    pub record_page_accesses: u64,
    /// Logical record fetches, one per candidate verification touch — the
    /// unit the paper's access counts use.
    pub record_fetches: u64,
    /// Full-sequence distance computations — the `C_cmp`-weighted term.
    pub comparisons: u64,
    /// Candidate sequences that reached post-processing.
    pub candidates: u64,
    /// Wall-clock time of the query.
    pub wall: Duration,
}

impl EngineMetrics {
    /// Total physical disk accesses (index nodes + record pages).
    pub fn disk_accesses(&self) -> u64 {
        self.node_accesses + self.record_page_accesses
    }

    /// The paper's Fig. 8–9 accounting: index node accesses plus *logical*
    /// record fetches (no buffering assumed).
    pub fn paper_disk_accesses(&self) -> u64 {
        self.node_accesses + self.record_fetches
    }
}

impl fmt::Display for EngineMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes={} (leaf {}) record_pages={} fetches={} cmps={} cands={} wall={:?}",
            self.node_accesses,
            self.leaf_accesses,
            self.record_page_accesses,
            self.record_fetches,
            self.comparisons,
            self.candidates,
            self.wall
        )
    }
}

/// A range-query result.
#[derive(Clone, Debug, Default)]
pub struct QueryResult {
    /// All qualifying `(sequence, transformation, distance)` triples.
    pub matches: Vec<Match>,
    /// Cost counters.
    pub metrics: EngineMetrics,
}

impl QueryResult {
    /// Deduplicated matching sequence ordinals, sorted.
    pub fn matched_sequences(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.matches.iter().map(|m| m.seq).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Canonical ordering for result-set comparisons in tests.
    pub fn sorted_pairs(&self) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> =
            self.matches.iter().map(|m| (m.seq, m.transform)).collect();
        v.sort_unstable();
        v
    }
}

/// A join-query result.
#[derive(Clone, Debug, Default)]
pub struct JoinResult {
    /// All qualifying pairs.
    pub matches: Vec<JoinMatch>,
    /// Cost counters.
    pub metrics: EngineMetrics,
}

impl JoinResult {
    /// Canonical ordering for result-set comparisons in tests.
    pub fn sorted_triples(&self) -> Vec<(usize, usize, usize)> {
        let mut v: Vec<(usize, usize, usize)> = self
            .matches
            .iter()
            .map(|m| (m.seq_a, m.seq_b, m.transform))
            .collect();
        v.sort_unstable();
        v
    }
}

/// Errors raised by the query engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query sequence has no normal form (constant or too short).
    DegenerateQuery,
    /// The query length does not match the indexed corpus length.
    LengthMismatch {
        /// Length of the query sequence.
        query: usize,
        /// Length of the indexed sequences.
        indexed: usize,
    },
    /// The transformation family targets a different sequence length.
    FamilyLengthMismatch {
        /// Length the family was built for.
        family: usize,
        /// Length of the indexed sequences.
        indexed: usize,
    },
    /// A page access failed while executing the query. The query produced
    /// no partial result — engines abort cleanly on the first device error.
    Io(pagestore::PageError),
    /// JOIN against an index split across several shards: its pairs would
    /// cross shards, so the join engines run only on a 1-shard index.
    ShardedJoin,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DegenerateQuery => write!(f, "query sequence has no normal form"),
            Self::LengthMismatch { query, indexed } => {
                write!(f, "query length {query} != indexed length {indexed}")
            }
            Self::FamilyLengthMismatch { family, indexed } => {
                write!(
                    f,
                    "family built for length {family}, index holds length {indexed}"
                )
            }
            Self::Io(e) => write!(f, "page access failed: {e}"),
            Self::ShardedJoin => write!(f, "JOIN is not supported on a sharded index"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pagestore::PageError> for QueryError {
    fn from(e: pagestore::PageError) -> Self {
        Self::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_sequences_dedups() {
        let r = QueryResult {
            matches: vec![
                Match {
                    seq: 3,
                    transform: 0,
                    dist: 1.0,
                },
                Match {
                    seq: 1,
                    transform: 2,
                    dist: 0.5,
                },
                Match {
                    seq: 3,
                    transform: 1,
                    dist: 0.9,
                },
            ],
            metrics: EngineMetrics::default(),
        };
        assert_eq!(r.matched_sequences(), vec![1, 3]);
        assert_eq!(r.sorted_pairs(), vec![(1, 2), (3, 0), (3, 1)]);
    }

    #[test]
    fn metrics_total() {
        let m = EngineMetrics {
            node_accesses: 10,
            record_page_accesses: 5,
            ..Default::default()
        };
        assert_eq!(m.disk_accesses(), 15);
    }

    #[test]
    fn error_display() {
        let e = QueryError::LengthMismatch {
            query: 64,
            indexed: 128,
        };
        assert!(e.to_string().contains("64"));
    }
}
