//! In-memory span recorder for the traced replay.
//!
//! A span is opened and closed around each call into a layer's public
//! function. Spans carry a name, start and end (ns since the recorder was
//! created), the index of the enclosing span and the request they belong
//! to. They stay in memory and are written out once, at the end. A
//! disabled recorder reads no clock and stores nothing, so the same replay
//! code measures the cost of tracing itself.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `rstartree.search`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub req: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span ([`Tracer::begin`] → [`Tracer::end`]).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// The recorder.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    /// Spans opened from now on belong to request `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let t = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = t;
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, ns: its duration minus the time its
    /// direct children cover. Children of one parent never overlap (the
    /// replay is single-threaded), so their durations add.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c))
            .collect()
    }

    /// Summed self time per request of every span named `name`, ns.
    /// Requests without such a span are absent.
    pub fn self_ns_by_request(&self, name: &str) -> BTreeMap<u64, u64> {
        let own = self.self_times();
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            if s.name == name {
                *out.entry(s.req).or_insert(0) += t;
            }
        }
        out
    }

    /// Summed wall duration per request of every span named `name`, ns.
    pub fn dur_ns_by_request(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.req).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent req name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_times();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, t)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{t}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
