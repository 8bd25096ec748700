//! In-memory spans recorded around the public calls into each layer.
//!
//! A span has a layer name, a start and an end on one monotonic clock,
//! the op id it serves and the span that caused it. Spans stay in memory
//! while the benchmark runs and are written out once, at exit.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One timed call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The op this span serves (all spans of one request share it).
    pub op: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// Layer (module) name, e.g. `store.server`.
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Wall time of the span as a [`Duration`].
    pub fn duration_std(&self) -> Duration {
        Duration::from_nanos(self.duration())
    }
}

/// Records spans against one clock origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::end`].
    pub fn begin(&mut self, op: u64, parent: Option<SpanId>, layer: &'static str) -> SpanId {
        let start = self.now();
        self.record(Span {
            op,
            parent,
            layer,
            start,
            end: start,
        })
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now();
        self.spans[id as usize].end = now;
    }

    /// Runs `f` inside a span; returns its result and the span's wall
    /// time.
    pub fn span<T>(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.begin(op, parent, layer);
        let out = f();
        self.end(id);
        (out, self.spans[id as usize].duration_std())
    }

    /// Makes room for `n` more spans, so recording does not reallocate.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    /// Appends a finished span.
    pub fn record(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Every span so far, in the order opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one tab-separated line per span (`id parent op layer start
    /// end self`) to `path`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tlayer\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.op, s.layer, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted
/// once, and a child running past its parent is clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered.min(s.duration())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            op: 7,
            parent,
            layer: "t",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) with children [10,30) and [20,50) (overlapping) and
        // [90,120) (runs past the root); the first child has a grandchild
        // [12,18).
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),
            span(Some(0), 90, 120),
            span(Some(1), 12, 18),
        ];
        let own = self_times(&spans);
        // Root: 100 − |[10,50) ∪ [90,100)| = 100 − 50.
        assert_eq!(own[0], 50);
        // First child: 20 − 6 (its grandchild only, not its sibling).
        assert_eq!(own[1], 14);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 30);
        assert_eq!(own[4], 6);
        // Self times of a tree add up to the root's covered wall time
        // when children nest properly.
        let nested = vec![
            span(None, 0, 40),
            span(Some(0), 5, 15),
            span(Some(0), 20, 35),
        ];
        let own = self_times(&nested);
        assert_eq!(own.iter().sum::<u64>(), 40);
    }

    #[test]
    fn tracer_records_nested_spans() {
        let mut t = Tracer::default();
        let root = t.begin(1, None, "op");
        let (v, took) = t.span(1, Some(root), "leaf", || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        let (root, child) = (s[root as usize], s[1]);
        assert_eq!(child.parent, Some(0));
        assert_eq!(child.duration_std(), took);
        assert!(root.start <= child.start && child.end <= root.end);
    }
}
