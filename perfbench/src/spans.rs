//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (the layer and call), a start and end, the span that
//! caused it, and a request id shared by one request's spans. Spans stay in
//! memory and are written out once, at the end of the run. A disabled
//! tracer records nothing, so the untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Request id shared by one request's spans (0 when there is none).
    pub req: u64,
    /// Layer and call, such as `rdf.ntriples.parse`.
    pub name: &'static str,
    /// Start, in ns since the origin.
    pub start: u64,
    /// End, in ns since the origin.
    pub end: u64,
}

/// Total self time and call count of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Sum of the spans' self times, in ns.
    pub self_ns: u64,
    /// Sum of the spans' durations, in ns.
    pub total_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Records spans when enabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// span still open.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            req,
            name,
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.ns(Instant::now());
        out
    }

    /// Records a span timed elsewhere (on another thread, or by the
    /// program's reply) under an explicit parent; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent: parent.or_else(|| self.open.last().copied()),
            req,
            name,
            start,
            end: end.max(start),
        });
        Some(id)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part of
    /// its interval that its children cover (overlapping children are
    /// counted once).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans)
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// See [`Tracer::self_times`].
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let duration = s.end - s.start;
        let covered = covered(s.start, s.end, kids);
        let entry = out.entry(s.name).or_default();
        entry.self_ns += duration - covered;
        entry.total_ns += duration;
        entry.count += 1;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "parse", 10, 40),
            span(2, Some(0), "solve", 50, 90),
            span(3, Some(2), "encode", 50, 60),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"].self_ns, 30);
        assert_eq!(t["parse"].self_ns, 30);
        assert_eq!(t["solve"].self_ns, 30);
        assert_eq!(t["encode"].self_ns, 10);
        assert_eq!(t["pass"].total_ns, 100);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span(0, None, "request", 100, 200),
            span(1, Some(0), "a", 90, 150),
            span(2, Some(0), "b", 120, 170),
            span(3, Some(0), "c", 190, 260),
        ];
        // Covered: [100,170) and [190,200) = 80.
        assert_eq!(self_times(&spans)["request"].self_ns, 20);
    }

    #[test]
    fn nested_closures_record_parents() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.req == 7 && s.end >= s.start));
        assert_eq!(tracer.self_times()["inner"].count, 2);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 1, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
