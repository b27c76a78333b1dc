//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and the
//! id of the request it belongs to. Spans stay in memory while the
//! workload runs and are written out as JSON lines when it ends. A span's
//! *self time* is its duration minus the part of that interval its child
//! spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request (operation) id; spans of one request share it.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str, req: u64) -> usize {
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and anything opened inside it that is still open).
    pub fn end(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Time `f` as a child span of the innermost open span.
    pub fn span<R>(&mut self, name: &str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Add a span measured elsewhere (a client thread's timestamps).
    pub fn record(
        &mut self,
        name: &str,
        req: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Durations (ms) of every span called `name`, self time or total.
    pub fn durations_ms(&self, name: &str, own: bool) -> Vec<f64> {
        let selfs = if own { self.self_ns() } else { Vec::new() };
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| if own { selfs[i] } else { s.dur_ns() } as f64 / 1e6)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns, selfs[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // op [0,100): render [10,40) with encode [20,30) inside it,
        // parse [50,70), and an overlapping sibling [60,80).
        let spans = vec![
            span("op", 0, 100, None),
            span("render", 10, 40, Some(0)),
            span("encode", 20, 30, Some(1)),
            span("parse", 50, 70, Some(0)),
            span("late", 60, 80, Some(0)),
            span("outside", 90, 130, Some(0)),
        ];
        // Children of op cover [10,40) + [50,80) + [90,100) = 30 + 30 + 10.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 20, 20, 40]);
    }

    #[test]
    fn nested_begin_end_records_parents() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || std::hint::black_box(1 + 1));
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        let selfs = t.self_ns();
        assert_eq!(selfs[0] + spans[1].dur_ns(), spans[0].dur_ns());
    }
}
