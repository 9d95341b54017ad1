//! The traced run's span recorder. Spans are taken around the
//! benchmark's own calls into each crate's public functions (the program
//! itself is not instrumented), kept in memory, and written out as JSON
//! lines when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a statement's root span.
    pub parent: u64,
    pub stmt: u64,
    pub name: &'static str,
    /// The statement kind (`lookup`, `eff3`, `load`, ...).
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Per-connection recorder; recorders of one run share an epoch and
/// differ in the high bits of their span and statement ids.
pub struct Tracer {
    epoch: Instant,
    prefix: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, conn: usize) -> Tracer {
        Tracer {
            epoch,
            prefix: (conn as u64 + 1) << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh statement id.
    pub fn statement(&mut self) -> u64 {
        self.next += 1;
        self.prefix | self.next
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, stmt: u64, parent: u64, name: &'static str, label: &'static str) -> u64 {
        self.next += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: self.prefix | self.next,
            parent,
            stmt,
            name,
            label,
            start_ns,
            end_ns: start_ns,
        });
        self.prefix | self.next
    }

    pub fn close(&mut self, id: u64) {
        let end = self.now_ns();
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("closing a span this tracer opened");
        span.end_ns = end;
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        stmt: u64,
        parent: u64,
        name: &'static str,
        label: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(stmt, parent, name, label);
        let out = f();
        self.close(id);
        out
    }
}

/// Summed span durations per statement and span name, in µs.
pub fn by_statement(spans: &[Span]) -> HashMap<u64, HashMap<&'static str, f64>> {
    let mut out: HashMap<u64, HashMap<&'static str, f64>> = HashMap::new();
    for s in spans {
        *out.entry(s.stmt).or_default().entry(s.name).or_default() += s.us();
    }
    out
}

/// Self time (duration minus the part its child spans cover) and count
/// per span name, sorted by name.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, f64)> {
    let mut child_us: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_us.entry(s.parent).or_default() += s.us();
    }
    let mut agg: HashMap<&'static str, (u64, f64)> = HashMap::new();
    for s in spans {
        let e = agg.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.us() - child_us.get(&s.id).copied().unwrap_or(0.0);
    }
    let mut out: Vec<_> = agg.into_iter().map(|(n, (c, t))| (n, c, t)).collect();
    out.sort_by(|a, b| a.0.cmp(b.0));
    out
}

/// Writes `header` and then one JSON object per span.
pub fn write_spans(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"stmt\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.stmt, s.name, s.label, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
