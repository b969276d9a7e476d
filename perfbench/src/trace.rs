//! Spans recorded from the benchmark's own code around calls into each
//! layer. Each worker owns a [`Tracer`]; spans stay in memory and are
//! merged and written out as JSONL when the run ends.

use crate::common::Samples;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans one tracer records itself (spans merged in from other tracers
/// do not count); later spans are counted, not stored, so a long traced
/// window cannot grow memory or the spans file unbounded.
const MAX_SPANS: usize = 200_000;

/// One timed call: `parent` is the span that caused it, `req` the
/// request (operation) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A per-worker span recorder. Disabled tracers record nothing and
/// cost one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Worker tag in the top 16 bits of every id this tracer issues.
    next_id: u64,
    spans: Vec<Span>,
    recorded: usize,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, worker: u64) -> Tracer {
        Tracer {
            enabled,
            origin,
            next_id: (worker << 48) + 1,
            spans: Vec::new(),
            recorded: 0,
            dropped: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Reserves a span id, so children can name their parent before
    /// the parent closes.
    pub fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span with a pre-reserved id.
    pub fn push(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        if self.recorded >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.recorded += 1;
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { id, parent, req, name, start_ns: ns(start), end_ns: ns(end) });
    }

    /// Records a leaf span and returns its id.
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.id();
        self.push(id, name, parent, req, start, end);
        id
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.leaf(name, parent, req, t0, t1);
        out
    }

    /// Merges another worker's spans (the cap applies per worker).
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.dropped += other.dropped;
    }

    /// Spans not kept because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (us) of every span called `name`.
    pub fn samples(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push_us(span.micros());
        }
        s
    }

    /// The live spans called `name` if the workload made that call
    /// itself, else the twin-replay spans `twin.<name>`.
    pub fn layer(&self, name: &str) -> Samples {
        let live = self.samples(name);
        if live.len() > 0 {
            live
        } else {
            self.samples(&format!("twin.{name}"))
        }
    }

    /// Writes every span as one JSON line, sorted by start time.
    pub fn write_jsonl(&mut self, path: &Path) -> std::io::Result<()> {
        self.spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, parent, s.req
            )?;
        }
        out.flush()
    }
}
