//! Spans recorded from outside the program: the harness brackets each
//! call into a layer with [`Tracer::begin`]/[`Tracer::end`]. Spans stay
//! in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One bracketed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Spec family label for engine spans (`engine.run_s.<label>`).
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation (request, spec run, dispatch) the span belongs to.
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

/// Per-layer totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotal {
    pub self_ns: u64,
    pub count: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { on: false, t0: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    pub fn enable(&mut self, on: bool) {
        self.on = on;
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Sets the operation id that subsequent spans carry.
    pub fn op(&mut self, id: u64) {
        self.op = id;
    }

    pub fn begin(&mut self, name: &'static str, label: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            label,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, label: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, label);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (duration minus the part covered by child spans) and
    /// count per layer name, over spans starting in `[from, to)`.
    pub fn layers(&self, from: u64, to: u64) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.start_ns < from || s.start_ns >= to {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            t.count += 1;
        }
        out
    }

    /// Total duration of root spans starting in `[from, to)`: the part
    /// of that window the layers account for.
    pub fn covered_ns(&self, from: u64, to: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start_ns >= from && s.start_ns < to)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time of `name` spans per label.
    pub fn by_label(&self, name: &str) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.label).or_insert(0) += s.end_ns - s.start_ns;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.label, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}
