//! Spans recorded by the harness around its calls into the program.
//! They are kept in memory and written out once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed call (or one batch of `calls` identical probe calls).
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based identifier; also the span's position in the trace.
    pub id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    /// The layer or request class, known once the call has returned.
    pub name: &'static str,
    /// Nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Calls the span covers: 1 for a request, the batch size for a probe.
    pub calls: u32,
}

/// The in-memory span recorder. While it is off, `begin` and `end` are
/// one branch each and record nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing until switched on.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Make room for `spans` more spans, so that recording them does not
    /// allocate inside the traced pass.
    pub fn reserve(&mut self, spans: usize) {
        self.spans.reserve(spans);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (0 for a root). Returns its id, or 0
    /// while the tracer is off.
    pub fn begin(&mut self, parent: u32) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: "",
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        id
    }

    /// Close span `id` (a no-op for 0) and name it.
    pub fn end(&mut self, id: u32, name: &'static str) {
        self.end_batch(id, name, 1);
    }

    /// Close a span that covered `calls` identical calls.
    pub fn end_batch(&mut self, id: u32, name: &'static str, calls: u32) {
        if id == 0 {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.name = name;
        span.calls = calls;
    }

    /// Per-call durations, in nanoseconds, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / f64::from(s.calls))
            .collect()
    }

    /// How many spans are called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Write every span as one JSON array, a span a line.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}{comma}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_nests() {
        let mut tr = Tracer::off();
        let id = tr.begin(0);
        tr.end(id, "ignored");
        assert_eq!(id, 0);
        assert_eq!(tr.count("ignored"), 0);

        tr.set_on(true);
        let load = tr.begin(0);
        let req = tr.begin(load);
        tr.end(req, "request.page.prompt");
        tr.end(load, "load");
        assert_eq!((load, req), (1, 2));
        assert_eq!(tr.spans[1].parent, load);
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);
        assert_eq!(tr.durations_ns("load").len(), 1);
    }

    #[test]
    fn batch_spans_report_per_call_time() {
        let mut tr = Tracer::off();
        tr.set_on(true);
        let id = tr.begin(0);
        tr.end_batch(id, "probe.x", 4);
        tr.spans[0].end_ns = tr.spans[0].start_ns + 400;
        assert_eq!(tr.durations_ns("probe.x"), vec![100.0]);
    }
}
