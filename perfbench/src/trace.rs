//! Spans recorded by the benchmark around its calls into each layer: name,
//! layer, start, end, parent and request id, kept in memory and written out
//! as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its index (the parent id of its children).
    pub fn span(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Records a child whose duration is known but whose placement is not
    /// (a stage the server timed): it is placed at the end of its parent.
    pub fn child_of_duration(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: usize,
        duration: Duration,
    ) -> usize {
        let p = &self.spans[parent];
        let end_ns = p.end_ns;
        let start_ns = end_ns
            .saturating_sub(duration.as_nanos() as u64)
            .max(p.start_ns);
        let request = p.request;
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent: Some(parent),
            request,
        });
        self.spans.len() - 1
    }

    /// Appends the spans of another tracer with the same epoch, keeping
    /// their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        debug_assert_eq!(self.epoch, other.epoch, "tracers share one epoch");
        let offset = self.spans.len();
        for mut span in other.spans {
            span.parent = span.parent.map(|p| p + offset);
            self.spans.push(span);
        }
    }

    /// Self time per layer in milliseconds: each span's duration minus the
    /// time its direct children cover.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.layer, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut tracer = Tracer::new(t0);
        let root = tracer.span("rt", "service", t0, t0 + Duration::from_millis(10), None, 1);
        tracer.child_of_duration("exec", "query", root, Duration::from_millis(4));
        let by_layer = tracer.self_ms_by_layer();
        assert!((by_layer["service"] - 6.0).abs() < 1e-9);
        assert!((by_layer["query"] - 4.0).abs() < 1e-9);
    }
}
