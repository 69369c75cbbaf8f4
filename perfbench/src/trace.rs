//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every public call it makes into a library layer in a
//! span named `<layer>.<call>` (for example `sim.checkpoint.encode`), under
//! one `bench.op` root span per pass. Spans stay in memory and are written
//! out once, when the run ends. A disabled tracer only runs the wrapped
//! call, so untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call: name, start and end (ns since the tracer was made),
/// and the index of the span that was open when it started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name without the last segment
    /// (`sim.checkpoint.encode` → `sim.checkpoint`).
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off; only between passes, with no span open.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled with a span open");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that encloses the spans opened until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Closes every open span: the recovery path after a pass panicked
    /// part-way through a call.
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.close();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and call count per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_insert((0u64, 0u64));
            e.0 += s.duration_ns();
            e.1 += 1;
        }
        out
    }

    /// Self time per layer: each span's duration minus the durations of
    /// its direct children, summed by [`Span::layer`].
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0) += s.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.start_ns, s.end_ns, parent
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.open("bench.op");
        tr.span("sim.system.run_until", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        tr.close();
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let layers = tr.self_ns_by_layer();
        let total = spans[0].duration_ns();
        assert_eq!(layers["bench"] + layers["sim.system"], total);
        assert!(layers["sim.system"] >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new();
        assert_eq!(tr.span("obs.snapshot_export", || 7), 7);
        assert!(tr.spans().is_empty());
    }
}
