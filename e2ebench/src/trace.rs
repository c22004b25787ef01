//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! name, start, end, parent and (on the serve path) the update's request id.
//! Spans stay in memory until [`Tracer::write_jsonl`] at the end of the run.
//! A span's self time is its duration minus the durations of its children.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.open` or `serve.tick`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Request id shared by the spans of one serve update.
    pub request: Option<u64>,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder. When disabled, [`Tracer::begin`] records nothing and returns
/// `None`, so the same code path runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that starts enabled or disabled.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for subsequent spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`] (a `None` id is a no-op).
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span in nanoseconds: its duration minus its
    /// children's durations.
    pub fn self_times_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.duration_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_ns() as i64;
            }
        }
        own
    }

    /// Layer accounting under the root spans named `root`: `(end-to-end wall
    /// ns, summed self ns of every descendant layer span)`. The difference is
    /// time the root spent outside any layer call.
    pub fn coverage_under(&self, root: &str) -> (u64, i64) {
        let own = self.self_times_ns();
        let root_of = |mut i: SpanId| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        let mut wall = 0u64;
        let mut layers = 0i64;
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[root_of(i)].name != root {
                continue;
            }
            if s.parent.is_none() {
                wall += s.duration_ns();
            } else {
                layers += own[i];
            }
        }
        (wall, layers)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.begin("cycle", None, None);
        t.time("store.open", root, None, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let own = t.self_times_ns();
        assert_eq!(own[0] + own[1], t.spans()[0].duration_ns() as i64);
        let (wall, layers) = t.coverage_under("cycle");
        assert_eq!(layers, own[1]);
        assert!(wall as i64 >= layers);

        t.set_enabled(false);
        assert_eq!(t.begin("cycle", None, None), None);
        assert_eq!(t.spans().len(), 2);
    }
}
