//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and the
//! id of the job or request it belongs to. Spans stay in memory while the
//! workload runs and are written out once, at the end.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `gpu.build` or `maskd.submit`.
    pub name: &'static str,
    /// Job or request the span belongs to.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread-safe span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a tracing thread panicked")
    }

    /// Opens a span; its end is set by [`Tracer::close`].
    fn open(&self, name: &'static str, id: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    fn close(&self, span: SpanId) {
        let end_ns = self.now_ns();
        self.lock()[span].end_ns = end_ns;
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut spans = self.lock();
        spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let span = self.open(name, id, parent);
        let out = f(span);
        self.close(span);
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover. Children that overlap each other (jobs on parallel
/// workers under one batch span) count once.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Durations in milliseconds of every span called `name`.
#[must_use]
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Total nanoseconds of every span called `name`.
#[must_use]
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Writes the spans, with their self times, as one JSON array.
///
/// # Errors
///
/// Any error creating the directory or writing the file.
pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}{}",
            s.name,
            s.id,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push_str("]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("job", None, 0, 100),
            span("build", Some(0), 10, 30),
            span("run", Some(0), 40, 90),
            span("epoch", Some(2), 40, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers' jobs under one batch span.
        let spans = vec![
            span("batch", None, 0, 100),
            span("job", Some(0), 0, 60),
            span("job", Some(0), 20, 80),
            span("job", Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", None, 10, 20), span("c", Some(0), 0, 15)];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn tracer_nests_and_totals() {
        let t = Tracer::new();
        t.time("outer", 1, None, |outer| {
            t.time("inner", 1, Some(outer), |_| std::hint::black_box(3 + 4));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(total_ns(&spans, "outer"), spans[0].dur_ns());
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].dur_ns());
    }
}
