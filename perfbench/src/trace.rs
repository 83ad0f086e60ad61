//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each crate's public functions: name, start, end and the enclosing
//! span. They stay in memory until the run ends, then go to a JSON file.
//! A disabled tracer runs the closure and records nothing, so the
//! untraced run pays one branch per call site.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span, times in ns since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records nested spans. Spans nest by call order, so one tracer serves
/// one thread of work at a time (the benchmark runs its executors with
/// one worker).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut st = self.state.lock().expect("tracer lock poisoned");
            let parent = st.open.last().copied();
            let id = st.spans.len();
            st.spans.push(Span {
                name: name.into(),
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            st.open.push(id);
            id
        };
        // Stamp the start after the bookkeeping so the span times `f`.
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut st = self.state.lock().expect("tracer lock poisoned");
        st.open.pop();
        let span = &mut st.spans[id];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// A copy of every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .lock()
            .expect("tracer lock poisoned")
            .spans
            .clone()
    }
}

/// Per-span self time: the span's duration minus the part of its
/// interval that its direct children cover.
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
            // Union of the children's intervals, clipped to the parent.
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
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total inclusive and self seconds per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, (f64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name.to_string()).or_default();
        e.0 += s.duration_ns() as f64 * 1e-9;
        e.1 += self_ns as f64 * 1e-9;
    }
    out
}

/// Share of the root spans named `root` that their children cover.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.parent.is_none() && s.name == root {
            total += s.duration_ns();
            own += self_ns;
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - own as f64 / total as f64
    }
}

/// Spans as a JSON array: `[{"name", "start_ns", "end_ns", "parent"}]`.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            selfs[i],
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let totals = totals_by_name(&spans);
        assert!((totals["a"].0 - 30e-9).abs() < 1e-15);
        assert!((totals["a"].1 - 20e-9).abs() < 1e-15);
        assert!((coverage(&spans, "root") - 0.7).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 120, Some(0)),
        ];
        // Children cover [10, 100) once: 90 ns.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let t = Tracer::new(true);
        let v = t.span("outer", || {
            t.span("inner", || std::hint::black_box(2) + 1) + t.span("inner", || 1)
        });
        assert_eq!(v, 4);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(to_json(&spans).contains("\"name\": \"inner\""));
        let off = Tracer::new(false);
        assert_eq!(off.span("x", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
