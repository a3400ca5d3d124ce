//! Host-side spans recorded from the harness's own files, around the calls
//! into each layer's public functions. Spans stay in memory and are written
//! out once, at exit. The harness is single-threaded, so "the span that
//! caused this one" is simply the innermost open span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One closed (or still open) span. Times are seconds since the tracer was
/// created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (`None` outside a pass).
    pub op: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

struct State {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    state: RefCell<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let now = self.tracer.origin.elapsed().as_secs_f64();
            let mut state = self.tracer.state.borrow_mut();
            state.spans[index].end_s = now;
            let top = state.open.pop();
            debug_assert_eq!(top, Some(index), "spans close innermost first");
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            state: RefCell::new(State {
                enabled: true,
                spans: Vec::new(),
                open: Vec::new(),
                op: None,
            }),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        let tracer = Tracer::new();
        tracer.set_enabled(false);
        tracer
    }

    /// Timed passes run with tracing off: `span` then costs one flag check.
    pub fn set_enabled(&self, enabled: bool) {
        self.state.borrow_mut().enabled = enabled;
    }

    /// Tags spans opened from now on with an op id.
    pub fn set_op(&self, op: Option<usize>) {
        self.state.borrow_mut().op = op;
    }

    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let mut state = self.state.borrow_mut();
        if !state.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let now = self.origin.elapsed().as_secs_f64();
        let index = state.spans.len();
        let parent = state.open.last().copied();
        let op = state.op;
        state.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent,
            op,
        });
        state.open.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(name);
        f()
    }

    /// Spans opened at or after `mark`.
    pub fn since(&self, mark: usize) -> Vec<Span> {
        self.state.borrow().spans[mark..].to_vec()
    }

    /// How many spans exist; pass it to [`Tracer::since`] later to get the
    /// spans opened from here on.
    pub fn len(&self) -> usize {
        self.state.borrow().spans.len()
    }

    pub fn to_json(&self) -> Json {
        let state = self.state.borrow();
        Json::Arr(
            state
                .spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Num(v as f64));
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("start_s", Json::Num(s.start_s)),
                        ("end_s", Json::Num(s.end_s)),
                        ("parent", opt(s.parent)),
                        ("op", opt(s.op)),
                    ])
                })
                .collect(),
        )
    }
}

/// Total seconds of the spans called `name`.
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub calls: usize,
    pub total_s: f64,
    /// Total minus the part covered by child spans.
    pub self_s: f64,
}

/// Per-name self time of `spans` (a slice from [`Tracer::since`], whose
/// parent indices are offset by `mark`).
pub fn self_times(spans: &[Span], mark: usize) -> Vec<SelfTime> {
    let mut child_s = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| p.checked_sub(mark)) {
            child_s[parent] += span.seconds();
        }
    }
    let mut rows: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (span, child) in spans.iter().zip(child_s) {
        let row = rows.entry(span.name).or_insert(SelfTime {
            name: span.name,
            calls: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        row.calls += 1;
        row.total_s += span.seconds();
        row.self_s += span.seconds() - child;
    }
    let mut rows: Vec<SelfTime> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_to_their_parent_and_self_time_excludes_children() {
        let tracer = Tracer::new();
        {
            let _pass = tracer.span("pass");
            tracer.set_op(Some(3));
            {
                let _op = tracer.span("op");
                tracer.time("inner", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            }
            tracer.set_op(None);
        }
        tracer.set_enabled(false);
        tracer.time("ignored", || ());
        let spans = tracer.since(0);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].op, Some(3));
        let rows = self_times(&spans, 0);
        let row = |name| rows.iter().find(|r| r.name == name).unwrap();
        assert!(row("inner").self_s >= 0.002);
        assert!(row("op").self_s < row("op").total_s);
        let sum_self: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!((sum_self - row("pass").total_s).abs() < 1e-9);
    }
}
