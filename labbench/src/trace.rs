//! labbench's own span recorder: one span around every call the
//! benchmark makes into a layer of the lab.
//!
//! Spans are kept in memory and written out once, when the run ends. A
//! span's *self time* is its duration minus the part its child spans
//! cover, so the self times of all spans under a root add up to the
//! root's duration — that sum is what `labbench.coverage_ratio` reports.
//! A disabled tracer records nothing and costs one branch per call; the
//! end-to-end metrics are always measured with it disabled.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `id` is 1-based; `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// `<layer>.<call>`, the layer being a crate name.
    pub name: &'static str,
    /// Which instance of the call this is (a scheme, a storm depth); may
    /// be empty.
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The crate the span's call belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split_once('.').map_or(self.name, |(layer, _)| layer)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    state: RefCell<(Vec<Span>, Vec<u32>)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), state: RefCell::new((Vec::new(), Vec::new())) }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span. Spans opened by `f` become its children.
    pub fn span<T>(&self, name: &'static str, label: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let index = {
            let mut state = self.state.borrow_mut();
            let (spans, stack) = &mut *state;
            let id = spans.len() as u32 + 1;
            let parent = stack.last().copied().unwrap_or(0);
            let now = self.epoch.elapsed().as_nanos() as u64;
            spans.push(Span { id, parent, name, label, start_ns: now, end_ns: now });
            stack.push(id);
            id as usize - 1
        };
        let out = f();
        let mut state = self.state.borrow_mut();
        state.0[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        state.1.pop();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().0.clone()
    }
}

/// Self time of every span, in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let p = s.parent as usize - 1;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Totals of the spans sharing one `(name, label)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span totals by `(name, label)`, and by name alone under label `"*"`.
pub fn totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), SpanTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<(&'static str, &'static str), SpanTotal> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        for key in [(s.name, s.label), (s.name, "*")] {
            let t = out.entry(key).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
    }
    out
}

/// The spans as the JSON array written to the trace file.
pub fn spans_to_value(spans: &[Span]) -> serde::Value {
    use serde::Value;
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".to_string(), Value::U64(s.id as u64)),
                    ("parent".to_string(), Value::U64(s.parent as u64)),
                    ("name".to_string(), Value::String(s.name.to_string())),
                    ("label".to_string(), Value::String(s.label.to_string())),
                    ("start_ns".to_string(), Value::U64(s.start_ns)),
                    ("end_ns".to_string(), Value::U64(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("a.b", "", || 7), 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_times_add_up() {
        let tr = Tracer::new(true);
        tr.span("labbench.pass", "", || {
            tr.span("simnet.run", "deep", || std::hint::black_box(0));
            tr.span("obs.export", "", || {
                tr.span("obs.inner", "", || std::hint::black_box(0));
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.iter().map(|s| s.parent).collect::<Vec<_>>(), vec![0, 1, 1, 3]);
        assert_eq!(spans[1].layer(), "simnet");
        let own = self_times(&spans);
        assert_eq!(own.iter().sum::<u64>(), spans[0].dur_ns());
        let t = totals(&spans);
        assert_eq!(t[&("simnet.run", "deep")].count, 1);
        assert_eq!(t[&("simnet.run", "*")].count, 1);
    }
}
