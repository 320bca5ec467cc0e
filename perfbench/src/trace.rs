//! The span recorder of the traced run.
//!
//! Every public call the benchmark makes into a layer is wrapped in
//! [`Tracer::span`], named by module (`geom.mst`, `phy.packing`,
//! `core.detect`, ...). Spans nest: a span opened while another is open
//! records it as its parent, so a layer's self time is its duration
//! minus its children's. Counters ([`Tracer::add`]) are recorded at the
//! same call boundaries. A disabled tracer calls straight through and
//! records nothing, which is what the end-to-end run uses.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: its name, the span that was open when it began,
/// and its start and end in seconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

#[derive(Debug, Default)]
struct Recording {
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

/// Records spans and counters in memory; read them out when the run
/// ends.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    rec: RefCell<Recording>,
}

impl Tracer {
    /// A recorder; `on = false` makes every method a pass-through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            rec: RefCell::new(Recording::default()),
        }
    }

    fn secs(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64()
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut rec = self.rec.borrow_mut();
            let idx = rec.spans.len();
            let parent = rec.open.last().copied();
            rec.spans.push(Span {
                name,
                parent,
                start: self.secs(Instant::now()),
                end: f64::NAN,
            });
            rec.open.push(idx);
            idx
        };
        let out = f();
        let mut rec = self.rec.borrow_mut();
        rec.spans[idx].end = self.secs(Instant::now());
        let closed = rec.open.pop();
        assert_eq!(closed, Some(idx), "spans close in the order they open");
        out
    }

    /// Records an already finished interval as a child of the span open
    /// now — for work whose boundaries are seen from a callback rather
    /// than from a call the benchmark makes.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let mut rec = self.rec.borrow_mut();
        let parent = rec.open.last().copied();
        let span = Span {
            name,
            parent,
            start: self.secs(start),
            end: self.secs(end),
        };
        rec.spans.push(span);
    }

    /// Adds `value` to the counter `name`.
    pub fn add(&self, name: &'static str, value: f64) {
        if self.on {
            *self.rec.borrow_mut().counters.entry(name).or_insert(0.0) += value;
        }
    }

    /// Raises the counter `name` to at least `value`.
    pub fn max(&self, name: &'static str, value: f64) {
        if self.on {
            let mut rec = self.rec.borrow_mut();
            let slot = rec.counters.entry(name).or_insert(value);
            *slot = slot.max(value);
        }
    }

    /// A counter's value (0 if never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.rec.borrow().counters.get(name).copied().unwrap_or(0.0)
    }

    /// Total milliseconds spent in spans called `name`.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.rec
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + (s.end - s.start) * 1e3)
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.rec
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    /// Milliseconds of the last span called `name` not covered by its
    /// direct children.
    pub fn self_ms(&self, name: &str) -> f64 {
        let rec = self.rec.borrow();
        let Some(idx) = rec.spans.iter().rposition(|s| s.name == name) else {
            return 0.0;
        };
        let own = rec.spans[idx].end - rec.spans[idx].start;
        let children: f64 = rec
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.end - s.start)
            .sum();
        (own - children) * 1e3
    }

    /// Every recorded span, in the order they opened.
    pub fn spans(&self) -> Vec<Span> {
        self.rec.borrow().spans.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            t.add("work", 2.0);
            t.add("work", 3.0);
        });
        assert_eq!(t.calls("inner"), 1);
        assert!(t.busy_ms("outer") >= t.busy_ms("inner"));
        assert!(t.self_ms("outer") < t.busy_ms("inner"));
        assert_eq!(t.counter("work"), 5.0);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        t.add("c", 1.0);
        assert_eq!(t.calls("x"), 0);
        assert_eq!(t.counter("c"), 0.0);
    }
}
