//! Spans recorded from outside the engine, around calls into each layer's
//! public functions.
//!
//! A root span is a real public call (`Db::get`, `Db::write`, `Db::scan`, a
//! client request). For one operation in [`SAMPLE`] the harness records that
//! root, then re-issues the operation's path layer by layer with the same
//! arguments and records the pieces as child spans of it. Children are shadow calls made after
//! the root returned (warm), so they are linked by parent id, not by
//! nesting in time, and how much of the root they explain (`closure`) is
//! reported, not assumed. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One operation in `SAMPLE` is traced.
pub const SAMPLE: u64 = 64;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one operation share its id.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: a new span's parent is the top.
    open: Vec<u32>,
    /// Id of the operation being traced.
    op: u64,
}

/// Per span name: how many, their total duration and total self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether the `i`-th operation of a stream is one of the traced ones.
    // The repository's MSRV (1.82) predates `u64::is_multiple_of`.
    #[allow(clippy::manual_is_multiple_of)]
    pub fn samples(i: u64) -> bool {
        i % SAMPLE == 0
    }

    /// Start a new traced operation: later spans carry its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record the call `f` as a span named `name`, child of the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.call_then_shadow(name, f, |_, _| ())
    }

    /// Record the call `f` as a span, then run `shadow` with that span open
    /// so the shadow calls' spans become its children. The span ends when
    /// `f` returns, before the shadow calls start. With no span open this
    /// records a root: the real public call of the operation.
    pub fn call_then_shadow<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> R,
        shadow: impl FnOnce(&mut Tracer, &R),
    ) -> R {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        shadow(self, &out);
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time is its duration minus its children's, floored at
    /// zero (shadow children of a root can add up to more than the root).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Σ direct children ÷ Σ duration over the spans named `root`: the share
    /// of the real call the shadow calls account for.
    pub fn closure(&self, root: &str) -> f64 {
        let mut root_ns = 0u64;
        let mut children_ns = 0u64;
        for s in &self.spans {
            if s.name == root {
                root_ns += s.duration_ns();
            }
            if let Some(p) = s.parent {
                if self.spans[p as usize].name == root {
                    children_ns += s.duration_ns();
                }
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            children_ns as f64 / root_ns as f64
        }
    }

    /// One JSON array of `{id, name, start_ns, end_ns, parent, op}`.
    pub fn write_json(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(out, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans: (name, start, end, parent).
    fn tracer(spans: &[(&'static str, u64, u64, Option<u32>)]) -> Tracer {
        let mut t = Tracer::new();
        t.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                op: 0,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 has siblings a (10..30) and b (40..70); b has a
        // nested child c (45..55).
        let t = tracer(&[
            ("root", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 40, 70, Some(0)),
            ("c", 45, 55, Some(2)),
        ]);
        let totals = t.totals();
        assert_eq!(totals["root"].self_ns, 100 - 20 - 30);
        assert_eq!(totals["a"].self_ns, 20);
        assert_eq!(totals["b"].self_ns, 30 - 10);
        assert_eq!(totals["c"].self_ns, 10);
        // Only direct children count toward a root's closure.
        assert_eq!(t.closure("root"), 0.5);
        assert_eq!(t.closure("b"), 10.0 / 30.0);
        assert_eq!(t.closure("absent"), 0.0);
    }

    #[test]
    fn same_name_spans_accumulate_and_shadow_overrun_floors_at_zero() {
        // Two roots; the second one's shadow children outlast it.
        let t = tracer(&[
            ("get", 0, 10, None),
            ("table", 10, 14, Some(0)),
            ("get", 20, 26, None),
            ("table", 26, 31, Some(2)),
            ("table", 31, 35, Some(2)),
        ]);
        let totals = t.totals();
        assert_eq!(totals["get"].count, 2);
        assert_eq!(totals["get"].total_ns, 16);
        assert_eq!(totals["get"].self_ns, 6); // 6 from the first, 0 from the second
        assert_eq!(totals["table"].count, 3);
        assert_eq!(totals["get"].mean_self_ns(), 3.0);
    }

    #[test]
    fn recorded_spans_link_to_the_open_parent() {
        let mut t = Tracer::new();
        t.begin_op();
        let v = t.call_then_shadow(
            "root",
            || 41 + 1,
            |t, &v| {
                assert_eq!(v, 42);
                t.call_then_shadow("outer", || (), |t, _| t.span("inner", || ()));
                t.span("sibling", || ());
            },
        );
        assert_eq!(v, 42);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("root", None),
                ("outer", Some(0)),
                ("inner", Some(1)),
                ("sibling", Some(0))
            ]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        // The root ended before its shadow children began.
        assert!(t.spans()[0].end_ns <= t.spans()[1].start_ns);
        let mut json = Vec::new();
        t.write_json(&mut json).unwrap();
        let text = String::from_utf8(json).unwrap();
        assert_eq!(text.lines().count(), 4 + 2);
        assert!(text.contains("\"name\":\"inner\""));
    }
}
