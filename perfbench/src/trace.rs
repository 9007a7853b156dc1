//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and the request it
//! belongs to. Spans stay in memory until the run ends; then they are
//! written out and reduced to per-name self times. With tracing off every
//! call is a no-op that reads no clock, so the untraced run pays nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Request the span belongs to (0 for set-up and probe work).
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covers (a probe times many calls in one span).
    pub ops: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration per covered operation, in nanoseconds.
    pub fn per_op_ns(&self) -> f64 {
        self.dur_ns() as f64 / f64::from(self.ops.max(1))
    }
}

/// A span that has started but not ended.
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The id children of this span record as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The same span under another name (decided once its outcome is
    /// known).
    pub fn renamed(self, name: &'static str) -> Open {
        Open { name, ..self }
    }
}

/// A per-thread span recorder. Each thread gets its own lane of ids, so
/// recorders never share state and merge without renumbering.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: u64,
    spans: Vec<Span>,
}

/// Bits of a span id left for the per-lane counter.
const LANE_SHIFT: u32 = 40;

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer::lane(on, epoch, 0)
    }

    fn lane(on: bool, epoch: Instant, lane: u64) -> Self {
        Tracer {
            on,
            epoch,
            next: (lane << LANE_SHIFT) | 1,
            spans: if on {
                Vec::with_capacity(1 << 16)
            } else {
                Vec::new()
            },
        }
    }

    /// A recorder for another thread, sharing this one's clock origin.
    pub fn fork(&self, lane: u64) -> Tracer {
        Tracer::lane(self.on, self.epoch, lane)
    }

    /// Switch recording on or off (a run measures untraced, then traced).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &'static str, parent: u64, req: u64) -> Open {
        if !self.on {
            return Open {
                id: 0,
                parent,
                req,
                name,
                start_ns: 0,
            };
        }
        let id = self.next;
        self.next += 1;
        Open {
            id,
            parent,
            req,
            name,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&mut self, open: Open) {
        self.close_ops(open, 1);
    }

    /// Close a span that covered `ops` operations.
    pub fn close_ops(&mut self, open: Open, ops: u32) {
        if !self.on || open.id == 0 {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            req: open.req,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            ops,
        });
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, parent, 0);
        let out = f();
        self.close(open);
        out
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total and self time of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Reduce spans to per-name totals and self times. A span's self time is
/// its duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map(|kids| covered_ns(kids, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += s.dur_ns();
        entry.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Spans as CSV, one per line, for offline inspection.
pub fn to_csv(spans: &[Span]) -> String {
    let mut out = String::from("id,parent,req,name,start_ns,end_ns,ops\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, s.ops
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "step", 0, 100),
            span(2, 1, "swap", 10, 40),
            span(3, 1, "swap", 30, 50),
            span(4, 1, "swap", 90, 120),
        ];
        let t = self_times(&spans);
        // Children cover [10, 50) and [90, 100): 50 ns of 100.
        assert_eq!(t["step"].self_ns, 50);
        assert_eq!(t["swap"].count, 3);
        assert_eq!(t["swap"].total_ns, 30 + 20 + 30);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        let open = tr.open("x", 0, 0);
        tr.close(open);
        assert!(tr.spans().is_empty());
    }
}
