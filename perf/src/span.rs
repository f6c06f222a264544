//! The benchmark's own spans: one around every call it makes into a
//! layer. Each driver thread appends to its own vector; vectors are
//! merged after the threads join and written out only when the run ends.
//! Spans are stamped on the cluster's trace clock, so they line up with
//! the lifecycle events the program emits itself.

use std::collections::BTreeMap;
use std::time::Instant;

use ray_common::trace::{render_chrome_trace, Clock, TraceLog};

use crate::json;
use crate::stats;

/// Maps `Instant`s onto a cluster's trace clock (microseconds since the
/// clock's creation).
#[derive(Debug, Clone, Copy)]
pub struct SpanClock {
    anchor: Instant,
    anchor_trace_us: u64,
}

impl SpanClock {
    pub fn new(trace_clock: &Clock) -> SpanClock {
        SpanClock {
            anchor: Instant::now(),
            anchor_trace_us: trace_clock.now_micros(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Driver thread that recorded it.
    pub thread: u32,
    /// The benchmark op it belongs to; spans of one op share it.
    pub op: u64,
    /// Index, in the same thread's vector, of the span that was open when
    /// this one began.
    pub parent: Option<u32>,
    /// Nanoseconds since the span clock's anchor.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's spans. With no clock it records nothing and every call is
/// a branch on `None`: the untraced runs pay nothing for the call sites.
#[derive(Debug, Default)]
pub struct SpanLog {
    clock: Option<SpanClock>,
    thread: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl SpanLog {
    pub fn new(clock: Option<SpanClock>, thread: u32) -> SpanLog {
        SpanLog {
            clock,
            thread,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let Some(clock) = self.clock else {
            return Open(None);
        };
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            thread: self.thread,
            op,
            parent: self.open.last().copied(),
            start_ns: clock.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    #[inline]
    pub fn exit(&mut self, span: Open) {
        let (Some(idx), Some(clock)) = (span.0, self.clock) else {
            return;
        };
        self.spans[idx as usize].end_ns = clock.now_ns();
        // Spans nest, so the one closing is the innermost open one.
        debug_assert_eq!(self.open.last(), Some(&idx));
        self.open.pop();
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: count, median duration, and median self time (duration
/// minus the part its child spans cover).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    pub count: usize,
    pub p50_us: f64,
    pub self_p50_us: f64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    // Children's covered time per (thread, parent index).
    let mut covered: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry((s.thread, p)).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    // A span's index within its thread is its rank among that thread's
    // spans, which `spans` keeps in recording order.
    let mut next_index: BTreeMap<u32, u32> = BTreeMap::new();
    let mut by_name: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for s in spans {
        let idx = next_index.entry(s.thread).or_default();
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let child = covered.get(&(s.thread, *idx)).copied().unwrap_or(0);
        *idx += 1;
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(dur);
        entry.1.push(dur.saturating_sub(child));
    }
    by_name
        .into_iter()
        .map(|(name, (durs, selfs))| {
            let p50 = |v: &[u64]| stats::percentile(v, 0.5).unwrap_or(0) as f64 / 1e3;
            (
                name,
                SpanSummary {
                    count: durs.len(),
                    p50_us: p50(&durs),
                    self_p50_us: p50(&selfs),
                },
            )
        })
        .collect()
}

/// Process id the benchmark's spans are filed under in the Chrome trace;
/// the program's own events use the node number.
const DRIVER_PID: u32 = 1000;

/// The program's lifecycle events and the benchmark's spans as one Chrome
/// `trace_event` document.
pub fn render_chrome(log: &TraceLog, clock: SpanClock, spans: &[Span]) -> String {
    let program = render_chrome_trace(log);
    let mut out = program
        .strip_suffix("]}")
        .expect("render_chrome_trace ends its event array with `]}`")
        .to_string();
    let mut first = out.ends_with('[');
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        let args = json::Object::new()
            .int("op", s.op)
            .raw(
                "parent",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            )
            .finish();
        let ts = clock.anchor_trace_us as f64 + s.start_ns as f64 / 1e3;
        let dur = s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3;
        out.push_str(
            &json::Object::new()
                .str("name", s.name)
                .str("cat", "bench")
                .str("ph", "X")
                .num("ts", ts)
                .num("dur", dur)
                .int("pid", DRIVER_PID as u64)
                .int("tid", s.thread as u64)
                .raw("args", args)
                .finish(),
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ray_common::trace::{TraceEntity, TraceEvent, TraceEventKind};
    use ray_common::{NodeId, TaskId};

    fn span(name: &'static str, thread: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            thread,
            op: 1,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn a_log_without_a_clock_records_nothing() {
        let mut log = SpanLog::new(None, 0);
        let s = log.enter("x", 1);
        log.exit(s);
        assert!(log.into_spans().is_empty());
    }

    #[test]
    fn nested_spans_point_at_their_parent() {
        let mut log = SpanLog::new(Some(SpanClock::new(&Clock::wall())), 3);
        let outer = log.enter("outer", 7);
        let inner = log.enter("inner", 7);
        log.exit(inner);
        let sibling = log.enter("sibling", 7);
        log.exit(sibling);
        log.exit(outer);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.thread == 3 && s.op == 7 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("op", 0, None, 0, 10_000),
            span("submit", 0, Some(0), 1_000, 4_000),
            span("get", 0, Some(0), 5_000, 9_000),
            // Another thread reusing index 0 must not be charged.
            span("op", 1, None, 0, 6_000),
        ];
        let sum = summarize(&spans);
        assert_eq!(
            sum["submit"],
            SpanSummary {
                count: 1,
                p50_us: 3.0,
                self_p50_us: 3.0
            }
        );
        assert_eq!(sum["op"].count, 2);
        // Durations 10 and 6 us; self times 3 and 6 us; nearest-rank p50.
        assert_eq!(sum["op"].p50_us, 6.0);
        assert_eq!(sum["op"].self_p50_us, 3.0);
    }

    #[test]
    fn chrome_document_holds_program_events_and_spans() {
        let task = TraceEntity::Task(TaskId::NIL);
        let ev = |seq, ts, kind| TraceEvent {
            seq,
            ts_micros: ts,
            node: NodeId(0),
            kind,
            entity: task,
            detail: "inc".to_string(),
        };
        let log = TraceLog::from_events(vec![
            ev(0, 10, TraceEventKind::Running),
            ev(1, 20, TraceEventKind::Finished),
        ]);
        let clock = SpanClock::new(&Clock::wall());
        let doc = render_chrome(&log, clock, &[span("core.submit", 0, None, 1_000, 3_000)]);
        let spans_per_pid = xtask::json::trace_check(&doc, Some(1)).unwrap();
        assert_eq!(spans_per_pid[&0], 1);
        assert_eq!(spans_per_pid[&(DRIVER_PID as u64)], 1);
        // No program events at all still yields a valid document.
        let empty = render_chrome(&TraceLog::from_events(Vec::new()), clock, &[]);
        assert!(xtask::json::trace_check(&empty, None).unwrap().is_empty());
    }
}
