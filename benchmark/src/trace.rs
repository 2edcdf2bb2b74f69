//! Benchmark-side spans: recorded around the calls this benchmark makes
//! into each layer (never inside the program), kept in memory and written
//! out when the run ends.
//!
//! A span carries its name, start, end, the span that caused it and the
//! workload-iteration id. Timestamps come from `txsim_pmu::now_tsc` — the
//! clock the program's own `obs` spans use — so both kinds line up on one
//! time axis in the exported Chrome trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::valid_name;

/// One completed benchmark-side span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the tracer's span list) of the enclosing span.
    pub parent: Option<usize>,
    /// Workload iteration (round) the span belongs to.
    pub iter: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded span recorder. Each thread that records owns one; the
/// per-thread lists are exported side by side.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    /// Turn recording on or off (traced runs alternate traced and untraced
    /// rounds to measure the tracing overhead in place).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    /// Open a span called `name`; pass the result to [`Tracer::end`]. With
    /// tracing off no timestamp is read and nothing is stored.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        debug_assert!(valid_name(name), "span name {name:?}");
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: txsim_pmu::now_tsc(),
            end_ns: 0,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(index);
        Some(index)
    }

    /// Close the span [`Tracer::begin`] opened (innermost first).
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            debug_assert_eq!(
                self.open.last(),
                Some(&index),
                "spans close innermost first"
            );
            self.open.pop();
            self.spans[index].end_ns = txsim_pmu::now_tsc();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children never overlap on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            out[parent] = out[parent].saturating_sub(span.dur_ns());
        }
    }
    out
}

/// Count, total and self time of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, NameAgg> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameAgg> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let agg = out.entry(span.name).or_default();
        agg.count += 1;
        agg.total_ns += span.dur_ns();
        agg.self_ns += self_ns;
    }
    out
}

fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Chrome `trace_event` JSON: the benchmark-side spans of each thread
/// (`pid` 1, one `tid` per entry of `threads`) followed by the program's
/// own `obs` spans (`pid` 2), on the same time axis.
pub fn export_chrome(threads: &[(&str, &[Span])], program: &[obs::ThreadTrace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    write!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"benchmark\"}}}},\
         {{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{{\"name\":\"program (obs spans)\"}}}}"
    )
    .expect("string write");
    for (tid, (thread_name, spans)) in threads.iter().enumerate() {
        let mut name = String::new();
        crate::json::escape_into(&mut name, thread_name);
        write!(
            out,
            ",{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{name}}}}}"
        )
        .expect("string write");
        for (index, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                ",{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"benchmark\",\
                 \"ts\":{},\"dur\":{},\"args\":{{\"id\":{index},\"parent\":{parent},\"iter\":{}}}}}",
                span.name,
                micros(span.start_ns),
                micros(span.dur_ns()),
                span.iter,
            )
            .expect("string write");
        }
    }
    for trace in program {
        for ev in &trace.events {
            write!(
                out,
                ",{{\"ph\":\"X\",\"pid\":2,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"dur\":{}}}",
                trace.tid,
                ev.label,
                ev.subsystem.label(),
                micros(ev.begin_ns),
                micros(ev.end_ns.saturating_sub(ev.begin_ns)),
            )
            .expect("string write");
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // round [0,100] > run [10,60] > verify [20,30]; round > save [70,90]
        let spans = [
            span("round", 0, 100, None),
            span("run", 10, 60, Some(0)),
            span("verify", 20, 30, Some(1)),
            span("save", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let agg = aggregate(&spans);
        assert_eq!(
            agg["round"],
            NameAgg {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        // Self times partition the root's duration.
        assert_eq!(agg.values().map(|a| a.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn scopes_nest_and_record_parents_and_iterations() {
        let mut t = Tracer::new(true);
        t.set_iter(3);
        let outer = t.begin("outer");
        for _ in 0..2 {
            let inner = t.begin("inner");
            t.end(inner);
        }
        t.end(outer);
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.iter))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 3),
                ("inner", Some(0), 3),
                ("inner", Some(0), 3)
            ]
        );
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let span = t.begin("x");
        assert_eq!(span, None);
        t.end(span);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let spans = [
            span("round", 1_000, 5_500, None),
            span("run", 2_000, 3_000, Some(0)),
        ];
        let text = export_chrome(&[("main \"thread\"", &spans)], &[]);
        let parsed = Json::parse(&text).expect("valid JSON");
        let events = parsed.get("traceEvents").expect("traceEvents").as_arr();
        // 2 process names + 1 thread name + 2 spans
        assert_eq!(events.len(), 5);
        let run = &events[4];
        assert_eq!(run.get("name").and_then(Json::as_str), Some("run"));
        assert_eq!(run.get("ts").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            run.get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
