//! One benchmark run: rounds of fixed work repeated for `--seconds`,
//! everything they measured, and the checks they made.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats;
use crate::trace::{Span, Tracer};

/// Named series of measurements, one value per call or per round.
#[derive(Debug, Default, Clone)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, key: &str, value: f64) {
        match self.0.get_mut(key) {
            Some(series) => series.push(value),
            None => {
                self.0.insert(key.to_string(), vec![value]);
            }
        }
    }

    pub fn get(&self, key: &str) -> &[f64] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, key: &str) -> f64 {
        stats::median(self.get(key))
    }

    pub fn merge(&mut self, other: Samples) {
        for (key, mut values) in other.0 {
            self.0.entry(key).or_default().append(&mut values);
        }
    }
}

/// Operations attempted and failed. A run whose checksum differs, a
/// non-200 scrape, a load error and a round-trip mismatch each count as one
/// failed operation.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, what: &str, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{what}: {}", why()));
            }
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(20);
    }
}

/// Totals of the program's own `obs` spans, by `subsystem.label`.
#[derive(Debug, Default, Clone)]
pub struct ObsSpans {
    /// (count, total ns) per span name.
    pub by_name: BTreeMap<String, (u64, u64)>,
    /// Events lost to ring wraparound (totals above undercount by these).
    pub dropped: u64,
    /// Raw events of the most recent traced round, capped, for the trace file.
    pub recent: Vec<obs::ThreadTrace>,
    recent_events: usize,
}

/// How many program-side span events the trace file keeps.
const RECENT_EVENT_CAP: usize = 20_000;

impl ObsSpans {
    fn absorb(&mut self, traces: Vec<obs::ThreadTrace>) {
        for agg in obs::aggregate_spans(&traces) {
            let entry = self
                .by_name
                .entry(format!("{}.{}", agg.subsystem.label(), agg.label))
                .or_default();
            entry.0 += agg.count;
            entry.1 += agg.total_ns;
        }
        for mut trace in traces {
            self.dropped += trace.dropped;
            let room = RECENT_EVENT_CAP.saturating_sub(self.recent_events);
            trace.events.truncate(room);
            if !trace.events.is_empty() {
                self.recent_events += trace.events.len();
                self.recent.push(trace);
            }
        }
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e6)
    }
}

/// Everything a run records. One per thread that measures; threads' records
/// are merged when they join.
pub struct Recorder {
    pub tracer: Tracer,
    /// Measurements of untraced rounds (the end-to-end metrics' source).
    pub plain: Samples,
    /// Measurements of traced rounds (the per-layer metrics' source).
    pub traced: Samples,
    pub checks: Checks,
    pub obs_spans: ObsSpans,
    /// `obs` counter totals over the traced rounds.
    pub obs_counters: BTreeMap<&'static str, u64>,
    pub traced_rounds: u32,
    pub plain_rounds: u32,
    /// Spans recorded by other threads, by thread name.
    pub other_threads: Vec<(String, Vec<Span>)>,
    tracing_now: bool,
    counters_at_round_start: Option<obs::Snapshot>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            tracer: Tracer::new(false),
            plain: Samples::default(),
            traced: Samples::default(),
            checks: Checks::default(),
            obs_spans: ObsSpans::default(),
            obs_counters: BTreeMap::new(),
            traced_rounds: 0,
            plain_rounds: 0,
            other_threads: Vec::new(),
            tracing_now: false,
            counters_at_round_start: None,
        }
    }

    /// A recorder for a helper thread of the current round.
    pub fn for_thread(&self, iter: u32) -> Recorder {
        let mut rec = Recorder::new();
        rec.tracing_now = self.tracing_now;
        rec.tracer.set_enabled(self.tracing_now);
        rec.tracer.set_iter(iter);
        rec
    }

    /// The sample set of the current round.
    pub fn samples(&mut self) -> &mut Samples {
        if self.tracing_now {
            &mut self.traced
        } else {
            &mut self.plain
        }
    }

    pub fn push(&mut self, key: &str, value: f64) {
        self.samples().push(key, value);
    }

    pub fn check(&mut self, what: &str, ok: bool, why: impl FnOnce() -> String) {
        self.checks.record(what, ok, why);
    }

    pub fn check_result(&mut self, what: &str, result: Result<(), String>) {
        let ok = result.is_ok();
        self.checks.record(what, ok, || result.unwrap_err());
    }

    /// Run `f` inside a benchmark-side span (a plain call when untraced).
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let span = self.tracer.begin(name);
        let value = f(self);
        self.tracer.end(span);
        value
    }

    /// Time one call: seconds land in the current sample set under `key`
    /// and, in traced rounds, in a span of the same name.
    pub fn timed<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.tracer.begin(key);
        let started = Instant::now();
        let value = std::hint::black_box(f());
        let secs = started.elapsed().as_secs_f64();
        self.tracer.end(span);
        self.push(key, secs);
        value
    }

    /// Start a round. A traced round switches on the program's `obs`
    /// counters and spans and this benchmark's own spans; an untraced one
    /// leaves all three off.
    pub fn begin_round(&mut self, iter: u32, traced: bool) {
        self.tracing_now = traced;
        self.tracer.set_enabled(traced);
        self.tracer.set_iter(iter);
        obs::set_enabled(traced);
        obs::set_tracing(traced);
        if traced {
            self.obs_spans.recent.clear();
            self.obs_spans.recent_events = 0;
            self.counters_at_round_start = Some(obs::registry().snapshot());
        }
    }

    /// Collect the program's spans flushed so far (worker threads flush on
    /// exit). Called after each simulated run so memory stays bounded.
    pub fn drain_obs_spans(&mut self) {
        if self.tracing_now {
            self.obs_spans.absorb(obs::take_traces());
        }
    }

    pub fn end_round(&mut self) {
        if self.tracing_now {
            self.drain_obs_spans();
            let end = obs::registry().snapshot();
            if let Some(start) = self.counters_at_round_start.take() {
                for &counter in obs::Counter::ALL {
                    *self.obs_counters.entry(counter.name()).or_default() +=
                        end.get(counter).saturating_sub(start.get(counter));
                }
            }
            self.traced_rounds += 1;
        } else {
            self.plain_rounds += 1;
        }
        obs::set_enabled(false);
        obs::set_tracing(false);
        self.tracing_now = false;
        self.tracer.set_enabled(false);
    }

    /// Fold a helper thread's record into this one.
    pub fn merge_thread(&mut self, name: &str, other: Recorder) {
        self.plain.merge(other.plain);
        self.traced.merge(other.traced);
        self.checks.merge(other.checks);
        for (key, (count, ns)) in other.obs_spans.by_name {
            let entry = self.obs_spans.by_name.entry(key).or_default();
            entry.0 += count;
            entry.1 += ns;
        }
        self.obs_spans.dropped += other.obs_spans.dropped;
        self.obs_spans.recent.extend(other.obs_spans.recent);
        if !other.tracer.spans().is_empty() {
            match self.other_threads.iter_mut().find(|(n, _)| n == name) {
                Some((_, spans)) => {
                    // Parent indices are positions in the thread's own list.
                    let base = spans.len();
                    spans.extend(other.tracer.spans().iter().cloned().map(|mut s| {
                        s.parent = s.parent.map(|p| p + base);
                        s
                    }));
                }
                None => self
                    .other_threads
                    .push((name.to_string(), other.tracer.spans().to_vec())),
            }
        }
    }

    /// The benchmark-side spans of every thread that recorded, by thread
    /// name (`main` first).
    pub fn thread_spans(&self) -> Vec<(&str, &[Span])> {
        std::iter::once(("main", self.tracer.spans()))
            .chain(
                self.other_threads
                    .iter()
                    .map(|(n, s)| (n.as_str(), s.as_slice())),
            )
            .collect()
    }

    /// An `obs` counter's average per traced round.
    pub fn counter_per_round(&self, name: &str) -> f64 {
        let total = self.obs_counters.get(name).copied().unwrap_or(0);
        total as f64 / self.traced_rounds.max(1) as f64
    }

    /// An `obs` span's total milliseconds per traced round.
    pub fn obs_span_ms_per_round(&self, name: &str) -> f64 {
        self.obs_spans.total_ms(name) / self.traced_rounds.max(1) as f64
    }
}

/// A workload: `round` does one set-up plus one fixed unit of work and
/// records what it measured. It pushes `setup_s`; the engine pushes
/// `wall_s`.
pub trait Workload {
    fn round(&mut self, rec: &mut Recorder, iter: u32);
}

/// Repeat rounds until `seconds` have passed (and at least `min_rounds`
/// ran). In a traced run odd rounds are traced and even rounds are not, so
/// the tracing overhead is measured against untraced rounds of the same
/// process.
pub fn run_rounds(workload: &mut dyn Workload, rec: &mut Recorder, seconds: f64, trace: bool) {
    let min_rounds = if trace { 4 } else { 3 };
    let started = Instant::now();
    let mut iter = 0u32;
    loop {
        rec.begin_round(iter, trace && iter % 2 == 1);
        let round_started = Instant::now();
        rec.scope("round", |rec| workload.round(rec, iter));
        let wall = round_started.elapsed().as_secs_f64();
        rec.push("wall_s", wall);
        rec.end_round();
        iter += 1;
        if iter >= min_rounds && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Keep every host CPU busy for `duration`.
///
/// On the 2-vCPU reference VM the latency of waking a thread on the other
/// vCPU has two regimes — about 5 us after the VM has been idle for a few
/// seconds, about 20 us once both vCPUs have been busy together for a
/// second — and the regime persists across back-to-back runs. It moves
/// every 2-thread number by 3-4x (`sched.handoff_ns` shows which regime a
/// run saw). A run therefore starts by loading both CPUs, which puts the
/// host in the loaded regime whatever ran before.
pub fn load_host(duration: std::time::Duration) {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let deadline = Instant::now() + duration;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut spins = 0u64;
                while Instant::now() < deadline {
                    spins = std::hint::black_box(spins + 1);
                }
            });
        }
    });
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_rounds` switches the process-wide `obs` flags; tests that call
    /// it take turns.
    static OBS_FLAGS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    struct Counting(u32);
    impl Workload for Counting {
        fn round(&mut self, rec: &mut Recorder, _iter: u32) {
            self.0 += 1;
            rec.push("setup_s", 0.001);
            rec.timed("op", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        }
    }

    #[test]
    fn untraced_runs_do_a_minimum_of_rounds_and_no_spans() {
        let _turn = OBS_FLAGS.lock().unwrap_or_else(|e| e.into_inner());
        let mut rec = Recorder::new();
        let mut w = Counting(0);
        run_rounds(&mut w, &mut rec, 0.0, false);
        assert_eq!(w.0, 3);
        assert_eq!(rec.plain.get("wall_s").len(), 3);
        assert!(rec.traced.get("wall_s").is_empty());
        assert!(rec.tracer.spans().is_empty());
        assert!(!obs::enabled() && !obs::tracing());
    }

    #[test]
    fn traced_runs_alternate_traced_and_untraced_rounds() {
        let _turn = OBS_FLAGS.lock().unwrap_or_else(|e| e.into_inner());
        let mut rec = Recorder::new();
        let mut w = Counting(0);
        run_rounds(&mut w, &mut rec, 0.0, true);
        assert_eq!((rec.plain_rounds, rec.traced_rounds), (2, 2));
        assert_eq!(rec.plain.get("op").len(), 2);
        assert_eq!(rec.traced.get("op").len(), 2);
        let names: Vec<_> = rec
            .tracer
            .spans()
            .iter()
            .map(|s| (s.name, s.iter))
            .collect();
        assert_eq!(
            names,
            vec![("round", 1), ("op", 1), ("round", 3), ("op", 3)]
        );
    }

    #[test]
    fn failed_checks_are_counted_and_described() {
        let mut checks = Checks::default();
        checks.record("a", true, || unreachable!());
        checks.record("b", false, || "went wrong".into());
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert_eq!(checks.failures, vec!["b: went wrong"]);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 1.0);
    }
}
