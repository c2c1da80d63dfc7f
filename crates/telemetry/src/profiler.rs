//! A hierarchical span profiler with per-phase busy attribution.
//!
//! The repair pipeline fans evaluations out over a worker pool, so a
//! single wall-clock timeline cannot say where time went: five workers
//! simulating for one second each is five seconds of *busy* simulate
//! time inside one second of wall time. The [`Profiler`] therefore
//! accumulates **exclusive busy nanoseconds** per [`Phase`] across all
//! threads: a [`PhaseGuard`] measures its own elapsed time, deducts the
//! time spent in nested guards (which attribute themselves to their own
//! phase), and adds the remainder to its phase's atomic total. Nesting
//! is tracked per thread, which matches how the worker pool runs one
//! evaluation per thread at a time.
//!
//! The profiler also keeps a log-bucketed latency histogram for whole
//! fitness evaluations: bucket `i` counts evaluations whose duration
//! `d` satisfies `2^i <= d < 2^(i+1)` nanoseconds. Log buckets keep the
//! histogram small (64 counters cover nanoseconds to centuries) while
//! still separating cache-warm microsecond evaluations from
//! pathological multi-second simulations.
//!
//! Everything is atomics; recording from worker threads never locks.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::event::{HistogramEvent, PhaseEvent};

/// The fixed pipeline phases the profiler attributes time to, in
/// pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Patch application and AST re-derivation.
    Parse,
    /// Design elaboration (module flattening, sensitivity wiring).
    Elaborate,
    /// Event-driven simulation of the instrumented testbench.
    Simulate,
    /// Fitness scoring against the oracle.
    Score,
    /// Persistent-store reads and write-throughs.
    Store,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 5] = [
        Phase::Parse,
        Phase::Elaborate,
        Phase::Simulate,
        Phase::Score,
        Phase::Store,
    ];

    /// The phase's stable name, as written to traces.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Elaborate => "elaborate",
            Phase::Simulate => "simulate",
            Phase::Score => "score",
            Phase::Store => "store",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::Elaborate => 1,
            Phase::Simulate => 2,
            Phase::Score => 3,
            Phase::Store => 4,
        }
    }
}

const PHASES: usize = Phase::ALL.len();
const HIST_BUCKETS: usize = 64;

thread_local! {
    // Nanoseconds consumed by completed child guards at each open
    // nesting level on this thread. Guards push a zero on entry; on
    // exit they deduct their own slot and add their full elapsed time
    // to the parent's slot.
    static CHILD_NANOS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Lock-free accumulator for per-phase busy time and eval latency.
#[derive(Debug)]
pub struct Profiler {
    counts: [AtomicU64; PHASES],
    nanos: [AtomicU64; PHASES],
    eval_total: AtomicU64,
    eval_buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            eval_total: AtomicU64::new(0),
            eval_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Starts a span attributed to `phase`; time is recorded when the
    /// returned guard drops. Guards nest: a parent's exclusive time
    /// excludes whatever its children recorded.
    pub fn span(&self, phase: Phase) -> PhaseGuard<'_> {
        CHILD_NANOS.with(|stack| stack.borrow_mut().push(0));
        PhaseGuard {
            profiler: self,
            phase,
            started: Instant::now(),
        }
    }

    /// Records `nanos` of already-measured exclusive time against
    /// `phase` (for callers that time externally, e.g. the simulator's
    /// own counters).
    pub fn record(&self, phase: Phase, nanos: u64) {
        let i = phase.index();
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.nanos[i].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records one whole-evaluation latency sample into the log
    /// histogram.
    pub fn record_eval(&self, nanos: u64) {
        self.eval_total.fetch_add(1, Ordering::Relaxed);
        let bucket = if nanos == 0 {
            0
        } else {
            63 - nanos.leading_zeros() as usize
        };
        self.eval_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Span count and exclusive busy nanoseconds for one phase.
    pub fn phase_totals(&self, phase: Phase) -> (u64, u64) {
        let i = phase.index();
        (
            self.counts[i].load(Ordering::Relaxed),
            self.nanos[i].load(Ordering::Relaxed),
        )
    }

    /// One [`PhaseEvent`] per phase that recorded at least one span, in
    /// pipeline order.
    pub fn phase_events(&self) -> Vec<PhaseEvent> {
        Phase::ALL
            .iter()
            .filter_map(|&phase| {
                let (count, nanos) = self.phase_totals(phase);
                (count > 0).then(|| PhaseEvent {
                    name: phase.as_str().to_string(),
                    count,
                    nanos,
                })
            })
            .collect()
    }

    /// The eval-latency histogram as an event, or `None` when no
    /// evaluation was recorded.
    pub fn eval_histogram(&self) -> Option<HistogramEvent> {
        let total = self.eval_total.load(Ordering::Relaxed);
        if total == 0 {
            return None;
        }
        let buckets = self
            .eval_buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then_some((i as u32, count))
            })
            .collect();
        Some(HistogramEvent {
            name: "eval_latency".to_string(),
            total,
            buckets,
        })
    }
}

/// An open span; attributes its exclusive elapsed time to a phase when
/// dropped.
pub struct PhaseGuard<'a> {
    profiler: &'a Profiler,
    phase: Phase,
    started: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed().as_nanos() as u64;
        let child = CHILD_NANOS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let child = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent += elapsed;
            }
            child
        });
        self.profiler
            .record(self.phase, elapsed.saturating_sub(child));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // Exclusive times partition the outer span, so the phases' totals
    // sum to at most the wall time around it; an undeducted inner span
    // counts twice and breaks that under any load.

    #[test]
    fn nested_spans_attribute_exclusive_time() {
        let p = Profiler::new();
        let wall = Instant::now();
        {
            let _outer = p.span(Phase::Parse);
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = p.span(Phase::Simulate);
                std::thread::sleep(Duration::from_millis(8));
            }
        }
        let wall = wall.elapsed().as_nanos() as u64;
        let (parse_count, parse_nanos) = p.phase_totals(Phase::Parse);
        let (sim_count, sim_nanos) = p.phase_totals(Phase::Simulate);
        assert_eq!(parse_count, 1);
        assert_eq!(sim_count, 1);
        // The inner 8 ms belongs to simulate, not parse.
        assert!(sim_nanos >= 7_000_000, "sim {sim_nanos}");
        assert!(
            parse_nanos + sim_nanos <= wall,
            "parse {parse_nanos} should exclude sim {sim_nanos} (wall {wall})"
        );
    }

    #[test]
    fn sibling_spans_credit_their_parent_once_each() {
        let p = Profiler::new();
        let wall = Instant::now();
        {
            let _outer = p.span(Phase::Score);
            for _ in 0..3 {
                let _inner = p.span(Phase::Store);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let wall = wall.elapsed().as_nanos() as u64;
        let (store_count, store_nanos) = p.phase_totals(Phase::Store);
        let (_, score_nanos) = p.phase_totals(Phase::Score);
        assert_eq!(store_count, 3);
        assert!(store_nanos >= 5_000_000, "store {store_nanos}");
        assert!(
            score_nanos + store_nanos <= wall,
            "score {score_nanos} should exclude store {store_nanos} (wall {wall})"
        );
    }

    #[test]
    fn histogram_buckets_by_log2_nanos() {
        let p = Profiler::new();
        p.record_eval(0); // bucket 0
        p.record_eval(1); // bucket 0
        p.record_eval(1024); // bucket 10
        p.record_eval(1500); // bucket 10
        p.record_eval(2048); // bucket 11
        let h = p.eval_histogram().expect("samples recorded");
        assert_eq!(h.total, 5);
        assert_eq!(h.buckets, vec![(0, 2), (10, 2), (11, 1)]);
    }

    #[test]
    fn empty_profiler_reports_nothing() {
        let p = Profiler::new();
        assert!(p.phase_events().is_empty());
        assert!(p.eval_histogram().is_none());
    }

    #[test]
    fn phase_events_follow_pipeline_order() {
        let p = Profiler::new();
        p.record(Phase::Store, 5);
        p.record(Phase::Parse, 7);
        let names: Vec<String> = p.phase_events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["parse", "store"]);
    }
}
