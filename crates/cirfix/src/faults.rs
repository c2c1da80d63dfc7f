//! Deterministic fault injection for chaos testing the evaluation
//! pipeline.
//!
//! A [`FaultPlan`] schedules faults against *evaluation ordinals*: "the
//! nth candidate built on the worker pool panics / hangs / fails when
//! it is simulated". The coordinating thread claims each ordinal as it
//! sends the candidate to the pool, in submission order, so a plan hits
//! the same candidates regardless of the worker count — the same
//! property that makes the search itself bit-deterministic makes the
//! chaos runs reproducible. A fault at the ordinal of a candidate that
//! is never simulated (a store hit, a bloat reject) does nothing, and
//! one on a candidate the evaluation budget cuts from its batch is
//! contained but never counted: that candidate is simulated and then
//! dropped unmerged.
//!
//! Store-write faults are counted separately (per write attempt) and can
//! be *transient* (fail once, succeed on retry — exercising the backoff
//! path) or persistent (every retry fails — exercising degradation to a
//! memory-only cache).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What to do to a scheduled evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the evaluation worker.
    Panic,
    /// Busy-wait until the candidate's wall-clock budget cancels it.
    Hang,
    /// Return a synthetic simulator runtime error.
    SimError,
}

/// A deterministic schedule of faults, keyed by evaluation ordinal
/// (0-based: the nth candidate built on the worker pool) and
/// store-write ordinal (0-based: the nth write attempt).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Evaluation ordinals whose simulation panics on its pool thread.
    pub panic_at: BTreeSet<u64>,
    /// Evaluation ordinals whose simulation spins until the
    /// per-candidate budget cancels it.
    pub hang_at: BTreeSet<u64>,
    /// Evaluation ordinals whose simulation fails with a synthetic
    /// simulator error.
    pub sim_error_at: BTreeSet<u64>,
    /// Store-write ordinals that fail with an I/O error.
    pub store_fail_at: BTreeSet<u64>,
    /// When `true`, an injected store failure clears on the first
    /// retry; when `false`, every retry of that write fails too.
    pub store_transient: bool,
}

impl FaultPlan {
    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.panic_at.is_empty()
            && self.hang_at.is_empty()
            && self.sim_error_at.is_empty()
            && self.store_fail_at.is_empty()
    }

    /// Parses a compact spec such as
    /// `"panic@5,hang@7,simerr@9,storefail@2,transient"`. Entries are
    /// comma-separated; `kind@n` schedules a fault at ordinal `n`, and
    /// the bare word `transient` makes store failures clear on retry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            if entry == "transient" {
                plan.store_transient = true;
                continue;
            }
            let (kind, at) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault entry `{entry}` is not `kind@n` or `transient`"))?;
            let n: u64 = at
                .parse()
                .map_err(|_| format!("fault ordinal `{at}` in `{entry}` is not a number"))?;
            match kind {
                "panic" => plan.panic_at.insert(n),
                "hang" => plan.hang_at.insert(n),
                "simerr" => plan.sim_error_at.insert(n),
                "storefail" => plan.store_fail_at.insert(n),
                other => return Err(format!("unknown fault kind `{other}` in `{entry}`")),
            };
        }
        Ok(plan)
    }
}

struct InjectorInner {
    plan: FaultPlan,
    evals: AtomicU64,
    store_writes: AtomicU64,
}

/// A shared handle that hands out faults from a [`FaultPlan`] as the
/// run progresses. Cloning shares the ordinal counters, so one injector
/// spans an entire repair session.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<InjectorInner>,
}

impl FaultInjector {
    /// Wraps a plan in a fresh injector with both counters at zero.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            inner: Arc::new(InjectorInner {
                plan,
                evals: AtomicU64::new(0),
                store_writes: AtomicU64::new(0),
            }),
        }
    }

    /// Claims the next evaluation ordinal and returns the fault (if
    /// any) scheduled for it. Called on the coordinating thread as each
    /// candidate goes to the pool, so ordinals are independent of
    /// worker timing.
    pub fn next_eval_fault(&self) -> Option<FaultKind> {
        let n = self.inner.evals.fetch_add(1, Ordering::Relaxed);
        let p = &self.inner.plan;
        if p.panic_at.contains(&n) {
            Some(FaultKind::Panic)
        } else if p.hang_at.contains(&n) {
            Some(FaultKind::Hang)
        } else if p.sim_error_at.contains(&n) {
            Some(FaultKind::SimError)
        } else {
            None
        }
    }

    /// Claims the next store-write ordinal; `true` means this write
    /// attempt must fail. With a transient plan only the first attempt
    /// of a scheduled write fails; retries (which do not claim a new
    /// ordinal) are reported healthy via [`retry_should_fail`].
    ///
    /// [`retry_should_fail`]: FaultInjector::retry_should_fail
    pub fn next_store_write_fails(&self) -> bool {
        let n = self.inner.store_writes.fetch_add(1, Ordering::Relaxed);
        self.inner.plan.store_fail_at.contains(&n)
    }

    /// Whether a *retry* of an already-failed write should fail again.
    pub fn retry_should_fail(&self) -> bool {
        !self.inner.plan.store_transient
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.inner.plan
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.inner.plan)
            .field("evals", &self.inner.evals.load(Ordering::Relaxed))
            .field(
                "store_writes",
                &self.inner.store_writes.load(Ordering::Relaxed),
            )
            .finish()
    }
}

/// Injector equality is handle identity: two clones of the same
/// injector are equal, two separately-built injectors are not. This
/// mirrors [`Observer`](cirfix_telemetry::Observer) and keeps
/// `RepairConfig: PartialEq` meaningful.
impl PartialEq for FaultInjector {
    fn eq(&self, other: &FaultInjector) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_round_trips_each_kind() {
        let plan = FaultPlan::parse("panic@5, hang@7,simerr@9,storefail@2,transient").unwrap();
        assert_eq!(plan.panic_at, BTreeSet::from([5]));
        assert_eq!(plan.hang_at, BTreeSet::from([7]));
        assert_eq!(plan.sim_error_at, BTreeSet::from([9]));
        assert_eq!(plan.store_fail_at, BTreeSet::from([2]));
        assert!(plan.store_transient);
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("panic@x").is_err());
        assert!(FaultPlan::parse("explode@1").is_err());
        assert!(FaultPlan::parse("panic").is_err());
    }

    #[test]
    fn ordinals_advance_and_faults_fire_once() {
        let plan = FaultPlan::parse("panic@1,simerr@2").unwrap();
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.next_eval_fault(), None);
        assert_eq!(inj.next_eval_fault(), Some(FaultKind::Panic));
        assert_eq!(inj.next_eval_fault(), Some(FaultKind::SimError));
        assert_eq!(inj.next_eval_fault(), None);
    }

    #[test]
    fn clones_share_counters_and_compare_equal() {
        let inj = FaultInjector::new(FaultPlan::parse("panic@1").unwrap());
        let other = inj.clone();
        assert_eq!(inj, other);
        assert_eq!(other.next_eval_fault(), None);
        assert_eq!(inj.next_eval_fault(), Some(FaultKind::Panic));
        let separate = FaultInjector::new(FaultPlan::parse("panic@1").unwrap());
        assert_ne!(inj, separate);
    }

    #[test]
    fn store_write_faults_respect_transience() {
        let inj = FaultInjector::new(FaultPlan::parse("storefail@0,transient").unwrap());
        assert!(inj.next_store_write_fails());
        assert!(!inj.retry_should_fail());
        assert!(!inj.next_store_write_fails());
        let hard = FaultInjector::new(FaultPlan::parse("storefail@0").unwrap());
        assert!(hard.next_store_write_fails());
        assert!(hard.retry_should_fail());
    }
}
