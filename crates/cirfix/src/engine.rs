//! The parallel fitness-evaluation engine.
//!
//! Fitness evaluation — one full instrumented-testbench simulation per
//! candidate — is the dominant cost of Algorithm 1 (the paper budgets
//! 12 wall-clock hours per trial, §3.5). [`evaluate`](crate::evaluate)
//! is a pure function of `(&RepairProblem, &Patch, FitnessParams)`, so
//! a generation's children can be scored concurrently.
//!
//! The design keeps the search *bit-deterministic for any worker
//! count*: candidate generation stays serial on the coordinating thread
//! (every RNG draw is unchanged), children accumulate into fixed-size
//! batches, and [`run_batch`] fans each batch out over a
//! `std::thread::scope` worker pool, returning results **in submission
//! order**. Everything order-sensitive — cache inserts, budget
//! accounting, telemetry emission, best/`found` tracking — happens on
//! the coordinating thread during the in-order merge, so `jobs = 1` and
//! `jobs = 8` produce identical `RepairResult`s for the same seed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::fitness::FitnessParams;
use crate::oracle::RepairProblem;
use crate::patch::{Original, Patch};
use crate::repair::{contained, evaluate_profiled, Evaluation};

/// Resolves a requested worker count: `0` means "auto" — the
/// `CIRFIX_JOBS` environment variable when set, otherwise
/// [`std::thread::available_parallelism`].
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = std::env::var("CIRFIX_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Evaluates `items` on a pool of `jobs` scoped worker threads and
/// returns the results in submission order, together with the summed
/// worker busy time (for utilization accounting).
///
/// Workers pull items from a shared queue in submission order, so one
/// slow simulation never blocks the others. An item whose turn comes
/// after `deadline` is *skipped*: its slot stays `None` and no work
/// runs for it. When no deadline fires every slot is `Some`, whatever
/// the worker count — the property the determinism suite pins down.
///
/// `work` must be total: every evaluating caller wraps its work in
/// [`contained`](crate::repair::contained), so a panic here is a bug
/// and propagates to the caller.
pub(crate) fn run_batch<T, R, F>(
    jobs: usize,
    deadline: Option<Instant>,
    items: &[T],
    work: F,
) -> (Vec<Option<R>>, Duration)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return (Vec::new(), Duration::ZERO);
    }
    let workers = jobs.max(1).min(items.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let busy_total = Mutex::new(Duration::ZERO);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut busy = Duration::ZERO;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    // Prompt cancellation: once the wall-clock budget is
                    // gone, drain the queue without simulating anything.
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        continue;
                    }
                    let t0 = Instant::now();
                    let r = work(&items[i]);
                    busy += t0.elapsed();
                    *slots[i].lock().expect("worker slot poisoned") = Some(r);
                }
                *busy_total.lock().expect("busy counter poisoned") += busy;
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|m| m.into_inner().expect("worker slot poisoned"))
        .collect();
    (
        results,
        busy_total.into_inner().expect("busy counter poisoned"),
    )
}

/// Evaluates many patches concurrently — the parallel counterpart of
/// calling [`evaluate`](crate::evaluate) in a loop. Results come back
/// in submission order; no budget is involved.
///
/// Identical patches are simulated once: GA populations and repeated
/// sweeps carry many exact-duplicate candidates, and evaluation is a
/// pure function of (problem, patch, params), so duplicates within one
/// batch share a single simulation and receive clones of its result.
///
/// `jobs = 0` resolves via [`resolve_jobs`]. This is the bulk primitive
/// used by the brute-force baseline and the speedup benchmark; the GP
/// loop goes through its richer cache-and-budget-aware batch path.
pub fn evaluate_many(
    problem: &RepairProblem,
    patches: &[Patch],
    params: FitnessParams,
    jobs: usize,
) -> Vec<Evaluation> {
    // Dedup in first-occurrence order so results stay deterministic
    // regardless of worker scheduling.
    let mut seen: HashMap<&Patch, usize> = HashMap::with_capacity(patches.len());
    let mut unique: Vec<&Patch> = Vec::with_capacity(patches.len());
    let mut slot_of: Vec<usize> = Vec::with_capacity(patches.len());
    for p in patches {
        let slot = *seen.entry(p).or_insert_with(|| {
            unique.push(p);
            unique.len() - 1
        });
        slot_of.push(slot);
    }
    let original = Original::new(&problem.source, &problem.design_modules);
    let (mut results, _) = run_batch(resolve_jobs(jobs), None, &unique, |p| {
        contained(problem, 1.0, || {
            evaluate_profiled(problem, p, params, &original, None)
        })
    });
    // Each unique result is *moved* into its last output slot and cloned
    // into any earlier ones.
    let mut last_use: Vec<usize> = vec![0; unique.len()];
    for (i, &u) in slot_of.iter().enumerate() {
        last_use[u] = i;
    }
    slot_of
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            let result = if last_use[u] == i {
                results[u].take()
            } else {
                results[u].clone()
            };
            result.expect("a dispatch without a deadline settles every item")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_batch_preserves_submission_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 3, 8] {
            let (out, _) = run_batch(jobs, None, &items, |&x| x * 2);
            let got: Vec<u64> = out.into_iter().map(Option::unwrap).collect();
            assert_eq!(got, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn run_batch_skips_items_past_the_deadline() {
        let items: Vec<u64> = (0..64).collect();
        let deadline = Instant::now(); // already expired
        let (out, busy) = run_batch(4, Some(deadline), &items, |&x| x);
        assert!(out.iter().all(Option::is_none), "all items skipped");
        assert_eq!(busy, Duration::ZERO);
    }

    #[test]
    fn run_batch_handles_empty_input() {
        let (out, busy) = run_batch::<u64, u64, _>(4, None, &[], |&x| x);
        assert!(out.is_empty());
        assert_eq!(busy, Duration::ZERO);
    }

    #[test]
    fn resolve_jobs_honours_explicit_requests() {
        assert_eq!(resolve_jobs(3), 3);
        assert_eq!(resolve_jobs(1), 1);
        assert!(resolve_jobs(0) >= 1);
    }
}
