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
//! batches, and each batch goes to a [`Pool`] that a repair trial, an
//! [`evaluate_many`] call or a brute-force run builds once: `jobs - 1`
//! workers spawned into a `std::thread::scope`, plus the coordinating
//! thread, which runs queued items whenever it waits for a result.
//! Items are handed over one at a time through a [`Submission`], so the
//! workers start on a batch's first child while later ones are still
//! being drawn, and results come back **in submission order**. A GP
//! child passes through two submissions: the pool first builds,
//! fingerprints and classifies it, then simulates it if it needs a
//! simulation. Everything order-sensitive — cache inserts, budget
//! accounting, fault-injection ordinals, telemetry emission,
//! best/`found` tracking — happens on the coordinating thread between
//! and after the two phases, in submission order, so `jobs = 1` and
//! `jobs = 8` produce identical `RepairResult`s for the same seed.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Scope;
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

/// One entry of the pool's queue: an item of a submission.
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// The pool's queue, shared by its handle and its workers.
struct Queue<'env> {
    state: Mutex<QueueState<'env>>,
    /// Signalled when a job arrives for an idle worker, or the pool
    /// closes.
    work: Condvar,
}

struct QueueState<'env> {
    jobs: VecDeque<Job<'env>>,
    /// Workers waiting for a job: pushing wakes one only when some is.
    idle: usize,
    closed: bool,
}

/// A pool of `jobs` evaluation threads fed through a shared queue: the
/// thread that waits on a submission's result, and `jobs - 1` workers
/// spawned once into a `std::thread::scope`. Items run in submission
/// order, so one slow simulation never blocks the others. A thread
/// waiting for a result runs queued items itself until that result
/// arrives, so the pool never has more than `jobs` runnable threads and
/// the waiting thread's core does not idle. The workers exit when the
/// pool is dropped, and the scope joins them.
pub(crate) struct Pool<'env> {
    queue: Arc<Queue<'env>>,
}

impl<'env> Pool<'env> {
    /// A pool of `jobs` threads (at least one): spawns `jobs - 1`
    /// workers into `scope`.
    pub(crate) fn new<'scope>(scope: &'scope Scope<'scope, 'env>, jobs: usize) -> Pool<'env> {
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                idle: 0,
                closed: false,
            }),
            work: Condvar::new(),
        });
        for _ in 1..jobs.max(1) {
            let queue = Arc::clone(&queue);
            scope.spawn(move || {
                while let Some(job) = queue.take() {
                    job();
                }
            });
        }
        Pool { queue }
    }

    fn send(&self, job: Job<'env>) {
        let mut state = lock(&self.queue.state);
        state.jobs.push_back(job);
        if state.idle > 0 {
            self.queue.work.notify_one();
        }
    }

    /// Opens a submission whose items run `work`. Items run in
    /// submission order; an item whose turn comes after `deadline` is
    /// *skipped*: no work runs for it and its result is `None`.
    ///
    /// `work` must be total: every evaluating caller wraps its work in
    /// [`contained`](crate::repair::contained), so a panic here is a
    /// bug. It is re-raised on the thread that takes the item's result.
    pub(crate) fn submit<'p, T, R, F>(
        &'p self,
        deadline: Option<Instant>,
        work: F,
    ) -> Submission<'p, 'env, T, R>
    where
        T: Send + 'env,
        R: Send + 'env,
        F: Fn(T) -> R + Send + Sync + 'env,
    {
        Submission {
            pool: self,
            work: Arc::new(work),
            deadline,
            inbox: Arc::new(Inbox {
                state: Mutex::new(InboxState {
                    arrived: HashMap::new(),
                    awaited: None,
                    busy: Duration::ZERO,
                }),
                arrival: Condvar::new(),
            }),
            pushed: 0,
            taken: 0,
        }
    }

    /// Runs `work` on every item and returns the results in submission
    /// order, together with the summed worker busy time (for
    /// utilization accounting). When no deadline fires every slot is
    /// `Some`, whatever the worker count — the property the determinism
    /// suite pins down.
    pub(crate) fn run<T, R, F>(
        &self,
        items: Vec<T>,
        deadline: Option<Instant>,
        work: F,
    ) -> (Vec<Option<R>>, Duration)
    where
        T: Send + 'env,
        R: Send + 'env,
        F: Fn(T) -> R + Send + Sync + 'env,
    {
        let mut submission = self.submit(deadline, work);
        for item in items {
            submission.push(item);
        }
        let results = (0..submission.pending())
            .map(|_| submission.next())
            .collect();
        (results, submission.busy())
    }
}

impl Drop for Pool<'_> {
    fn drop(&mut self) {
        lock(&self.queue.state).closed = true;
        self.queue.work.notify_all();
    }
}

impl<'env> Queue<'env> {
    /// The next job, if one is queued.
    fn try_take(&self) -> Option<Job<'env>> {
        lock(&self.state).jobs.pop_front()
    }

    /// The next job, waiting for one; `None` once the pool is closed and
    /// its queue drained.
    fn take(&self) -> Option<Job<'env>> {
        let mut state = lock(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state.idle += 1;
            state = self.work.wait(state).expect("job queue poisoned");
            state.idle -= 1;
        }
    }
}

/// Locks a pool mutex. Jobs run outside every lock and catch their own
/// panics, so a poisoned lock means a bug in the pool itself.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("pool state poisoned")
}

/// What a pool thread reports for one item: its result and busy time,
/// `None` when the deadline skipped it, or the panic that escaped
/// `work`.
type Outcome<R> = std::thread::Result<Option<(R, Duration)>>;

/// Where a submission's results arrive.
struct Inbox<R> {
    state: Mutex<InboxState<R>>,
    /// Signalled when the awaited result arrives.
    arrival: Condvar,
}

struct InboxState<R> {
    /// Results not yet taken, by item index.
    arrived: HashMap<usize, std::thread::Result<Option<R>>>,
    /// The item the submitter is waiting for, if it is waiting.
    awaited: Option<usize>,
    busy: Duration,
}

/// Items handed to a [`Pool`] one at a time, so workers start on the
/// first while the caller is still producing the rest. Results are
/// taken back in submission order, as they arrive or by waiting.
pub(crate) struct Submission<'p, 'env, T, R> {
    pool: &'p Pool<'env>,
    work: Arc<dyn Fn(T) -> R + Send + Sync + 'env>,
    deadline: Option<Instant>,
    inbox: Arc<Inbox<R>>,
    pushed: usize,
    taken: usize,
}

impl<'env, T: Send + 'env, R: Send + 'env> Submission<'_, 'env, T, R> {
    /// Queues one more item.
    pub(crate) fn push(&mut self, item: T) {
        let i = self.pushed;
        self.pushed += 1;
        let work = Arc::clone(&self.work);
        let inbox = Arc::clone(&self.inbox);
        let deadline = self.deadline;
        self.pool.send(Box::new(move || {
            // Prompt cancellation: once the wall-clock budget is gone,
            // drain the queue without running anything.
            let outcome: Outcome<R> = if deadline.is_some_and(|d| Instant::now() >= d) {
                Ok(None)
            } else {
                let t0 = Instant::now();
                catch_unwind(AssertUnwindSafe(|| work(item))).map(|r| Some((r, t0.elapsed())))
            };
            let mut state = lock(&inbox.state);
            let result = outcome.map(|done| {
                done.map(|(r, took)| {
                    state.busy += took;
                    r
                })
            });
            state.arrived.insert(i, result);
            if state.awaited == Some(i) {
                inbox.arrival.notify_one();
            }
        }));
    }

    /// Items pushed whose results have not been taken.
    pub(crate) fn pending(&self) -> usize {
        self.pushed - self.taken
    }

    /// Whether the next result in submission order has arrived. Never
    /// waits.
    pub(crate) fn ready(&self) -> bool {
        lock(&self.inbox.state).arrived.contains_key(&self.taken)
    }

    /// The next result in submission order: `None` when the deadline
    /// skipped that item. Until it arrives, this thread runs queued
    /// items (of any submission), and once the queue is empty it waits
    /// for the workers.
    ///
    /// # Panics
    ///
    /// Panics when no item is pending, and re-raises a panic that
    /// escaped `work`.
    pub(crate) fn next(&mut self) -> Option<R> {
        assert!(self.pending() > 0, "no pending item");
        let i = self.taken;
        let result = loop {
            if let Some(result) = lock(&self.inbox.state).arrived.remove(&i) {
                break result;
            }
            let Some(job) = self.pool.queue.try_take() else {
                break self.wait(i);
            };
            job();
        };
        self.taken += 1;
        result.unwrap_or_else(|panic| resume_unwind(panic))
    }

    /// Waits for item `i`, which a worker is running: only this thread
    /// queues items, and the queue is empty.
    fn wait(&self, i: usize) -> std::thread::Result<Option<R>> {
        let mut state = lock(&self.inbox.state);
        loop {
            if let Some(result) = state.arrived.remove(&i) {
                state.awaited = None;
                return result;
            }
            state.awaited = Some(i);
            state = self.inbox.arrival.wait(state).expect("pool state poisoned");
        }
    }

    /// Summed worker busy time of the items finished so far.
    pub(crate) fn busy(&self) -> Duration {
        lock(&self.inbox.state).busy
    }
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
/// used by the fuzzer's scenario generator and the benchmarks; the GP
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
    if unique.is_empty() {
        return Vec::new();
    }
    let original = Original::new(&problem.source, &problem.design_modules);
    let workers = resolve_jobs(jobs).min(unique.len());
    let (mut results, _) = std::thread::scope(|scope| {
        Pool::new(scope, workers).run(unique, None, |p| {
            contained(problem, 1.0, || {
                evaluate_profiled(problem, p, params, &original, None)
            })
        })
    });
    // Each unique result is *moved* into its last output slot and cloned
    // into any earlier ones.
    let mut last_use: Vec<usize> = vec![0; results.len()];
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
            result.expect("a submission without a deadline settles every item")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{mpsc, Barrier};
    use std::thread::ThreadId;

    /// Runs `f` against a fresh pool of `jobs` workers.
    fn with_pool<T>(jobs: usize, f: impl FnOnce(&Pool<'_>) -> T) -> T {
        std::thread::scope(|scope| f(&Pool::new(scope, jobs)))
    }

    #[test]
    fn submissions_preserve_submission_order() {
        for jobs in [1, 3, 8] {
            with_pool(jobs, |pool| {
                for round in 0..3u64 {
                    let items: Vec<u64> = (0..100).collect();
                    let (out, _) = pool.run(items, None, move |x| x * 2 + round);
                    let got: Vec<u64> = out.into_iter().map(Option::unwrap).collect();
                    let want: Vec<u64> = (0..100).map(|x| x * 2 + round).collect();
                    assert_eq!(got, want, "jobs {jobs}, submission {round}");
                }
            });
        }
    }

    #[test]
    fn a_pool_runs_every_submission_on_the_same_jobs_threads() {
        for jobs in [1, 2, 4] {
            let threads: HashSet<ThreadId> = with_pool(jobs, |pool| {
                let mut seen = HashSet::new();
                for _ in 0..3 {
                    // The first `jobs` items wait for each other, so each
                    // of them runs on a thread of its own.
                    let barrier = Arc::new(Barrier::new(jobs));
                    let (out, _) = pool.run((0..50).collect::<Vec<usize>>(), None, move |i| {
                        if i < jobs {
                            barrier.wait();
                        }
                        std::thread::current().id()
                    });
                    let ids: Vec<ThreadId> = out.into_iter().map(Option::unwrap).collect();
                    let first: HashSet<&ThreadId> = ids[..jobs].iter().collect();
                    assert_eq!(first.len(), jobs, "jobs {jobs}");
                    seen.extend(ids);
                }
                seen
            });
            assert_eq!(
                threads.len(),
                jobs,
                "three submissions ran on {} threads at jobs {jobs}",
                threads.len()
            );
            if jobs == 1 {
                let caller = std::thread::current().id();
                assert_eq!(threads, HashSet::from([caller]), "one thread: the caller");
            }
        }
    }

    #[test]
    fn items_past_the_deadline_are_skipped_per_submission() {
        with_pool(4, |pool| {
            let expired = Instant::now();
            let (out, busy) = pool.run((0..64).collect::<Vec<u64>>(), Some(expired), |x| x);
            assert!(out.iter().all(Option::is_none), "all items skipped");
            assert_eq!(busy, Duration::ZERO);
            // The next submission, without a deadline, runs everything.
            let (out, _) = pool.run((0..64).collect::<Vec<u64>>(), None, |x| x);
            assert!(out.iter().all(Option::is_some));
        });
    }

    #[test]
    fn an_empty_submission_returns_at_once() {
        with_pool(4, |pool| {
            let (out, busy) = pool.run(Vec::<u64>::new(), None, |x| x);
            assert!(out.is_empty());
            assert_eq!(busy, Duration::ZERO);
        });
    }

    #[test]
    fn a_panic_escaping_work_reaches_the_caller() {
        // Run the pool on a helper thread: a coordinator left blocked on
        // a channel shows up as a timeout instead of a hung test.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = catch_unwind(|| {
                with_pool(2, |pool| {
                    pool.run((0..16).collect::<Vec<u32>>(), None, |x| {
                        if x == 5 {
                            panic!("work failed on item {x}");
                        }
                        x
                    })
                })
            });
            let _ = tx.send(outcome.map(|_| ()).map_err(crate::repair::panic_message));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the caller was left blocked on the pool");
        assert_eq!(outcome, Err("work failed on item 5".to_string()));
    }

    #[test]
    fn resolve_jobs_honours_explicit_requests() {
        assert_eq!(resolve_jobs(3), 3);
        assert_eq!(resolve_jobs(1), 1);
        assert!(resolve_jobs(0) >= 1);
    }
}
