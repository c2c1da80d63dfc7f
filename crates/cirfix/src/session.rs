//! Resumable repair sessions over a persistent store.
//!
//! A *session* is one [`repair_session`] invocation: up to `trials`
//! seeded GP trials over one scenario, identified by the
//! [`crate::persist::session_digest`] of everything that shapes the
//! search trajectory. The session writes three kinds of durable state
//! into a [`Store`]:
//!
//! * **evaluations** — every simulated (or bloat-rejected)
//!   variant, keyed by its content fingerprint, shared across trials,
//!   sessions, and hosts, in the scenario's own partition of the store;
//! * **a session log** — a checkpoint at every generation boundary
//!   (RNG state, counters, population, best-so-far) interleaved with
//!   cache-delta records naming the trial-cache entries, so a killed
//!   run resumes *bit-identically* from the last boundary;
//! * **a corpus** — every plausible repair found, with its scenario,
//!   seed, patch, and repaired source.
//!
//! Damaged records (torn tails, checksum mismatches) are detected,
//! reported through telemetry, and skipped — a corrupted store degrades
//! into extra simulations, never into a wrong cached fitness or a
//! crash.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::time::Duration;

use cirfix_store::{field, field_str, field_u64, Digest, EvalWriter, SegmentWriter, Store};
use cirfix_telemetry::{Event, JsonValue, StoreEvent};

use crate::faults::FaultInjector;
use crate::oracle::RepairProblem;
use crate::patch::Patch;
use crate::persist::{
    evaluation_from_json, evaluation_to_json, patch_from_json, patch_to_json, problem_digest,
    session_digest, totals_from_json, totals_to_json,
};
use crate::repair::{Evaluation, RepairConfig, RepairResult, RepairStatus, Repairer, RunTotals};

// ---------------------------------------------------------------------------
// Errors

/// Why a session could not run or resume.
#[derive(Debug)]
pub enum SessionError {
    /// The store could not be read or written.
    Io(io::Error),
    /// The session log (or the evaluations it references) is too
    /// damaged to resume from. Re-running without `--resume` starts the
    /// session over, still reusing every intact cached evaluation.
    Corrupt(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "store I/O error: {e}"),
            SessionError::Corrupt(msg) => write!(f, "session log unusable: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<io::Error> for SessionError {
    fn from(e: io::Error) -> SessionError {
        SessionError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Shared evaluation cache (L2)

/// How many write attempts (1 initial + retries) a store write gets
/// before the cache degrades to memory-only.
const STORE_WRITE_ATTEMPTS: u32 = 4;

/// Backoff before each retry of a failed store write.
const STORE_WRITE_BACKOFF: [Duration; 3] = [
    Duration::from_millis(1),
    Duration::from_millis(4),
    Duration::from_millis(16),
];

struct CacheInner {
    mem: std::sync::Mutex<HashMap<u128, Evaluation>>,
    writer: Option<std::sync::Mutex<EvalWriter>>,
    // Set once the disk backing has failed past its retry budget: the
    // cache keeps serving (and absorbing) evaluations from memory, but
    // stops attempting writes.
    degraded: std::sync::atomic::AtomicBool,
    // One-shot flag for the caller to notice (and report) the
    // degradation exactly once.
    degraded_unreported: std::sync::atomic::AtomicBool,
    // Chaos-testing hook: scheduled store-write failures.
    faults: std::sync::Mutex<Option<FaultInjector>>,
}

/// A fingerprint-keyed evaluation cache shared across trials — and,
/// when opened over a [`Store`], across processes: lookups answer from
/// memory, inserts write through to an append-only on-disk segment.
///
/// Cloning is cheap (an `Arc`); all clones share one cache.
#[derive(Clone)]
pub struct SharedEvalCache {
    inner: std::sync::Arc<CacheInner>,
}

impl SharedEvalCache {
    /// An in-memory cache with no disk backing (cross-trial reuse
    /// within one process).
    pub fn memory() -> SharedEvalCache {
        SharedEvalCache {
            inner: std::sync::Arc::new(CacheInner {
                mem: std::sync::Mutex::new(HashMap::new()),
                writer: None,
                degraded: std::sync::atomic::AtomicBool::new(false),
                degraded_unreported: std::sync::atomic::AtomicBool::new(false),
                faults: std::sync::Mutex::new(None),
            }),
        }
    }

    /// Opens scenario `scenario`'s persistent cache in `store`, loading
    /// every intact evaluation record of its partition and of the
    /// legacy segments (see [`Store::load_evals`]); records of other
    /// scenarios can never hit, so they are not read. Returns the cache
    /// and the number of damaged or undecodable records that were
    /// skipped.
    pub fn open(store: &Store, scenario: Digest) -> io::Result<(SharedEvalCache, u64)> {
        let (entries, health) = store.load_evals(scenario)?;
        let mut damaged = (health.corrupt + health.torn) as u64;
        let mut mem = HashMap::new();
        for (key, body) in entries {
            match field(&body, "eval").map(evaluation_from_json) {
                Some(Ok(eval)) => {
                    // Evaluations are deterministic in their key, so
                    // duplicate records (e.g. two writer processes) are
                    // interchangeable; first record wins.
                    mem.entry(key.0).or_insert(eval);
                }
                _ => damaged += 1,
            }
        }
        Ok((
            SharedEvalCache {
                inner: std::sync::Arc::new(CacheInner {
                    mem: std::sync::Mutex::new(mem),
                    writer: Some(std::sync::Mutex::new(store.eval_writer(scenario))),
                    degraded: std::sync::atomic::AtomicBool::new(false),
                    degraded_unreported: std::sync::atomic::AtomicBool::new(false),
                    faults: std::sync::Mutex::new(None),
                }),
            },
            damaged,
        ))
    }

    /// Forces every evaluation written so far to stable storage (a
    /// no-op for a memory-only cache or before the first write). A
    /// session calls this before it syncs a checkpoint, whose cache
    /// deltas name those evaluations.
    pub fn sync(&self) -> io::Result<()> {
        match &self.inner.writer {
            Some(writer) => writer.lock().expect("cache poisoned").sync(),
            None => Ok(()),
        }
    }

    /// Installs a chaos-testing fault injector whose scheduled
    /// store-write failures this cache will honour. Shared by every
    /// clone.
    pub fn set_faults(&self, faults: Option<FaultInjector>) {
        *self.inner.faults.lock().expect("cache poisoned") = faults;
    }

    /// `true` once the disk backing has failed past its retry budget
    /// and the cache is running memory-only.
    pub fn is_degraded(&self) -> bool {
        self.inner
            .degraded
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// One-shot: `true` the first time it is called after the cache
    /// degraded, so the caller can report the degradation exactly once.
    pub fn take_degraded_event(&self) -> bool {
        self.inner
            .degraded_unreported
            .swap(false, std::sync::atomic::Ordering::Relaxed)
    }

    /// Looks up an evaluation by fingerprint.
    pub fn peek(&self, key: Digest) -> Option<Evaluation> {
        self.inner
            .mem
            .lock()
            .expect("cache poisoned")
            .get(&key.0)
            .cloned()
    }

    /// Number of cached evaluations.
    pub fn len(&self) -> usize {
        self.inner.mem.lock().expect("cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an evaluation, writing it through to disk when the
    /// cache is store-backed. Returns `true` only when a record was
    /// persisted (a new key on a disk-backed cache); repeat inserts
    /// and memory-only caches return `false`.
    ///
    /// Transient I/O failures are retried with a bounded backoff
    /// (`STORE_WRITE_ATTEMPTS` attempts). A write that fails every
    /// attempt degrades the whole cache to memory-only — the search
    /// continues, only durability is lost — rather than aborting the
    /// run.
    pub fn insert(&self, key: Digest, eval: &Evaluation) -> bool {
        let newly = self
            .inner
            .mem
            .lock()
            .expect("cache poisoned")
            .insert(key.0, eval.clone())
            .is_none();
        if !newly {
            return false;
        }
        let Some(writer) = &self.inner.writer else {
            return false;
        };
        if self.is_degraded() {
            return false;
        }
        let body = JsonValue::obj(vec![
            ("key", JsonValue::Str(key.to_hex())),
            ("eval", evaluation_to_json(eval)),
        ]);
        // The injector decides once per *write* (not per attempt)
        // whether this write is scheduled to fail; its transience flag
        // then governs whether retries clear.
        let fault = self.inner.faults.lock().expect("cache poisoned").clone();
        let injected = fault.as_ref().is_some_and(|f| f.next_store_write_fails());
        let mut last_error: Option<io::Error> = None;
        for attempt in 0..STORE_WRITE_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(STORE_WRITE_BACKOFF[(attempt - 1) as usize]);
            }
            let inject_now =
                injected && (attempt == 0 || fault.as_ref().is_some_and(|f| f.retry_should_fail()));
            let result = if inject_now {
                Err(io::Error::other("injected fault: store write failure"))
            } else {
                writer.lock().expect("cache poisoned").write(&body)
            };
            match result {
                Ok(()) => return true,
                Err(e) => last_error = Some(e),
            }
        }
        // Out of retries: degrade to memory-only with a warning. The
        // evaluation itself is already correct in memory; only
        // durability is lost.
        self.inner
            .degraded
            .store(true, std::sync::atomic::Ordering::Relaxed);
        self.inner
            .degraded_unreported
            .store(true, std::sync::atomic::Ordering::Relaxed);
        let e = last_error.expect("a failed write leaves an error");
        eprintln!(
            "warning: evaluation store write failed {STORE_WRITE_ATTEMPTS} times ({e}); \
             continuing with the in-memory cache only"
        );
        false
    }
}

// ---------------------------------------------------------------------------
// Session log records

/// The counters a trial carries across generation boundaries, in the
/// order of their checkpoint keys. A snapshot of the search's
/// bookkeeping is a copy of this one value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    /// Fitness probes: design simulations plus bloat rejections.
    pub evals: u64,
    /// Trial-cache hits, in-flight duplicates included.
    pub cache_hits: u64,
    /// Shared-cache hits.
    pub store_hits: u64,
    /// Shared-cache write-throughs.
    pub store_writes: u64,
    /// Fitness probes spent minimizing the winning patch.
    pub minimize_evals: u64,
    /// Per-candidate budget expiries. This and the next two count fresh
    /// simulations only: cached answers keep their stored outcome but
    /// do not re-count.
    pub timeouts: u64,
    /// Contained worker panics.
    pub panics: u64,
    /// Resource-cap stops.
    pub exhausted: u64,
    /// Patch applications: the AST work of the trial (cache hits do
    /// none).
    pub patch_applies: u64,
}

impl Counters {
    /// Counters absent from logs written before fault containment
    /// existed; they restore as 0.
    const OPTIONAL: [&'static str; 3] = ["timeouts", "panics", "exhausted"];

    /// Every counter with its checkpoint key, in key order: the one
    /// list both halves of the checkpoint codec walk. `None` marks a
    /// retired counter whose key the session-log format keeps stable:
    /// `rejected_static` (the static lint filter) and `pattern_hits`
    /// (mined fix patterns) are written as 0 and ignored on read.
    pub(crate) fn keyed(&mut self) -> [(&'static str, Option<&mut u64>); 11] {
        [
            ("evals", Some(&mut self.evals)),
            ("cache_hits", Some(&mut self.cache_hits)),
            ("store_hits", Some(&mut self.store_hits)),
            ("store_writes", Some(&mut self.store_writes)),
            ("minimize_evals", Some(&mut self.minimize_evals)),
            ("rejected_static", None),
            ("timeouts", Some(&mut self.timeouts)),
            ("panics", Some(&mut self.panics)),
            ("exhausted", Some(&mut self.exhausted)),
            ("pattern_hits", None),
            ("patch_applies", Some(&mut self.patch_applies)),
        ]
    }
}

/// Everything the engine snapshots at a generation boundary: the only
/// generation-boundary record. With the cache-delta records before it,
/// it resumes a trial bit-identically; alone, it is one trial's row in
/// a session's run report.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Checkpoint {
    /// Generation index (0 = the seed population).
    pub generation: u32,
    /// RNG state *after* producing this generation.
    pub rng: [u64; 4],
    /// The trial's counters at the boundary.
    pub counters: Counters,
    /// Wall clock consumed so far.
    pub elapsed: Duration,
    /// Cumulative evaluation-worker busy time so far.
    pub busy: Duration,
    /// Best (patch, fitness) so far.
    pub best: (Patch, f64),
    /// Best fitness at the end of each completed generation.
    pub history: Vec<f64>,
    /// Strictly increasing best-fitness trajectory.
    pub improvement_steps: Vec<f64>,
    /// The population's patches (evaluations are restored through the
    /// cache-delta records).
    pub population: Vec<Patch>,
    /// The plausible patch, when one was found this generation.
    pub found: Option<Patch>,
}

impl Checkpoint {
    /// The session-log record of this checkpoint in trial `trial`.
    pub(crate) fn to_json(&self, trial: u32) -> JsonValue {
        let mut counters = self.counters;
        let mut pairs = vec![
            ("type", JsonValue::Str("checkpoint".into())),
            ("trial", JsonValue::Uint(u64::from(trial))),
            ("generation", JsonValue::Uint(u64::from(self.generation))),
            ("rng", uints(self.rng)),
        ];
        pairs.extend(
            counters
                .keyed()
                .map(|(key, n)| (key, JsonValue::Uint(n.map_or(0, |n| *n)))),
        );
        pairs.extend([
            (
                "elapsed_nanos",
                JsonValue::Uint(self.elapsed.as_nanos() as u64),
            ),
            ("busy_nanos", JsonValue::Uint(self.busy.as_nanos() as u64)),
            ("best_patch", patch_to_json(&self.best.0)),
            ("best_bits", JsonValue::Uint(self.best.1.to_bits())),
            (
                "history_bits",
                uints(self.history.iter().map(|x| x.to_bits())),
            ),
            (
                "improvement_bits",
                uints(self.improvement_steps.iter().map(|x| x.to_bits())),
            ),
            (
                "population",
                JsonValue::Array(self.population.iter().map(patch_to_json).collect()),
            ),
            (
                "found",
                self.found.as_ref().map_or(JsonValue::Null, patch_to_json),
            ),
        ]);
        JsonValue::obj(pairs)
    }

    /// Reads a record written by [`Checkpoint::to_json`] (the `trial`
    /// key is the caller's). The [`Counters::OPTIONAL`] counters read as
    /// 0 when absent; any other missing or mistyped field makes the log
    /// unusable.
    pub(crate) fn from_json(v: &JsonValue) -> Result<Checkpoint, SessionError> {
        let rng = need_uints(v, "rng")?
            .try_into()
            .map_err(|w| SessionError::Corrupt(format!("bad rng state: {w:?}")))?;
        let floats = |key| -> Result<Vec<f64>, SessionError> {
            Ok(need_uints(v, key)?
                .into_iter()
                .map(f64::from_bits)
                .collect())
        };
        let mut counters = Counters::default();
        for (key, n) in counters.keyed() {
            let Some(n) = n else { continue };
            *n = if Counters::OPTIONAL.contains(&key) {
                field_u64(v, key).unwrap_or(0)
            } else {
                need_u64(v, key)?
            };
        }
        let population = match field(v, "population") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|p| patch_from_json(p).map_err(SessionError::Corrupt))
                .collect::<Result<_, _>>()?,
            other => return Err(SessionError::Corrupt(format!("bad population: {other:?}"))),
        };
        let best_patch = opt_patch(v, "best_patch")?
            .ok_or_else(|| SessionError::Corrupt("checkpoint missing best patch".into()))?;
        Ok(Checkpoint {
            generation: need_u64(v, "generation")? as u32,
            rng,
            counters,
            elapsed: Duration::from_nanos(need_u64(v, "elapsed_nanos")?),
            busy: Duration::from_nanos(need_u64(v, "busy_nanos")?),
            best: (best_patch, f64::from_bits(need_u64(v, "best_bits")?)),
            history: floats("history_bits")?,
            improvement_steps: floats("improvement_bits")?,
            population,
            found: opt_patch(v, "found")?,
        })
    }
}

/// An array of unsigned words (RNG state, or `f64`s as their bits).
fn uints(words: impl IntoIterator<Item = u64>) -> JsonValue {
    JsonValue::Array(words.into_iter().map(JsonValue::Uint).collect())
}

fn need_uints(v: &JsonValue, key: &str) -> Result<Vec<u64>, SessionError> {
    match field(v, key) {
        Some(JsonValue::Array(items)) => items
            .iter()
            .map(|i| match i {
                JsonValue::Uint(w) => Ok(*w),
                other => Err(SessionError::Corrupt(format!(
                    "bad word in {key:?}: {other:?}"
                ))),
            })
            .collect(),
        other => Err(SessionError::Corrupt(format!(
            "missing array {key:?}: {other:?}"
        ))),
    }
}

fn need_u64(v: &JsonValue, key: &str) -> Result<u64, SessionError> {
    field_u64(v, key).ok_or_else(|| SessionError::Corrupt(format!("missing field {key:?}")))
}

fn opt_patch(v: &JsonValue, key: &str) -> Result<Option<Patch>, SessionError> {
    match field(v, key) {
        Some(JsonValue::Null) => Ok(None),
        Some(p) => Ok(Some(patch_from_json(p).map_err(SessionError::Corrupt)?)),
        None => Err(SessionError::Corrupt(format!("missing patch {key:?}"))),
    }
}

/// Appends typed records to one session's log file.
pub(crate) struct SessionRecorder {
    writer: SegmentWriter,
    trial: u32,
}

impl SessionRecorder {
    /// Wraps an opened session log.
    pub fn new(writer: SegmentWriter) -> SessionRecorder {
        SessionRecorder { writer, trial: 0 }
    }

    fn write(&mut self, body: &JsonValue) {
        // Durability failures must not take down the search; the log
        // simply ends earlier, and a resume restarts further back.
        let _ = self.writer.write_record(body);
    }

    /// Writes the session header.
    pub fn meta(&mut self, scenario: Digest, session: Digest, trials: u32, config: &RepairConfig) {
        let body = JsonValue::obj(vec![
            ("type", JsonValue::Str("meta".into())),
            ("scenario", JsonValue::Str(scenario.to_hex())),
            ("session", JsonValue::Str(session.to_hex())),
            ("trials", JsonValue::Uint(u64::from(trials))),
            ("seed", JsonValue::Uint(config.seed)),
            ("popn_size", JsonValue::Uint(config.popn_size as u64)),
            (
                "max_generations",
                JsonValue::Uint(u64::from(config.max_generations)),
            ),
        ]);
        self.write(&body);
    }

    /// Marks the start of trial `trial`, recording the totals
    /// accumulated by the trials before it.
    pub fn trial_start(&mut self, trial: u32, totals: &RunTotals) {
        self.trial = trial;
        let body = JsonValue::obj(vec![
            ("type", JsonValue::Str("trial".into())),
            ("trial", JsonValue::Uint(u64::from(trial))),
            ("totals", totals_to_json(totals)),
        ]);
        self.write(&body);
    }

    /// Continues an already-logged trial after a resume (no record is
    /// written — the trial record is already in the log).
    pub fn resume_trial(&mut self, trial: u32) {
        self.trial = trial;
    }

    /// Logs trial-cache inserts since the last checkpoint. Empty deltas
    /// write nothing.
    pub fn cache_delta(&mut self, entries: &[(Patch, Digest)]) {
        if entries.is_empty() {
            return;
        }
        let body = JsonValue::obj(vec![
            ("type", JsonValue::Str("cache".into())),
            ("trial", JsonValue::Uint(u64::from(self.trial))),
            (
                "entries",
                JsonValue::Array(
                    entries
                        .iter()
                        .map(|(p, k)| {
                            JsonValue::obj(vec![
                                ("patch", patch_to_json(p)),
                                ("key", JsonValue::Str(k.to_hex())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        self.write(&body);
    }

    /// Logs a generation-boundary checkpoint.
    pub fn checkpoint(&mut self, cp: &Checkpoint) {
        self.write(&cp.to_json(self.trial));
    }

    /// Logs session completion; a log ending in this record is never
    /// resumed (and is reaped by `store gc`).
    pub fn complete(&mut self, status: RepairStatus) {
        let body = JsonValue::obj(vec![
            ("type", JsonValue::Str("complete".into())),
            (
                "status",
                JsonValue::Str(
                    match status {
                        RepairStatus::Plausible => "plausible",
                        RepairStatus::Exhausted => "exhausted",
                        RepairStatus::Interrupted => "interrupted",
                    }
                    .into(),
                ),
            ),
        ]);
        self.write(&body);
    }

    /// Forces the log to stable storage.
    pub fn sync(&mut self) {
        let _ = self.writer.sync();
    }
}

// ---------------------------------------------------------------------------
// Resume state

/// A checkpoint with everything it names resolved, ready to hand to
/// [`Repairer::with_resume`]: restoring inside the engine is infallible.
/// It holds only what the checkpoint record itself lacks.
pub(crate) struct ResumeState {
    /// Trial index being resumed.
    pub trial: u32,
    /// The generation boundary to continue from.
    pub checkpoint: Checkpoint,
    /// The evaluations of the checkpoint's population, in order.
    pub population: Vec<Evaluation>,
    /// Every trial-cache entry at the boundary (already logged — the
    /// engine must not re-log them).
    pub l1: HashMap<Patch, Evaluation>,
    /// Totals accumulated by completed earlier trials.
    pub totals: RunTotals,
}

/// What a session log folds down to.
enum Folded {
    /// No usable checkpoint: run from scratch (still warm through the
    /// evaluation cache).
    Fresh,
    /// The session already ran to completion.
    Complete,
    /// Resume from this materialized checkpoint.
    Resume(Box<ResumeState>),
}

/// Replays a session log into the state at its last checkpoint.
fn fold_session(
    records: &[JsonValue],
    session: Digest,
    shared: &SharedEvalCache,
) -> Result<Folded, SessionError> {
    // Cache deltas accumulate per trial; a checkpoint commits the
    // prefix seen so far (a torn tail can leave a delta record without
    // its checkpoint — those entries must not be restored, or the
    // restored cache would disagree with the checkpoint's counters).
    let mut deltas: HashMap<u32, Vec<(Patch, Digest)>> = HashMap::new();
    let mut trial_totals: HashMap<u32, RunTotals> = HashMap::new();
    let mut last: Option<(&JsonValue, u32, usize)> = None; // checkpoint, trial, delta prefix
    let mut complete = false;
    for record in records {
        match field_str(record, "type") {
            Some("meta") => {
                if let Some(s) = field_str(record, "session") {
                    if Digest::from_hex(s) != Some(session) {
                        return Err(SessionError::Corrupt(
                            "session log belongs to a different configuration".into(),
                        ));
                    }
                }
            }
            Some("trial") => {
                let t = need_u64(record, "trial")? as u32;
                let totals = field(record, "totals")
                    .ok_or_else(|| SessionError::Corrupt("trial record missing totals".into()))
                    .and_then(|v| totals_from_json(v).map_err(SessionError::Corrupt))?;
                trial_totals.insert(t, totals);
            }
            Some("cache") => {
                let t = need_u64(record, "trial")? as u32;
                let entries = match field(record, "entries") {
                    Some(JsonValue::Array(items)) => items,
                    other => {
                        return Err(SessionError::Corrupt(format!(
                            "cache record has no entries: {other:?}"
                        )))
                    }
                };
                let bucket = deltas.entry(t).or_default();
                for e in entries {
                    let patch = field(e, "patch")
                        .ok_or_else(|| SessionError::Corrupt("cache entry missing patch".into()))
                        .and_then(|p| patch_from_json(p).map_err(SessionError::Corrupt))?;
                    let key = field_str(e, "key")
                        .and_then(Digest::from_hex)
                        .ok_or_else(|| SessionError::Corrupt("cache entry missing key".into()))?;
                    bucket.push((patch, key));
                }
            }
            Some("checkpoint") => {
                let t = need_u64(record, "trial")? as u32;
                let prefix = deltas.get(&t).map_or(0, Vec::len);
                last = Some((record, t, prefix));
            }
            Some("complete") => complete = true,
            // Unknown record types are skipped: a newer writer may add
            // kinds this reader does not know.
            _ => {}
        }
    }
    if complete {
        return Ok(Folded::Complete);
    }
    let Some((cp, trial, prefix)) = last else {
        return Ok(Folded::Fresh);
    };

    let checkpoint = Checkpoint::from_json(cp)?;

    // Materialize the trial cache: resolve each logged fingerprint
    // against the evaluation store. A missing evaluation is an honest
    // failure — resuming with a guessed fitness would poison the run.
    let mut l1 = HashMap::with_capacity(prefix);
    for (patch, key) in deltas.remove(&trial).unwrap_or_default().drain(..prefix) {
        let eval = shared.peek(key).ok_or_else(|| {
            SessionError::Corrupt(format!(
                "evaluation {} referenced by the session log is missing from the store",
                key.to_hex()
            ))
        })?;
        l1.insert(patch, eval);
    }
    let population = checkpoint
        .population
        .iter()
        .map(|patch| {
            l1.get(patch).cloned().ok_or_else(|| {
                SessionError::Corrupt(
                    "population member missing from the checkpointed cache".into(),
                )
            })
        })
        .collect::<Result<_, _>>()?;
    let state = ResumeState {
        trial,
        checkpoint,
        population,
        l1,
        totals: trial_totals.remove(&trial).unwrap_or_default(),
    };
    Ok(Folded::Resume(Box::new(state)))
}

// ---------------------------------------------------------------------------
// Session driver

/// Runs (or resumes) a persistent repair session: like
/// [`crate::repair_with_trials`], but every evaluation is written
/// through to `store_dir`, a checkpoint lands at every generation
/// boundary, and plausible repairs are appended to the store's corpus.
///
/// With `resume` set, a session log left by an interrupted run
/// continues from its last checkpoint, reproducing the uninterrupted
/// run's result bit-for-bit; a log that already completed is discarded
/// and the session re-runs warm (answered from the evaluation cache).
/// Without `resume`, any existing log for this configuration is
/// replaced.
pub fn repair_session(
    problem: &RepairProblem,
    base: &RepairConfig,
    trials: u32,
    store_dir: &Path,
    resume: bool,
) -> Result<RepairResult, SessionError> {
    let store = Store::open(store_dir)?;
    let scenario = problem_digest(problem, base);
    let session = session_digest(scenario, base, trials);
    let (shared, damaged) = SharedEvalCache::open(&store, scenario)?;
    shared.set_faults(base.faults.clone());
    if damaged > 0 {
        base.observer.emit(|| {
            Event::Store(StoreEvent {
                op: "damage".into(),
                key: String::new(),
                records: damaged,
            })
        });
    }

    let log_path = store.session_path(&session.to_hex());
    let mut resume_state: Option<Box<ResumeState>> = None;
    if resume && log_path.exists() {
        let (records, health) = store.load_session(&session.to_hex())?;
        if !health.is_clean() {
            base.observer.emit(|| {
                Event::Store(StoreEvent {
                    op: "damage".into(),
                    key: String::new(),
                    records: (health.corrupt.len() + usize::from(health.torn_tail.is_some()))
                        as u64,
                })
            });
        }
        match fold_session(&records, session, &shared)? {
            Folded::Complete => std::fs::remove_file(&log_path)?,
            Folded::Resume(state) => resume_state = Some(state),
            Folded::Fresh => std::fs::remove_file(&log_path)?,
        }
    } else if log_path.exists() {
        std::fs::remove_file(&log_path)?;
    }

    // Lease the log for the whole run: a concurrent `Store::gc` (an
    // operator's `cirfix store gc` beside other sessions on the store)
    // must neither reap this session nor truncate an append in flight.
    let _session_lease = store.session_lease(&session.to_hex())?;
    let mut recorder = SessionRecorder::new(store.session_writer(&session.to_hex())?);
    if resume_state.is_none() {
        recorder.meta(scenario, session, trials, base);
    }

    let start_trial = resume_state.as_ref().map_or(0, |s| s.trial);
    let mut totals = resume_state
        .as_ref()
        .map_or_else(RunTotals::default, |s| s.totals.clone());
    let mut last: Option<RepairResult> = None;
    for t in start_trial..trials.max(1) {
        let config = RepairConfig {
            seed: base.seed.wrapping_add(u64::from(t)),
            ..base.clone()
        };
        let mut repairer = Repairer::new(problem, config).with_store(shared.clone(), scenario);
        match resume_state.take() {
            Some(state) => {
                recorder.resume_trial(t);
                repairer = repairer.with_resume(*state);
            }
            None => recorder.trial_start(t, &totals),
        }
        let mut repairer = repairer.with_session(recorder);
        let mut result = repairer.run();
        recorder = repairer
            .take_session()
            .expect("the recorder survives the trial");

        totals.add_trial(&result);
        result.totals = totals.clone();
        if result.status == RepairStatus::Interrupted {
            // Deterministic halt (halt_after): the log stays open —
            // ending exactly at the last checkpoint — so a resumed run
            // picks up from here.
            recorder.sync();
            return Ok(result);
        }

        if result.is_plausible() {
            // Corpus hygiene: an identical (scenario, patch) pair —
            // e.g. the same session re-run without `--resume` — is
            // recorded once, not once per run.
            let patch_json = patch_to_json(&result.patch);
            let patch_text = patch_json.to_json();
            let scenario_hex = scenario.to_hex();
            let (existing, _) = store.load_corpus()?;
            let duplicate = existing.iter().any(|r| {
                field_str(r, "scenario") == Some(scenario_hex.as_str())
                    && field(r, "patch").is_some_and(|p| p.to_json() == patch_text)
            });
            if duplicate {
                totals.corpus_skipped += 1;
                result.totals.corpus_skipped = totals.corpus_skipped;
                base.observer.emit(|| {
                    Event::Store(StoreEvent {
                        op: "corpus_skip".into(),
                        key: scenario_hex.clone(),
                        records: 1,
                    })
                });
            } else {
                // The faulty design, printed with the same
                // design-modules-only convention as `repaired_source`,
                // so the record holds both sides of the repair.
                let faulty_source: Vec<String> = problem
                    .source
                    .modules
                    .iter()
                    .filter(|m| problem.design_modules.contains(&m.name))
                    .map(|m| cirfix_ast::print::module_to_string(m))
                    .collect();
                let corpus = JsonValue::obj(vec![
                    ("scenario", JsonValue::Str(scenario_hex)),
                    ("session", JsonValue::Str(session.to_hex())),
                    ("trial", JsonValue::Uint(u64::from(t))),
                    (
                        "seed",
                        JsonValue::Uint(base.seed.wrapping_add(u64::from(t))),
                    ),
                    ("patch", patch_json),
                    (
                        "fitness_bits",
                        JsonValue::Uint(result.best_fitness.to_bits()),
                    ),
                    (
                        "unminimized_len",
                        JsonValue::Uint(result.unminimized_len as u64),
                    ),
                    (
                        "generations",
                        JsonValue::Uint(u64::from(result.generations)),
                    ),
                    ("faulty_source", JsonValue::Str(faulty_source.join("\n"))),
                    (
                        "repaired_source",
                        match &result.repaired_source {
                            Some(s) => JsonValue::Str(s.clone()),
                            None => JsonValue::Null,
                        },
                    ),
                ]);
                store.append_corpus(&corpus)?;
            }
            recorder.complete(RepairStatus::Plausible);
            recorder.sync();
            return Ok(result);
        }
        last = Some(result);
    }
    recorder.complete(RepairStatus::Exhausted);
    recorder.sync();
    Ok(last.expect("at least one trial ran"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::Edit;

    fn checkpoint() -> Checkpoint {
        let first = Patch::single(Edit::DeleteStmt { target: 7 });
        let second = first.with(Edit::ReplaceExpr {
            target: 12,
            donor: 30,
        });
        let mut counters = Counters::default();
        // Distinct values, so a codec that swaps two keys fails.
        for (i, (_, n)) in counters.keyed().into_iter().enumerate() {
            if let Some(n) = n {
                *n = 100 + i as u64;
            }
        }
        Checkpoint {
            generation: 3,
            rng: [1, u64::MAX, 3, 4],
            counters,
            elapsed: Duration::from_nanos(1_234_567),
            busy: Duration::from_nanos(890),
            best: (second.clone(), 0.75),
            history: vec![0.5, 0.625, 0.75],
            improvement_steps: vec![0.25, 0.5, 0.75],
            population: vec![Patch::empty(), first, second.clone()],
            found: Some(second),
        }
    }

    /// The checkpoint record with `keys` left out.
    fn without(record: JsonValue, keys: &[&str]) -> JsonValue {
        match record {
            JsonValue::Object(pairs) => JsonValue::Object(
                pairs
                    .into_iter()
                    .filter(|(k, _)| !keys.contains(&k.as_str()))
                    .collect(),
            ),
            other => panic!("a checkpoint is an object, got {other:?}"),
        }
    }

    #[test]
    fn a_checkpoint_round_trips_through_its_record() {
        let cp = checkpoint();
        let record = cp.to_json(2);
        assert_eq!(field_str(&record, "type"), Some("checkpoint"));
        assert_eq!(field_u64(&record, "trial"), Some(2));
        let read = Checkpoint::from_json(&record).expect("a written checkpoint reads back");
        assert_eq!(read, cp);
        assert_eq!(read.to_json(2).to_json(), record.to_json());
        let none_found = Checkpoint {
            found: None,
            ..checkpoint()
        };
        let read = Checkpoint::from_json(&none_found.to_json(0)).expect("reads back");
        assert_eq!(read, none_found);
    }

    #[test]
    fn counters_added_after_the_first_logs_read_as_zero_when_absent() {
        let cp = checkpoint();
        let old = without(cp.to_json(0), &Counters::OPTIONAL);
        let read = Checkpoint::from_json(&old).expect("an older checkpoint still reads");
        let c = read.counters;
        assert_eq!((c.timeouts, c.panics, c.exhausted), (0, 0, 0));
        let restored = Counters {
            timeouts: cp.counters.timeouts,
            panics: cp.counters.panics,
            exhausted: cp.counters.exhausted,
            ..c
        };
        assert_eq!(
            restored, cp.counters,
            "every other counter reads as written"
        );
    }

    #[test]
    fn retired_counter_keys_are_written_as_zero_and_ignored_on_read() {
        let cp = checkpoint();
        let record = cp.to_json(0);
        for key in ["rejected_static", "pattern_hits"] {
            assert_eq!(field_u64(&record, key), Some(0), "{key}");
        }
        let trimmed = without(record, &["rejected_static", "pattern_hits"]);
        assert_eq!(Checkpoint::from_json(&trimmed).expect("reads"), cp);
    }

    #[test]
    fn a_checkpoint_missing_a_required_field_is_corrupt() {
        let record = without(checkpoint().to_json(0), &["evals"]);
        match Checkpoint::from_json(&record) {
            Err(SessionError::Corrupt(msg)) => assert!(msg.contains("evals"), "{msg}"),
            Err(e) => panic!("expected a corrupt log, got {e}"),
            Ok(_) => panic!("a checkpoint without evals must not read"),
        }
    }
}
