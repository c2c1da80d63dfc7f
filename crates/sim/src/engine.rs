//! The event-driven simulation engine.
//!
//! Implements a stratified event queue in the style of IEEE 1364 §11:
//! within one time step, *active* events run first (process resumptions,
//! continuous assignment evaluations), then *inactive* (`#0`) events,
//! then *non-blocking assignment* updates; when all three are empty the
//! *postponed* region samples probes and `$monitor`, and time advances.

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use cirfix_ast::SourceFile;
use cirfix_logic::{EdgeKind, Logic, LogicVec};

use crate::cancel::CancelToken;
use crate::code::{exec_code, ExprCode, STRING_AS_VALUE};
use crate::compile::{Op, SysArg};
use crate::design::{Design, Scope, SignalId, Store, Target};
use crate::elab::elaborate;
use crate::error::SimError;
use crate::eval::{EvalCtx, EvalFault, Lcg};
use crate::probe::{ProbeSchedule, ProbeSpec, Trace};

/// Resource limits and stop conditions for one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Simulation stops after this time (inclusive).
    pub max_time: u64,
    /// Maximum events dispatched within a single time step before the
    /// run is declared oscillating.
    pub max_deltas: u64,
    /// Maximum operations one process may execute without suspending.
    pub max_ops_per_resume: u64,
    /// Global operation budget across the whole run.
    pub max_total_ops: u64,
    /// Maximum combined depth of the active/inactive/NBA regions plus
    /// scheduled future time slots. A mutant that floods the scheduler
    /// gets [`SimError::ResourceExhausted`] instead of exhausting host
    /// memory.
    pub max_queue_events: u64,
    /// Maximum rows recorded across all probe traces, bounding trace
    /// memory for mutants that trigger pathological sampling.
    pub max_trace_rows: u64,
    /// Seed for `$random`.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            max_time: 1_000_000,
            max_deltas: 100_000,
            max_ops_per_resume: 1_000_000,
            max_total_ops: 200_000_000,
            max_queue_events: 4_000_000,
            max_trace_rows: 4_000_000,
            seed: 1,
        }
    }
}

/// Interpreter operations between cancellation polls, minus one.
/// Polling reads the wall clock, so the hot loop only checks every
/// `CANCEL_CHECK_MASK + 1` operations — still sub-millisecond
/// cancellation latency at interpreter speeds.
pub const CANCEL_CHECK_MASK: u64 = 0x3FF;

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// `true` if `$finish`/`$stop` was executed.
    pub finished: bool,
    /// The last simulated time.
    pub end_time: u64,
    /// Total operations executed.
    pub total_ops: u64,
    /// Effort counters for the run.
    pub metrics: SimMetrics,
}

/// Scheduler effort counters, maintained as plain integers so the hot
/// loop pays one add per region event. Returned inside [`SimOutcome`];
/// higher layers translate them into telemetry events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// Events processed from the active region.
    pub active_events: u64,
    /// Events promoted out of the inactive (`#0`) region.
    pub inactive_events: u64,
    /// Times the NBA region was flushed.
    pub nba_flushes: u64,
    /// Distinct simulation times visited (beyond time 0).
    pub timesteps: u64,
    /// Behavioral process resumptions.
    pub process_resumptions: u64,
    /// Largest combined region queue depth observed.
    pub peak_queue_depth: u64,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Resume(usize),
    EvalCassign(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcStatus {
    Ready,
    Waiting,
    Done,
}

#[derive(Debug)]
struct ProcState {
    pc: usize,
    status: ProcStatus,
    pending: Option<LogicVec>,
    repeat_stack: Vec<u64>,
    wait_epoch: u64,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    proc: usize,
    edge: EdgeKind,
    epoch: u64,
}

/// A fully resolved write destination (indices already evaluated).
#[derive(Debug, Clone)]
enum ConcreteTarget {
    SigRange {
        sig: SignalId,
        msb: usize,
        lsb: usize,
    },
    MemWord {
        mem: usize,
        index: Option<usize>,
    },
    Discard {
        width: usize,
    },
}

impl ConcreteTarget {
    fn width(&self, mem_widths: &[usize]) -> usize {
        match self {
            ConcreteTarget::SigRange { msb, lsb, .. } => msb - lsb + 1,
            ConcreteTarget::MemWord { mem, .. } => mem_widths[*mem],
            ConcreteTarget::Discard { width } => *width,
        }
    }
}

#[derive(Debug)]
struct NbaUpdate {
    parts: Vec<ConcreteTarget>,
    value: LogicVec,
}

#[derive(Debug, Default)]
struct FutureSlot {
    active: Vec<Ev>,
    nba: Vec<NbaUpdate>,
}

#[derive(Debug)]
struct ProbeState {
    sig_ids: Vec<SignalId>,
    trace: Trace,
    pending: bool,
    schedule: ProbeSchedule,
    /// Next periodic sample time (`None` for edge probes and once the
    /// schedule has run past `max_time`). Periodic sampling is tracked
    /// here instead of through calendar slots so a fine-grained probe
    /// (period 1) does not allocate a slot per time step.
    next_sample: Option<u64>,
}

struct MonitorState {
    args: Vec<SysArg>,
    scope: Arc<Scope>,
    last: Option<String>,
}

/// An elaborated design ready to run, with instrumentation attached.
///
/// # Examples
///
/// ```
/// use cirfix_sim::{SimConfig, Simulator};
/// let src = r#"
/// module t;
///     reg [3:0] q;
///     initial begin q = 0; #10 q = 5; #10 $finish; end
/// endmodule
/// "#;
/// let file = cirfix_parser::parse(src)?;
/// let mut sim = Simulator::new(&file, "t", SimConfig::default())?;
/// let outcome = sim.run()?;
/// assert!(outcome.finished);
/// assert_eq!(sim.signal("q").unwrap().to_u64(), Some(5));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulator {
    /// Shared with the interpreter loops, which hold a clone of the `Rc`
    /// while they mutate the run state.
    design: Rc<Design>,
    store: Store,
    config: SimConfig,
    scratch: Vec<LogicVec>,
    count_scratch: Vec<u64>,
    wake_scratch: Vec<usize>,
    target_scratch: Vec<ConcreteTarget>,
    procs: Vec<ProcState>,
    watchers: Vec<Vec<Watcher>>,
    probe_edges: Vec<Vec<(usize, EdgeKind)>>,
    cassign_queued: Vec<bool>,
    probes: Vec<ProbeState>,
    monitor: Option<MonitorState>,
    log: Vec<String>,
    now: u64,
    active: VecDeque<Ev>,
    inactive: Vec<Ev>,
    nba: Vec<NbaUpdate>,
    /// The event calendar, sorted by time *descending* so the next time
    /// step pops from the back. It is only a few entries deep (pending
    /// `#d` delays), so a sorted Vec with recycled slot buffers beats a
    /// tree: no node allocation per time step.
    calendar: Vec<(u64, FutureSlot)>,
    free_slots: Vec<FutureSlot>,
    finished: bool,
    total_ops: u64,
    deltas_this_step: u64,
    metrics: SimMetrics,
    rng: Lcg,
    sig_lsb: Vec<usize>,
    mem_offset: Vec<u64>,
    mem_widths: Vec<usize>,
    started: bool,
    cancel: Option<CancelToken>,
    trace_rows: u64,
    elab_nanos: u64,
    exec_nanos: u64,
}

impl Simulator {
    /// Elaborates `top` from `file` and prepares a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Elaboration`] when the design is malformed —
    /// the *compile failure* case of the CirFix loop.
    pub fn new(file: &SourceFile, top: &str, config: SimConfig) -> Result<Simulator, SimError> {
        let t0 = std::time::Instant::now();
        let design = elaborate(file, top)?;
        let mut sim = Simulator::from_design(design, config);
        sim.elab_nanos = t0.elapsed().as_nanos() as u64;
        Ok(sim)
    }

    /// Builds a simulator from an already elaborated (and compiled)
    /// design.
    pub fn from_design(design: Design, config: SimConfig) -> Simulator {
        let store = Store::new(&design);
        let procs = design
            .processes
            .iter()
            .map(|_| ProcState {
                pc: 0,
                status: ProcStatus::Ready,
                pending: None,
                repeat_stack: Vec::new(),
                wait_epoch: 0,
            })
            .collect();
        let n_sigs = design.signals.len();
        let sig_lsb = design.signals.iter().map(|s| s.lsb).collect();
        let mem_offset = design.memories.iter().map(|m| m.offset).collect();
        let mem_widths = design.memories.iter().map(|m| m.width).collect();
        let seed = config.seed;
        let n_cassigns = design.cassigns.len();
        Simulator {
            design: Rc::new(design),
            store,
            config,
            scratch: Vec::new(),
            count_scratch: Vec::new(),
            wake_scratch: Vec::new(),
            target_scratch: Vec::new(),
            procs,
            watchers: vec![Vec::new(); n_sigs],
            probe_edges: vec![Vec::new(); n_sigs],
            cassign_queued: vec![false; n_cassigns],
            probes: Vec::new(),
            monitor: None,
            log: Vec::new(),
            now: 0,
            active: VecDeque::new(),
            inactive: Vec::new(),
            nba: Vec::new(),
            calendar: Vec::new(),
            free_slots: Vec::new(),
            finished: false,
            total_ops: 0,
            deltas_this_step: 0,
            metrics: SimMetrics::default(),
            rng: Lcg::new(seed),
            sig_lsb,
            mem_offset,
            mem_widths,
            started: false,
            cancel: None,
            trace_rows: 0,
            elab_nanos: 0,
            exec_nanos: 0,
        }
    }

    /// Attaches a cooperative cancellation token. The event loop polls it
    /// at region boundaries and every [`CANCEL_CHECK_MASK`]+1 interpreter
    /// operations; a tripped token aborts the run with
    /// [`SimError::Cancelled`].
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Attaches an instrumentation probe. Must be called before
    /// [`Simulator::run`].
    ///
    /// # Errors
    ///
    /// Returns an elaboration error if a probed signal does not exist —
    /// this is how CirFix detects mutants that delete an output wire.
    pub fn add_probe(&mut self, spec: &ProbeSpec) -> Result<usize, SimError> {
        if self.started {
            return Err(SimError::elab("probes must be attached before run()"));
        }
        let mut sig_ids = Vec::new();
        for name in &spec.signals {
            let id = self
                .design
                .signal_named(name)
                .ok_or_else(|| SimError::elab(format!("probed signal `{name}` not found")))?;
            sig_ids.push(id);
        }
        if let ProbeSchedule::OnEdge { signal, edge } = &spec.schedule {
            let sig = self
                .design
                .signal_named(signal)
                .ok_or_else(|| SimError::elab(format!("probe clock `{signal}` not found")))?;
            self.probe_edges[sig].push((self.probes.len(), *edge));
        }
        self.probes.push(ProbeState {
            sig_ids,
            trace: Trace::new(spec.signals.clone()),
            pending: false,
            schedule: spec.schedule.clone(),
            next_sample: None,
        });
        Ok(self.probes.len() - 1)
    }

    /// The current value of a signal by hierarchical name.
    pub fn signal(&self, name: &str) -> Option<&LogicVec> {
        self.design
            .signal_named(name)
            .map(|id| &self.store.signals[id])
    }

    /// `$display` output accumulated so far.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Takes the `$display` output, leaving the simulator's log empty.
    /// For callers that discard the simulator afterwards — skips the
    /// copy [`Simulator::log`] + `to_vec` would make.
    pub fn take_log(&mut self) -> Vec<String> {
        std::mem::take(&mut self.log)
    }

    /// The recorded trace of probe `idx` (as returned by `add_probe`).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn probe_trace(&self, idx: usize) -> &Trace {
        &self.probes[idx].trace
    }

    /// Takes the recorded trace of probe `idx`, leaving an empty
    /// (variable-less) trace behind. For callers that discard the
    /// simulator afterwards — skips the clone.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn take_probe_trace(&mut self, idx: usize) -> Trace {
        std::mem::take(&mut self.probes[idx].trace)
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Runs to completion (`$finish`, event exhaustion, or `max_time`).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on oscillation or resource exhaustion —
    /// runtime failures that CirFix scores as fitness 0.
    pub fn run(&mut self) -> Result<SimOutcome, SimError> {
        let t0 = std::time::Instant::now();
        let result = self.run_inner();
        self.exec_nanos += t0.elapsed().as_nanos() as u64;
        result
    }

    fn run_inner(&mut self) -> Result<SimOutcome, SimError> {
        self.init();
        loop {
            self.check_cancel()?;
            self.process_regions()?;
            if self.finished {
                break;
            }
            self.run_postponed()?;
            // Advance to the earlier of the next scheduled event and the
            // next periodic probe sample (samples create a time step even
            // when no event is due — the probe still records a row).
            let t_event = self.calendar.last().map(|&(t, _)| t);
            let t_probe = self.probes.iter().filter_map(|p| p.next_sample).min();
            let t = match (t_event, t_probe) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if t > self.config.max_time {
                break;
            }
            self.now = t;
            self.metrics.timesteps += 1;
            self.deltas_this_step = 0;
            if t_event == Some(t) {
                let (_, mut slot) = self.calendar.pop().expect("slot exists");
                self.active.extend(slot.active.drain(..));
                // `self.nba` is empty between steps; swap to reuse the
                // drained slot's buffer next time around.
                std::mem::swap(&mut self.nba, &mut slot.nba);
                self.free_slots.push(slot);
            }
            if t_probe == Some(t) {
                for probe in &mut self.probes {
                    if probe.next_sample != Some(t) {
                        continue;
                    }
                    probe.pending = true;
                    let ProbeSchedule::Periodic { period, .. } = probe.schedule else {
                        continue;
                    };
                    let next = t.saturating_add(period);
                    probe.next_sample = (next <= self.config.max_time).then_some(next);
                }
            }
        }
        Ok(SimOutcome {
            finished: self.finished,
            end_time: self.now,
            total_ops: self.total_ops,
            metrics: self.metrics.clone(),
        })
    }

    /// Effort counters accumulated so far (complete after
    /// [`Simulator::run`] returns; also valid after an error, where no
    /// [`SimOutcome`] is produced).
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Wall-clock nanoseconds spent elaborating the design inside
    /// [`Simulator::new`] (zero for [`Simulator::from_design`], where
    /// the caller elaborated). Phase hook for profilers; kept out of
    /// [`SimMetrics`] so persisted, determinism-critical counters stay
    /// timing-free.
    pub fn elaboration_nanos(&self) -> u64 {
        self.elab_nanos
    }

    /// Wall-clock nanoseconds spent inside [`Simulator::run`] so far
    /// (accumulated across calls; also valid after an error).
    pub fn execution_nanos(&self) -> u64 {
        self.exec_nanos
    }

    fn init(&mut self) {
        self.started = true;
        // Apply register initializers silently (before time 0).
        for (id, sig) in self.design.signals.iter().enumerate() {
            if let Some(init) = &sig.init {
                self.store.signals[id] = init.clone();
            }
        }
        // All processes start at time 0.
        for p in 0..self.procs.len() {
            self.active.push_back(Ev::Resume(p));
        }
        // All continuous assignments get an initial evaluation.
        for ci in 0..self.design.cassigns.len() {
            self.cassign_queued[ci] = true;
            self.active.push_back(Ev::EvalCassign(ci));
        }
        // Seed periodic probe schedules. A start of 0 samples at the end
        // of time step 0, so it is pending immediately and the schedule
        // advances one period.
        for probe in &mut self.probes {
            if let ProbeSchedule::Periodic { start, period } = probe.schedule {
                if start == 0 {
                    probe.pending = true;
                    probe.next_sample = (period <= self.config.max_time).then_some(period);
                } else {
                    probe.next_sample = (start <= self.config.max_time).then_some(start);
                }
            }
        }
    }

    /// The calendar slot for time `t`, created (from the freelist) if
    /// absent. The calendar is sorted by time descending.
    fn future_slot(&mut self, t: u64) -> &mut FutureSlot {
        match self
            .calendar
            .binary_search_by(|&(time, _)| time.cmp(&t).reverse())
        {
            Ok(i) => &mut self.calendar[i].1,
            Err(i) => {
                let slot = self.free_slots.pop().unwrap_or_default();
                self.calendar.insert(i, (t, slot));
                &mut self.calendar[i].1
            }
        }
    }

    /// Drains the active → inactive → NBA regions of the current step.
    fn process_regions(&mut self) -> Result<(), SimError> {
        loop {
            let depth = (self.active.len() + self.inactive.len() + self.nba.len()) as u64;
            if depth > self.metrics.peak_queue_depth {
                self.metrics.peak_queue_depth = depth;
            }
            if depth + self.calendar.len() as u64 > self.config.max_queue_events {
                return Err(SimError::ResourceExhausted {
                    what: "event queue",
                    time: self.now,
                });
            }
            if let Some(ev) = self.active.pop_front() {
                self.bump_delta()?;
                self.metrics.active_events += 1;
                match ev {
                    Ev::Resume(p) => self.resume(p)?,
                    Ev::EvalCassign(ci) => self.eval_cassign(ci)?,
                }
                if self.finished {
                    return Ok(());
                }
                continue;
            }
            if !self.inactive.is_empty() {
                self.bump_delta()?;
                self.metrics.inactive_events += self.inactive.len() as u64;
                let mut moved = std::mem::take(&mut self.inactive);
                self.active.extend(moved.drain(..));
                self.inactive = moved;
                continue;
            }
            if !self.nba.is_empty() {
                self.bump_delta()?;
                self.metrics.nba_flushes += 1;
                let mut updates = std::mem::take(&mut self.nba);
                for up in updates.drain(..) {
                    self.apply_write(&up.parts, up.value);
                }
                // Writes only wake processes (they run later from the
                // active queue), so nothing re-queued into `nba` here;
                // restore the drained buffer to recycle its capacity.
                if self.nba.is_empty() {
                    self.nba = updates;
                }
                continue;
            }
            return Ok(());
        }
    }

    fn bump_delta(&mut self) -> Result<(), SimError> {
        self.deltas_this_step += 1;
        if self.deltas_this_step > self.config.max_deltas {
            return Err(SimError::Oscillation { time: self.now });
        }
        Ok(())
    }

    fn check_cancel(&self) -> Result<(), SimError> {
        match &self.cancel {
            Some(t) if t.is_cancelled() => Err(SimError::Cancelled { time: self.now }),
            _ => Ok(()),
        }
    }

    fn run_postponed(&mut self) -> Result<(), SimError> {
        for pi in 0..self.probes.len() {
            if self.probes[pi].pending {
                self.probes[pi].pending = false;
                self.trace_rows += 1;
                if self.trace_rows > self.config.max_trace_rows {
                    return Err(SimError::ResourceExhausted {
                        what: "trace rows",
                        time: self.now,
                    });
                }
                let row: Vec<LogicVec> = self.probes[pi]
                    .sig_ids
                    .iter()
                    .map(|&s| self.store.signals[s].clone())
                    .collect();
                let now = self.now;
                self.probes[pi].trace.record(now, row);
            }
        }
        if let Some(mon) = self.monitor.take() {
            let text = self
                .format_args(&mon.args, &mon.scope)
                .map_err(|e| self.runtime(e))?;
            let mut mon = mon;
            if mon.last.as_deref() != Some(&text) {
                self.log.push(text.clone());
                mon.last = Some(text);
            }
            self.monitor = Some(mon);
        }
        Ok(())
    }

    fn runtime(&self, fault: EvalFault) -> SimError {
        SimError::Runtime {
            message: fault.0,
            time: self.now,
        }
    }

    // -- expression / target helpers ------------------------------------

    fn exec(&mut self, code: &ExprCode) -> Result<LogicVec, EvalFault> {
        let mut ctx = EvalCtx {
            store: &self.store,
            sig_lsb: &self.sig_lsb,
            mem_offset: &self.mem_offset,
            time: self.now,
            rng: &mut self.rng,
        };
        exec_code(code, &mut ctx, &mut self.scratch, &mut self.count_scratch)
    }

    fn resolve_target(&mut self, target: &Target) -> Result<Vec<ConcreteTarget>, EvalFault> {
        let mut parts = Vec::new();
        self.resolve_target_into(target, &mut parts)?;
        Ok(parts)
    }

    fn resolve_target_into(
        &mut self,
        target: &Target,
        out: &mut Vec<ConcreteTarget>,
    ) -> Result<(), EvalFault> {
        match target {
            Target::Sig(sig) => {
                let w = self.design.signals[*sig].width;
                out.push(ConcreteTarget::SigRange {
                    sig: *sig,
                    msb: w - 1,
                    lsb: 0,
                });
            }
            Target::Bits { sig, msb, lsb } => out.push(ConcreteTarget::SigRange {
                sig: *sig,
                msb: *msb,
                lsb: *lsb,
            }),
            Target::BitDyn { sig, index } => {
                let idx = self.exec(index)?;
                match idx.to_u64() {
                    Some(i) => {
                        let raw = i.wrapping_sub(self.sig_lsb[*sig] as u64) as usize;
                        if raw < self.design.signals[*sig].width {
                            out.push(ConcreteTarget::SigRange {
                                sig: *sig,
                                msb: raw,
                                lsb: raw,
                            });
                        } else {
                            out.push(ConcreteTarget::Discard { width: 1 });
                        }
                    }
                    None => out.push(ConcreteTarget::Discard { width: 1 }),
                }
            }
            Target::Word { mem, index } => {
                let idx = self.exec(index)?;
                let slot = idx.to_u64().and_then(|i| {
                    let raw = i.wrapping_sub(self.mem_offset[*mem]) as usize;
                    (raw < self.store.memories[*mem].len()).then_some(raw)
                });
                out.push(ConcreteTarget::MemWord {
                    mem: *mem,
                    index: slot,
                });
            }
            Target::Concat(parts) => {
                for p in parts {
                    self.resolve_target_into(p, out)?;
                }
            }
        }
        Ok(())
    }

    /// Resolves `target` into the reusable scratch buffer and writes
    /// `value` — the allocation-free path for targets that are consumed
    /// immediately (blocking assigns, continuous assigns). Non-blocking
    /// assigns keep an owned part list because updates are queued.
    fn write_target(&mut self, target: &Target, value: LogicVec) -> Result<(), EvalFault> {
        let mut parts = std::mem::take(&mut self.target_scratch);
        parts.clear();
        let resolved = self.resolve_target_into(target, &mut parts);
        if resolved.is_ok() {
            self.apply_write(&parts, value);
        }
        parts.clear();
        self.target_scratch = parts;
        resolved
    }

    fn apply_write(&mut self, parts: &[ConcreteTarget], value: LogicVec) {
        // Whole-signal writes — the overwhelmingly common case — skip
        // the resize/slice round trip (set_signal resizes as needed).
        if let [ConcreteTarget::SigRange { sig, msb, lsb }] = parts {
            if *lsb == 0 && *msb + 1 == self.design.signals[*sig].width {
                self.set_signal(*sig, value);
                return;
            }
        }
        let total: usize = parts.iter().map(|p| p.width(&self.mem_widths)).sum();
        if total == 0 {
            return;
        }
        let v = value.resized(total);
        let mut hi = total;
        for part in parts {
            let w = part.width(&self.mem_widths);
            let lo = hi - w;
            let chunk = v.slice(hi - 1, lo);
            match part {
                ConcreteTarget::SigRange { sig, msb, lsb } => {
                    let mut cur = self.store.signals[*sig].clone();
                    cur.write_slice(*msb, *lsb, &chunk);
                    self.set_signal(*sig, cur);
                }
                ConcreteTarget::MemWord { mem, index } => {
                    if let Some(i) = index {
                        self.store.memories[*mem][*i] = chunk;
                    }
                }
                ConcreteTarget::Discard { .. } => {}
            }
            hi = lo;
        }
    }

    fn set_signal(&mut self, sig: SignalId, new: LogicVec) {
        let new = if new.width() == self.design.signals[sig].width {
            new
        } else {
            new.resized(self.design.signals[sig].width)
        };
        if self.store.signals[sig] == new {
            return;
        }
        let old = std::mem::replace(&mut self.store.signals[sig], new);

        // Wake matching process watchers; drop stale and fired entries.
        // (Scratch buffer + in-place retain: no allocation per write.)
        let mut watchers = std::mem::take(&mut self.watchers[sig]);
        if !watchers.is_empty() {
            let mut to_wake = std::mem::take(&mut self.wake_scratch);
            {
                let new_ref = &self.store.signals[sig];
                let procs = &self.procs;
                watchers.retain(|w| {
                    let p = &procs[w.proc];
                    if p.status != ProcStatus::Waiting || p.wait_epoch != w.epoch {
                        return false; // stale
                    }
                    if w.edge.matches_vec(&old, new_ref) {
                        to_wake.push(w.proc);
                        false
                    } else {
                        true
                    }
                });
            }
            self.watchers[sig] = watchers;
            for i in to_wake.drain(..) {
                self.wake(i);
            }
            self.wake_scratch = to_wake;
        } else {
            self.watchers[sig] = watchers;
        }

        // Edge-triggered probes.
        for k in 0..self.probe_edges[sig].len() {
            let (pi, edge) = self.probe_edges[sig][k];
            if edge.matches_vec(&old, &self.store.signals[sig]) {
                self.probes[pi].pending = true;
            }
        }

        // Re-evaluate dependent continuous assignments.
        for &ci in self.design.readers(sig) {
            if !self.cassign_queued[ci] {
                self.cassign_queued[ci] = true;
                self.active.push_back(Ev::EvalCassign(ci));
            }
        }
    }

    fn wake(&mut self, p: usize) {
        self.procs[p].status = ProcStatus::Ready;
        self.procs[p].wait_epoch += 1;
        self.active.push_back(Ev::Resume(p));
    }

    fn eval_cassign(&mut self, ci: usize) -> Result<(), SimError> {
        self.cassign_queued[ci] = false;
        let design = Rc::clone(&self.design);
        let ca = &design.cassigns[ci];
        let value = self.exec(&ca.rhs).map_err(|e| self.runtime(e))?;
        match ca.target {
            Target::Sig(sig) => self.set_signal(sig, value),
            ref target => self
                .write_target(target, value)
                .map_err(|e| self.runtime(e))?,
        }
        Ok(())
    }

    // -- process interpreter ---------------------------------------------

    fn resume(&mut self, p: usize) -> Result<(), SimError> {
        if self.procs[p].status == ProcStatus::Done {
            return Ok(());
        }
        self.metrics.process_resumptions += 1;
        self.procs[p].status = ProcStatus::Ready;
        let design = Rc::clone(&self.design);
        let process = &design.processes[p];
        let mut ops_this_resume: u64 = 0;
        loop {
            ops_this_resume += 1;
            self.total_ops += 1;
            if ops_this_resume > self.config.max_ops_per_resume {
                return Err(SimError::RunawayProcess { time: self.now });
            }
            if self.total_ops > self.config.max_total_ops {
                return Err(SimError::StepLimit { time: self.now });
            }
            if self.total_ops & CANCEL_CHECK_MASK == 0 {
                self.check_cancel()?;
            }
            let pc = self.procs[p].pc;
            let Some(op) = process.program.ops.get(pc) else {
                self.procs[p].status = ProcStatus::Done;
                return Ok(());
            };
            match op {
                Op::Assign { target, rhs } => {
                    let value = self.exec(rhs).map_err(|e| self.runtime(e))?;
                    self.write_target(target, value)
                        .map_err(|e| self.runtime(e))?;
                    self.procs[p].pc += 1;
                }
                Op::EvalPending { rhs } => {
                    let value = self.exec(rhs).map_err(|e| self.runtime(e))?;
                    self.procs[p].pending = Some(value);
                    self.procs[p].pc += 1;
                }
                Op::CommitPending { target } => {
                    let value = self.procs[p]
                        .pending
                        .take()
                        .unwrap_or_else(|| LogicVec::unknown(1));
                    self.write_target(target, value)
                        .map_err(|e| self.runtime(e))?;
                    self.procs[p].pc += 1;
                }
                Op::NonBlocking { target, rhs, delay } => {
                    let value = self.exec(rhs).map_err(|e| self.runtime(e))?;
                    let parts = self.resolve_target(target).map_err(|e| self.runtime(e))?;
                    let d = match delay {
                        Some(d) => self
                            .exec(d)
                            .map_err(|e| self.runtime(e))?
                            .to_u64()
                            .unwrap_or(0),
                        None => 0,
                    };
                    let update = NbaUpdate { parts, value };
                    if d == 0 {
                        self.nba.push(update);
                    } else {
                        let t = self.now + d;
                        self.future_slot(t).nba.push(update);
                    }
                    self.procs[p].pc += 1;
                }
                Op::WaitDelay { amount } => {
                    let d = self
                        .exec(amount)
                        .map_err(|e| self.runtime(e))?
                        .to_u64()
                        .unwrap_or(0);
                    self.procs[p].pc += 1;
                    self.procs[p].status = ProcStatus::Waiting;
                    self.procs[p].wait_epoch += 1;
                    if d == 0 {
                        self.inactive.push(Ev::Resume(p));
                    } else {
                        let t = self.now + d;
                        self.future_slot(t).active.push(Ev::Resume(p));
                    }
                    return Ok(());
                }
                Op::WaitEvent { events } => {
                    self.procs[p].pc += 1;
                    self.procs[p].status = ProcStatus::Waiting;
                    let epoch = self.procs[p].wait_epoch;
                    for spec in events {
                        self.watchers[spec.sig].push(Watcher {
                            proc: p,
                            edge: spec.edge,
                            epoch,
                        });
                    }
                    return Ok(());
                }
                Op::WaitCond { cond, watch } => {
                    let v = self.exec(cond).map_err(|e| self.runtime(e))?;
                    if v.truth().as_bool() {
                        self.procs[p].pc += 1;
                    } else {
                        self.procs[p].status = ProcStatus::Waiting;
                        let epoch = self.procs[p].wait_epoch;
                        for &sig in watch {
                            self.watchers[sig].push(Watcher {
                                proc: p,
                                edge: EdgeKind::Any,
                                epoch,
                            });
                        }
                        return Ok(());
                    }
                }
                Op::Trigger { sig } => {
                    let next = self.store.signals[*sig]
                        .to_u64()
                        .map_or(1, |v| (v + 1) & 0xff);
                    let width = self.design.signals[*sig].width;
                    self.set_signal(*sig, LogicVec::from_u64(next, width));
                    self.procs[p].pc += 1;
                }
                Op::SysTask { name, args } => {
                    self.sys_task(name, args, &process.scope)?;
                    self.procs[p].pc += 1;
                    if self.finished {
                        return Ok(());
                    }
                }
                Op::JumpIfFalse { cond, target } => {
                    let v = self.exec(cond).map_err(|e| self.runtime(e))?;
                    if v.truth().as_bool() {
                        self.procs[p].pc += 1;
                    } else {
                        self.procs[p].pc = *target;
                    }
                }
                Op::Jump { target } => {
                    self.procs[p].pc = *target;
                }
                Op::CaseJump {
                    subject,
                    kind,
                    arms,
                    default_target,
                } => {
                    let sv = self.exec(subject).map_err(|e| self.runtime(e))?;
                    let mut jumped = false;
                    'arms: for (labels, target) in arms {
                        for label in labels {
                            let lv = self.exec(label).map_err(|e| self.runtime(e))?;
                            let hit = match kind {
                                cirfix_ast::CaseKind::Case => sv.case_match(&lv),
                                cirfix_ast::CaseKind::Casez => sv.casez_match(&lv),
                                cirfix_ast::CaseKind::Casex => sv.casex_match(&lv),
                            };
                            if hit {
                                self.procs[p].pc = *target;
                                jumped = true;
                                break 'arms;
                            }
                        }
                    }
                    if !jumped {
                        self.procs[p].pc = *default_target;
                    }
                }
                Op::RepeatInit { count } => {
                    let n = self
                        .exec(count)
                        .map_err(|e| self.runtime(e))?
                        .to_u64()
                        .unwrap_or(0);
                    self.procs[p].repeat_stack.push(n);
                    self.procs[p].pc += 1;
                }
                Op::RepeatTest { exit } => {
                    let top = self.procs[p]
                        .repeat_stack
                        .last_mut()
                        .expect("RepeatTest without RepeatInit");
                    if *top == 0 {
                        self.procs[p].repeat_stack.pop();
                        self.procs[p].pc = *exit;
                    } else {
                        *top -= 1;
                        self.procs[p].pc += 1;
                    }
                }
                Op::End => {
                    self.procs[p].status = ProcStatus::Done;
                    return Ok(());
                }
            }
        }
    }

    fn sys_task(
        &mut self,
        name: &str,
        args: &[SysArg],
        scope: &Arc<Scope>,
    ) -> Result<(), SimError> {
        match name {
            "display" | "write" | "strobe" => {
                let text = self.format_args(args, scope).map_err(|e| self.runtime(e))?;
                self.log.push(text);
                Ok(())
            }
            "monitor" => {
                self.monitor = Some(MonitorState {
                    args: args.to_vec(),
                    scope: Arc::clone(scope),
                    last: None,
                });
                Ok(())
            }
            "finish" | "stop" => {
                self.finished = true;
                Ok(())
            }
            // Waveform/configuration tasks are accepted and ignored.
            "dumpfile" | "dumpvars" | "dumpon" | "dumpoff" | "timeformat" => Ok(()),
            other => Err(SimError::Runtime {
                message: format!("unsupported system task ${other}"),
                time: self.now,
            }),
        }
    }

    /// Evaluates a system-task argument; a string literal in a value
    /// position faults as any string used as a value does.
    fn eval_arg(&mut self, arg: &SysArg) -> Result<LogicVec, EvalFault> {
        match arg {
            SysArg::Value(code) => self.exec(code),
            SysArg::Text(_) => Err(EvalFault::new(STRING_AS_VALUE)),
        }
    }

    fn format_args(&mut self, args: &[SysArg], scope: &Scope) -> Result<String, EvalFault> {
        let Some(first) = args.first() else {
            return Ok(String::new());
        };
        if let SysArg::Text(fmt) = first {
            let mut out = String::new();
            let mut rest = args[1..].iter();
            let mut chars = fmt.chars().peekable();
            while let Some(c) = chars.next() {
                if c != '%' {
                    out.push(c);
                    continue;
                }
                // Skip a field width like %0d or %3d.
                let mut spec = chars.next().unwrap_or('%');
                while spec.is_ascii_digit() {
                    spec = chars.next().unwrap_or('%');
                }
                match spec.to_ascii_lowercase() {
                    '%' => out.push('%'),
                    'm' => out.push_str(if scope.path.is_empty() {
                        "top"
                    } else {
                        &scope.path
                    }),
                    's' => match rest.next() {
                        Some(SysArg::Text(text)) => out.push_str(text),
                        Some(arg) => {
                            let v = self.eval_arg(arg)?;
                            out.push_str(&format_value(&v, 'd'));
                        }
                        None => out.push_str("%s"),
                    },
                    k @ ('d' | 'b' | 'h' | 'o' | 't' | 'c') => match rest.next() {
                        Some(arg) => {
                            let v = self.eval_arg(arg)?;
                            out.push_str(&format_value(&v, k));
                        }
                        None => {
                            out.push('%');
                            out.push(k);
                        }
                    },
                    other => {
                        out.push('%');
                        out.push(other);
                    }
                }
            }
            // Any leftover arguments are appended space-separated.
            for arg in rest {
                let v = self.eval_arg(arg)?;
                out.push(' ');
                out.push_str(&format_value(&v, 'd'));
            }
            Ok(out)
        } else {
            let mut parts = Vec::new();
            for arg in args {
                match arg {
                    SysArg::Text(text) => parts.push(text.clone()),
                    SysArg::Value(code) => {
                        let v = self.exec(code)?;
                        parts.push(format_value(&v, 'd'));
                    }
                }
            }
            Ok(parts.join(" "))
        }
    }
}

/// Formats a value for `$display` under a format character.
fn format_value(v: &LogicVec, spec: char) -> String {
    match spec {
        'b' => {
            let s = v.to_string();
            s.split('b').nth(1).unwrap_or(&s).to_string()
        }
        'h' => {
            let s = v.to_based_string(cirfix_logic::LiteralBase::Hex);
            s.split('h').nth(1).unwrap_or(&s).to_string()
        }
        'c' => v
            .to_u64()
            .map(|n| ((n & 0x7f) as u8 as char).to_string())
            .unwrap_or_else(|| "?".to_string()),
        // 'd', 't' and anything else: decimal with x/z handling.
        _ => match v.to_u128() {
            Some(n) => n.to_string(),
            None => {
                if v.bits_lsb().iter().all(|b| *b == Logic::X) {
                    "x".to_string()
                } else if v.bits_lsb().iter().all(|b| *b == Logic::Z) {
                    "z".to_string()
                } else {
                    "X".to_string()
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_parser::parse;

    fn run_src(src: &str, top: &str) -> Simulator {
        let file = parse(src).expect("parse");
        let mut sim = Simulator::new(&file, top, SimConfig::default()).expect("elab");
        sim.run().expect("run");
        sim
    }

    #[test]
    fn initial_blocks_assign_in_order() {
        let sim = run_src(
            "module t; reg [3:0] a, b; initial begin a = 4'd3; b = a + 1; end endmodule",
            "t",
        );
        assert_eq!(sim.signal("a").unwrap().to_u64(), Some(3));
        assert_eq!(sim.signal("b").unwrap().to_u64(), Some(4));
    }

    #[test]
    fn delays_order_execution() {
        let sim = run_src(
            r#"module t;
                reg [7:0] q;
                initial begin q = 1; #10 q = 2; #10 q = 3; end
            endmodule"#,
            "t",
        );
        assert_eq!(sim.signal("q").unwrap().to_u64(), Some(3));
        assert_eq!(sim.now(), 20);
    }

    #[test]
    fn metrics_count_scheduler_effort() {
        let sim = run_src(
            r#"module t;
                reg clk;
                reg [7:0] n;
                initial begin clk = 0; n = 0; end
                always #5 clk = !clk;
                always @(posedge clk) n <= n + 1;
                initial #44 $finish;
            endmodule"#,
            "t",
        );
        let m = sim.metrics();
        // Clock toggles at 5,10,...: several timesteps beyond t=0.
        assert!(m.timesteps >= 8, "{m:?}");
        // Each posedge resumes the counter process; plus clock restarts.
        assert!(m.process_resumptions >= 10, "{m:?}");
        // Four posedges by t=44, each flushing one NBA region.
        assert!(m.nba_flushes >= 4, "{m:?}");
        assert!(m.active_events >= m.process_resumptions, "{m:?}");
        assert!(m.peak_queue_depth >= 1, "{m:?}");
    }

    #[test]
    fn clock_oscillates_and_counter_counts() {
        let sim = run_src(
            r#"module t;
                reg clk;
                reg [7:0] n;
                initial begin clk = 0; n = 0; end
                always #5 clk = !clk;
                always @(posedge clk) n <= n + 1;
                initial #104 $finish;
            endmodule"#,
            "t",
        );
        // Posedges at 5, 15, ..., 95: 10 rising edges by t=104.
        assert_eq!(sim.signal("n").unwrap().to_u64(), Some(10));
    }

    #[test]
    fn nonblocking_swap_works() {
        let sim = run_src(
            r#"module t;
                reg [3:0] a, b;
                reg clk;
                initial begin a = 1; b = 2; clk = 0; #10 clk = 1; #5 $finish; end
                always @(posedge clk) begin a <= b; b <= a; end
            endmodule"#,
            "t",
        );
        assert_eq!(sim.signal("a").unwrap().to_u64(), Some(2));
        assert_eq!(sim.signal("b").unwrap().to_u64(), Some(1));
    }

    #[test]
    fn blocking_in_sequence_is_visible() {
        // With blocking assignments the same swap collapses: both end 2.
        let sim = run_src(
            r#"module t;
                reg [3:0] a, b;
                reg clk;
                initial begin a = 1; b = 2; clk = 0; #10 clk = 1; #5 $finish; end
                always @(posedge clk) begin a = b; b = a; end
            endmodule"#,
            "t",
        );
        assert_eq!(sim.signal("a").unwrap().to_u64(), Some(2));
        assert_eq!(sim.signal("b").unwrap().to_u64(), Some(2));
    }

    #[test]
    fn continuous_assign_follows_inputs() {
        let sim = run_src(
            r#"module t;
                reg [3:0] a;
                wire [3:0] y;
                assign y = a + 1;
                initial begin a = 4; #1 a = 9; end
            endmodule"#,
            "t",
        );
        assert_eq!(sim.signal("y").unwrap().to_u64(), Some(10));
    }

    #[test]
    fn named_events_synchronize_processes() {
        let sim = run_src(
            r#"module t;
                event go;
                reg [3:0] q;
                initial begin q = 0; #10 -> go; end
                initial begin @(go); q = 7; end
            endmodule"#,
            "t",
        );
        assert_eq!(sim.signal("q").unwrap().to_u64(), Some(7));
    }

    #[test]
    fn intra_assignment_delay_uses_old_value() {
        let sim = run_src(
            r#"module t;
                reg [3:0] a, b;
                initial begin
                    a = 5;
                    b = #10 a;      // rhs evaluated now
                    // a changed meanwhile by the other process
                end
                initial #5 a = 9;
            endmodule"#,
            "t",
        );
        assert_eq!(sim.signal("b").unwrap().to_u64(), Some(5));
        assert_eq!(sim.signal("a").unwrap().to_u64(), Some(9));
    }

    #[test]
    fn zero_delay_oscillation_is_detected() {
        // Two processes ping-pong with zero delay once a known value
        // enters the loop. (A pure wire loop settles at x because the
        // four-state operators have x as a fixed point.)
        let file = parse(
            r#"module t;
                reg a, b;
                always @(b) a = ~b;
                always @(a) b = a;
                initial #5 a = 1'b0;
            endmodule"#,
        )
        .unwrap();
        let mut sim = Simulator::new(&file, "t", SimConfig::default()).unwrap();
        let err = sim.run().unwrap_err();
        assert!(matches!(err, SimError::Oscillation { .. }), "{err:?}");
    }

    #[test]
    fn pure_wire_loops_settle_at_x() {
        let file =
            parse("module t; wire a, b; assign a = ~b; assign b = a; initial ; endmodule").unwrap();
        let mut sim = Simulator::new(&file, "t", SimConfig::default()).unwrap();
        sim.run().unwrap();
        assert!(sim.signal("a").unwrap().has_unknown());
    }

    #[test]
    fn runaway_process_is_detected() {
        let file = parse("module t; reg a; initial forever a = ~a; endmodule").unwrap();
        let mut sim = Simulator::new(&file, "t", SimConfig::default()).unwrap();
        let err = sim.run().unwrap_err();
        assert!(matches!(err, SimError::RunawayProcess { .. }));
    }

    #[test]
    fn display_formats_values() {
        let sim = run_src(
            r#"module t;
                reg [3:0] q;
                initial begin
                    q = 4'b1010;
                    $display("q=%d b=%b h=%h t=%t", q, q, q, $time);
                    $display("literal %% and %m");
                end
            endmodule"#,
            "t",
        );
        assert_eq!(sim.log()[0], "q=10 b=1010 h=a t=0");
        assert!(sim.log()[1].contains("% and top"));
    }

    #[test]
    fn monitor_logs_on_change() {
        let sim = run_src(
            r#"module t;
                reg [3:0] q;
                initial $monitor("q=%d", q);
                initial begin q = 0; #10 q = 1; #10 q = 1; #10 q = 2; #5 $finish; end
            endmodule"#,
            "t",
        );
        // The monitor samples at the end of each time step, so the t=0
        // value is the post-assignment 0, not the initial x.
        let monitor_lines: Vec<_> = sim.log().iter().filter(|l| l.starts_with("q=")).collect();
        assert_eq!(monitor_lines, vec!["q=0", "q=1", "q=2"]);
    }

    #[test]
    fn periodic_probe_samples_after_nba() {
        let src = r#"
            module t;
                reg clk;
                reg [3:0] n;
                initial begin clk = 0; n = 0; end
                always #5 clk = !clk;
                always @(posedge clk) n <= n + 1;
                initial #100 $finish;
            endmodule
        "#;
        let file = parse(src).unwrap();
        let mut sim = Simulator::new(&file, "t", SimConfig::default()).unwrap();
        let p = sim
            .add_probe(&ProbeSpec::periodic(vec!["n".into()], 5, 10))
            .unwrap();
        sim.run().unwrap();
        let trace = sim.probe_trace(p);
        // First posedge at 5 → sampled post-NBA → n = 1.
        assert_eq!(trace.get(5, "n").unwrap().to_u64(), Some(1));
        assert_eq!(trace.get(15, "n").unwrap().to_u64(), Some(2));
        assert_eq!(trace.get(95, "n").unwrap().to_u64(), Some(10));
    }

    #[test]
    fn edge_probe_samples_on_posedges_only() {
        let src = r#"
            module t;
                reg clk;
                reg [3:0] n;
                initial begin clk = 0; n = 0; end
                always #5 clk = !clk;
                always @(posedge clk) n <= n + 1;
                initial #52 $finish;
            endmodule
        "#;
        let file = parse(src).unwrap();
        let mut sim = Simulator::new(&file, "t", SimConfig::default()).unwrap();
        let p = sim
            .add_probe(&ProbeSpec::on_posedge(vec!["n".into()], "clk"))
            .unwrap();
        sim.run().unwrap();
        let trace = sim.probe_trace(p);
        let times: Vec<u64> = trace.times().collect();
        assert_eq!(times, vec![5, 15, 25, 35, 45]);
    }

    #[test]
    fn hierarchical_signals_are_probed() {
        let src = r#"
            module child (c, q);
                input c;
                output reg [1:0] q;
                always @(posedge c) q <= q + 1;
            endmodule
            module t;
                reg clk;
                wire [1:0] q;
                child dut (clk, q);
                initial begin clk = 0; end
                always #5 clk = !clk;
                initial begin #7 force_init; end
                initial #40 $finish;
            endmodule
        "#;
        // `force_init` is not valid — use a simpler testbench.
        let src = src.replace("initial begin #7 force_init; end", "");
        let file = parse(&src).unwrap();
        let mut sim = Simulator::new(&file, "t", SimConfig::default()).unwrap();
        sim.add_probe(&ProbeSpec::periodic(
            vec!["dut.q".into(), "q".into()],
            5,
            10,
        ))
        .unwrap();
        sim.run().unwrap();
        // q starts x and stays x (x+1 = x) — but the probe still records.
        let trace = sim.probe_trace(0);
        assert!(trace.get(5, "dut.q").unwrap().has_unknown());
    }

    #[test]
    fn case_statement_dispatch() {
        let sim = run_src(
            r#"module t;
                reg [1:0] s;
                reg [3:0] q;
                always @(s)
                    case (s)
                        2'd0: q = 4'd10;
                        2'd1: q = 4'd11;
                        default: q = 4'd15;
                    endcase
                initial begin s = 0; #1 s = 1; #1 s = 3; #1 s = 0; end
            endmodule"#,
            "t",
        );
        assert_eq!(sim.signal("q").unwrap().to_u64(), Some(10));
    }

    #[test]
    fn for_loop_fills_memory() {
        let sim = run_src(
            r#"module t;
                integer i;
                reg [7:0] mem [0:7];
                reg [7:0] sum;
                initial begin
                    for (i = 0; i < 8; i = i + 1) mem[i] = i * 2;
                    sum = mem[3] + mem[7];
                end
            endmodule"#,
            "t",
        );
        assert_eq!(sim.signal("sum").unwrap().to_u64(), Some(6 + 14));
    }

    #[test]
    fn wait_statement_resumes_on_condition() {
        let sim = run_src(
            r#"module t;
                reg go;
                reg [3:0] q;
                initial begin go = 0; q = 0; #20 go = 1; end
                initial begin wait (go) q = 9; end
            endmodule"#,
            "t",
        );
        assert_eq!(sim.signal("q").unwrap().to_u64(), Some(9));
    }

    #[test]
    fn finish_stops_simulation() {
        let sim = run_src(
            "module t; reg q; initial begin q = 0; #5 $finish; q = 1; end endmodule",
            "t",
        );
        assert_eq!(sim.signal("q").unwrap().to_u64(), Some(0));
    }

    #[test]
    fn concat_lvalue_distributes_bits() {
        let sim = run_src(
            r#"module t;
                reg c;
                reg [3:0] s;
                initial {c, s} = 5'b10110;
            endmodule"#,
            "t",
        );
        assert_eq!(sim.signal("c").unwrap().to_u64(), Some(1));
        assert_eq!(sim.signal("s").unwrap().to_u64(), Some(0b0110));
    }

    #[test]
    fn part_select_assignment() {
        let sim = run_src(
            r#"module t;
                reg [7:0] q;
                initial begin q = 8'h00; q[7:4] = 4'hf; q[0] = 1'b1; end
            endmodule"#,
            "t",
        );
        assert_eq!(sim.signal("q").unwrap().to_u64(), Some(0xf1));
    }

    #[test]
    fn repeat_loops_count() {
        let sim = run_src(
            r#"module t;
                reg [7:0] n;
                initial begin n = 0; repeat (5) n = n + 1; end
            endmodule"#,
            "t",
        );
        assert_eq!(sim.signal("n").unwrap().to_u64(), Some(5));
    }

    #[test]
    fn figure_1_counter_testbench_runs() {
        // End-to-end: the paper's motivating example, correct version.
        let src = r#"
            module counter (clk, reset, enable, counter_out, overflow_out);
                input clk, reset, enable;
                output [3:0] counter_out;
                output overflow_out;
                reg [3:0] counter_out;
                reg overflow_out;
                always @(posedge clk)
                begin : COUNTER
                    if (reset == 1'b1) begin
                        counter_out <= #1 4'b0000;
                        overflow_out <= #1 1'b0;
                    end
                    else if (enable == 1'b1) begin
                        counter_out <= #1 counter_out + 1;
                    end
                    if (counter_out == 4'b1111) begin
                        overflow_out <= #1 1'b1;
                    end
                end
            endmodule
            module counter_tb;
                reg clk, reset, enable;
                wire [3:0] counter_out;
                wire overflow_out;
                event reset_trigger, reset_done_trigger, terminate_sim;
                counter dut (clk, reset, enable, counter_out, overflow_out);
                initial begin clk = 0; reset = 0; enable = 0; end
                always #5 clk = !clk;
                initial begin
                    #5 ;
                    forever begin
                        @(reset_trigger);
                        @(negedge clk);
                        reset = 1;
                        @(negedge clk);
                        reset = 0;
                        -> reset_done_trigger;
                    end
                end
                initial begin
                    #10 -> reset_trigger;
                    @(reset_done_trigger);
                    @(negedge clk);
                    enable = 1;
                    repeat (21) begin
                        @(negedge clk);
                    end
                    enable = 0;
                    #5 -> terminate_sim;
                end
                initial begin
                    @(terminate_sim);
                    $finish;
                end
            endmodule
        "#;
        let file = parse(src).unwrap();
        let mut sim = Simulator::new(&file, "counter_tb", SimConfig::default()).unwrap();
        let p = sim
            .add_probe(&ProbeSpec::periodic(
                vec!["counter_out".into(), "overflow_out".into()],
                25,
                10,
            ))
            .unwrap();
        let outcome = sim.run().unwrap();
        assert!(outcome.finished);
        let trace = sim.probe_trace(p);
        // After reset (asserted on the negedge at t=15, sampled by the
        // counter at the posedge t=25, visible #1 later), the counter
        // counts 21 enabled cycles and overflows at value 15 → 0.
        assert_eq!(trace.get(35, "overflow_out").unwrap().to_u64(), Some(0));
        // The counter increments by one every cycle once enabled.
        let at45 = trace.get(45, "counter_out").unwrap().to_u64();
        let at55 = trace.get(55, "counter_out").unwrap().to_u64();
        assert_eq!(
            at55.unwrap().wrapping_sub(at45.unwrap()) & 0xf,
            1,
            "counter must advance once per cycle: {at45:?} -> {at55:?}"
        );
        // Overflow eventually fires.
        let overflowed = trace
            .times()
            .filter_map(|t| trace.get(t, "overflow_out"))
            .any(|v| v.to_u64() == Some(1));
        assert!(overflowed, "overflow_out must reach 1:\n{}", trace.to_csv());
    }
}
