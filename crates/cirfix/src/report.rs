//! Run reports: folding the run record into one post-hoc summary of a
//! repair run.
//!
//! A run describes itself twice. Its telemetry events — a JSON-lines
//! trace or the live observer — record it event by event; its session log in a store records it checkpoint
//! by checkpoint. Neither is pleasant to read raw. [`RunReport`] folds
//! either into the questions §5 of the paper actually asks of a run:
//! did fitness converge and how fast (convergence curve per
//! generation), where did the time go (per-phase busy breakdown and
//! spans), what happened to the candidates (outcome table, simulator
//! effort), did the caches help (cache/store effectiveness), and which
//! operators earned their keep (proposed vs. survived vs. plausible).
//!
//! Every reader of events goes through one fold step,
//! `RunReport::fold`: [`RunReport::from_trace`] for `cirfix report`,
//! [`RunReport::fold_line`] for `cirfix watch`, and the [`ReportSink`]
//! behind `--metrics`, which folds each [`Event::to_value`] without
//! serializing it. Session
//! logs are decoded by the session codec itself (`Checkpoint::from_json`),
//! the same one a resume reads.
//!
//! Folding is pure and deterministic: the same trace bytes produce the
//! same report bytes, so reports on timing-free traces are themselves
//! byte-identical across worker counts.

use std::sync::Mutex;

use cirfix_telemetry::{
    field, field_f64, field_str, field_u64, parse_json, Event, GenerationStats, HeartbeatEvent,
    HistogramEvent, JsonValue, PhaseEvent, SimStats, TelemetrySink,
};

use crate::session::Checkpoint;

/// Efficacy of one candidate-producing operator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OperatorRow {
    /// Operator label (`"template"`, `"mutation"`, `"crossover"`, ...).
    pub op: String,
    /// Candidates the operator proposed.
    pub proposed: u64,
    /// Proposals with fitness > 0 (NaN counts as not surviving).
    pub survived: u64,
    /// Proposals reaching fitness 1.0 — plausible repairs.
    pub plausible: u64,
}

/// A folded run report; build with [`RunReport::from_trace`],
/// [`RunReport::from_session`] or a live [`ReportSink`], consume with
/// [`RunReport::render`] or [`RunReport::to_json`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// `"trace"` or `"session"`.
    pub source: String,
    /// Events (trace) or records (session) consumed.
    pub events: u64,
    /// Session header fields, in log order (sessions only).
    pub meta: Vec<(String, String)>,
    /// Convergence curve: the generation events (traces only; sessions
    /// put it per trial).
    pub generations: Vec<GenerationStats>,
    /// Each trial's last checkpoint, with the trial index (sessions
    /// only).
    pub(crate) trials: Vec<(u64, Checkpoint)>,
    /// Per-phase busy breakdown, phase events summed by name in
    /// first-seen order.
    pub phases: Vec<PhaseEvent>,
    /// Closed spans (`repair`, `minimize`, ...) counted and their wall
    /// time summed by name, in first-seen order.
    pub spans: Vec<PhaseEvent>,
    /// Evaluation outcome counts, in first-seen order.
    pub outcomes: Vec<(String, u64)>,
    /// Operator efficacy, in first-seen order.
    pub operators: Vec<OperatorRow>,
    /// Candidate evaluations observed.
    pub candidates: u64,
    /// Candidates answered from a cache.
    pub cached: u64,
    /// Summed candidate fitness, the numerator of the mean (a NaN
    /// fitness poisons it, visibly).
    pub fitness_sum: f64,
    /// Edits in the longest candidate patch.
    pub longest_patch: u64,
    /// Fault-localization passes.
    pub fault_loc_passes: u64,
    /// Nodes the last fault-localization pass implicated.
    pub implicated_nodes: u64,
    /// Simulation runs observed.
    pub sim_runs: u64,
    /// Their effort counters, summed; `peak_queue_depth` is the maximum.
    pub sim: SimStats,
    /// Store operation counts (`hit`, `write`, ...), in first-seen order.
    pub store_ops: Vec<(String, u64)>,
    /// Records the store's `damage` operations skipped.
    pub damaged_records: u64,
    /// The last heartbeat seen (the terminal snapshot, normally).
    pub heartbeat: Option<HeartbeatEvent>,
    /// Heartbeats seen.
    pub heartbeats: u64,
    /// Eval-latency histogram, merged across trials (buckets in
    /// bucket order).
    pub eval_latency: Option<HistogramEvent>,
    /// Terminal status (`"plausible"`, `"exhausted"`, `"interrupted"`,
    /// or a heartbeat status), when one was recorded.
    pub status: Option<String>,
    /// Non-empty trace lines that were not valid JSON (truncated tails,
    /// interleaved garbage), and session checkpoints the session codec
    /// rejects. They are skipped, not fatal: a report over a torn
    /// record still folds everything that did survive.
    pub malformed_lines: u64,
}

fn bump(table: &mut Vec<(String, u64)>, key: &str, by: u64) {
    match table.iter_mut().find(|(k, _)| k == key) {
        Some((_, n)) => *n += by,
        None => table.push((key.to_string(), by)),
    }
}

fn add_row(rows: &mut Vec<PhaseEvent>, name: &str, count: u64, nanos: u64) {
    match rows.iter_mut().find(|p| p.name == name) {
        Some(p) => {
            p.count += count;
            p.nanos += nanos;
        }
        None => rows.push(PhaseEvent {
            name: name.to_string(),
            count,
            nanos,
        }),
    }
}

fn heartbeat_from(v: &JsonValue) -> HeartbeatEvent {
    HeartbeatEvent {
        status: field_str(v, "status").unwrap_or("").to_string(),
        generation: field_u64(v, "generation").unwrap_or(0),
        best_fitness: field_f64(v, "best_fitness").unwrap_or(0.0),
        fitness_evals: field_u64(v, "fitness_evals").unwrap_or(0),
        cache_hits: field_u64(v, "cache_hits").unwrap_or(0),
        store_hits: field_u64(v, "store_hits").unwrap_or(0),
        timeouts: field_u64(v, "timeouts").unwrap_or(0),
        panics: field_u64(v, "panics").unwrap_or(0),
        exhausted: field_u64(v, "exhausted").unwrap_or(0),
        evals_per_s: field_f64(v, "evals_per_s").unwrap_or(0.0),
    }
}

impl RunReport {
    /// Folds a JSON-lines telemetry trace into a report, one
    /// [`RunReport::fold_line`] per line.
    pub fn from_trace(text: &str) -> RunReport {
        let mut r = RunReport {
            source: "trace".to_string(),
            ..RunReport::default()
        };
        for line in text.lines() {
            r.fold_line(line);
        }
        r
    }

    /// Folds one trace line through the one fold step. Blank lines are
    /// skipped; non-empty lines that are not valid JSON — truncated
    /// tails from a killed writer, interleaved garbage — are counted in
    /// [`RunReport::malformed_lines`] rather than aborting the fold.
    pub fn fold_line(&mut self, line: &str) -> Option<HeartbeatEvent> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        match parse_json(line) {
            Ok(v) => self.fold(&v),
            Err(_) => {
                self.malformed_lines += 1;
                None
            }
        }
    }

    /// Folds one telemetry event, as a trace line holds it — the one
    /// fold step behind every event reader. Unknown event types are
    /// counted and otherwise ignored (traces may grow new event kinds).
    /// Returns the event's heartbeat, if it was one: what a live viewer
    /// redraws.
    pub(crate) fn fold(&mut self, v: &JsonValue) -> Option<HeartbeatEvent> {
        self.events += 1;
        let text = |key| field_str(v, key).unwrap_or("");
        let uint = |key| field_u64(v, key).unwrap_or(0);
        match text("type") {
            "generation" => self.generations.push(GenerationStats {
                generation: uint("generation"),
                best_fitness: field_f64(v, "best_fitness").unwrap_or(0.0),
                median_fitness: field_f64(v, "median_fitness").unwrap_or(0.0),
                mean_fitness: field_f64(v, "mean_fitness").unwrap_or(0.0),
                distinct_fitness: uint("distinct_fitness"),
                elites: uint("elites"),
                template_children: uint("template_children"),
                mutation_children: uint("mutation_children"),
                crossover_children: uint("crossover_children"),
            }),
            "candidate" => {
                self.candidates += 1;
                if matches!(field(v, "cached"), Some(JsonValue::Bool(true))) {
                    self.cached += 1;
                }
                let fitness = field_f64(v, "fitness").unwrap_or(f64::NAN);
                self.fitness_sum += fitness;
                self.longest_patch = self.longest_patch.max(uint("patch_len"));
                let op = text("op");
                let row = match self.operators.iter_mut().find(|o| o.op == op) {
                    Some(row) => row,
                    None => {
                        self.operators.push(OperatorRow {
                            op: op.to_string(),
                            ..OperatorRow::default()
                        });
                        self.operators.last_mut().expect("just pushed")
                    }
                };
                row.proposed += 1;
                // NaN fails both comparisons: a poisoned fitness
                // neither survives nor counts as plausible.
                if fitness > 0.0 {
                    row.survived += 1;
                }
                if fitness >= 1.0 {
                    row.plausible += 1;
                }
            }
            "eval_outcome" => bump(&mut self.outcomes, text("kind"), 1),
            "phase" => add_row(&mut self.phases, text("name"), uint("count"), uint("nanos")),
            "span" => add_row(&mut self.spans, text("name"), 1, uint("nanos")),
            "fault_loc" => {
                self.fault_loc_passes += 1;
                self.implicated_nodes = uint("implicated_nodes");
            }
            "sim" => {
                self.sim_runs += 1;
                let s = &mut self.sim;
                s.active_events += uint("active_events");
                s.inactive_events += uint("inactive_events");
                s.nba_flushes += uint("nba_flushes");
                s.timesteps += uint("timesteps");
                s.process_resumptions += uint("process_resumptions");
                s.peak_queue_depth = s.peak_queue_depth.max(uint("peak_queue_depth"));
            }
            "heartbeat" => {
                let h = heartbeat_from(v);
                self.status = Some(h.status.clone());
                self.heartbeat = Some(h.clone());
                self.heartbeats += 1;
                return Some(h);
            }
            "histogram" => {
                let h = self.eval_latency.get_or_insert_default();
                h.name = text("name").to_string();
                h.total += uint("total");
                let hist = &mut h.buckets;
                if let Some(JsonValue::Array(buckets)) = field(v, "buckets") {
                    for b in buckets {
                        if let JsonValue::Array(pair) = b {
                            if let [JsonValue::Uint(i), JsonValue::Uint(c)] = pair.as_slice() {
                                let idx = *i as u32;
                                match hist.binary_search_by_key(&idx, |&(j, _)| j) {
                                    Ok(at) => hist[at].1 += c,
                                    Err(at) => hist.insert(at, (idx, *c)),
                                }
                            }
                        }
                    }
                }
            }
            "store" => {
                bump(&mut self.store_ops, text("op"), 1);
                if text("op") == "damage" {
                    self.damaged_records += uint("records");
                }
            }
            _ => {}
        }
        None
    }

    /// Folds a persisted session log (as loaded by
    /// `Store::load_session`) into a report: the last checkpoint per
    /// trial wins, its history becomes that trial's convergence curve,
    /// and a `complete` record sets the terminal status. Checkpoints
    /// are decoded by the session codec a resume uses; one it rejects
    /// counts as malformed.
    pub fn from_session(records: &[JsonValue]) -> RunReport {
        let mut r = RunReport {
            source: "session".to_string(),
            ..RunReport::default()
        };
        let mut trial = 0u64;
        for v in records {
            r.events += 1;
            match field_str(v, "type").unwrap_or("") {
                "meta" => {
                    if let JsonValue::Object(pairs) = v {
                        for (k, val) in pairs {
                            if k == "type" {
                                continue;
                            }
                            let text = match val {
                                JsonValue::Str(s) => s.clone(),
                                other => other.to_json(),
                            };
                            r.meta.push((k.clone(), text));
                        }
                    }
                }
                "trial" => trial = field_u64(v, "trial").unwrap_or(trial),
                "checkpoint" => {
                    let t = field_u64(v, "trial").unwrap_or(trial);
                    let Ok(cp) = Checkpoint::from_json(v) else {
                        r.malformed_lines += 1;
                        continue;
                    };
                    match r.trials.iter_mut().find(|(i, _)| *i == t) {
                        Some(row) => row.1 = cp,
                        None => r.trials.push((t, cp)),
                    }
                }
                "complete" => {
                    r.status = field_str(v, "status").map(str::to_string);
                }
                _ => {}
            }
        }
        // Roll trial counters up so the totals sections render for
        // sessions too.
        for (_, cp) in &r.trials {
            let c = &cp.counters;
            r.candidates += c.evals + c.cache_hits + c.store_hits;
            r.cached += c.cache_hits;
            if c.store_hits > 0 {
                bump(&mut r.store_ops, "hit", c.store_hits);
            }
            if c.store_writes > 0 {
                bump(&mut r.store_ops, "write", c.store_writes);
            }
        }
        r
    }

    /// Renders the report as human-readable text, ending in a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, s: &str| {
            out.push_str(s);
            out.push('\n');
        };
        // A section: a blank line, then its title.
        let section = |out: &mut String, title: &str| push(out, &format!("\n{title}"));
        push(
            &mut out,
            &format!(
                "run report ({}, {} {})",
                self.source,
                self.events,
                if self.source == "session" {
                    "records"
                } else {
                    "events"
                }
            ),
        );
        if let Some(status) = &self.status {
            push(&mut out, &format!("status: {status}"));
        }
        if self.malformed_lines > 0 {
            push(
                &mut out,
                &format!("malformed lines skipped: {}", self.malformed_lines),
            );
        }
        if !self.meta.is_empty() {
            section(&mut out, "session:");
            for (k, v) in &self.meta {
                push(&mut out, &format!("  {k}: {v}"));
            }
        }
        if !self.generations.is_empty() {
            section(&mut out, "convergence:");
            push(&mut out, "  gen       best     median       mean  distinct");
            for g in &self.generations {
                push(
                    &mut out,
                    &format!(
                        "  {:<4} {:>9} {:>10} {:>10} {:>9}",
                        g.generation,
                        fmt_f4(g.best_fitness),
                        fmt_f4(g.median_fitness),
                        fmt_f4(g.mean_fitness),
                        g.distinct_fitness
                    ),
                );
            }
        }
        for (trial, cp) in &self.trials {
            let c = &cp.counters;
            let found = cp.found.as_ref().map_or("", |_| ", plausible");
            section(
                &mut out,
                &format!(
                    "trial {} (generation {}, best {}{found}):",
                    trial,
                    cp.generation,
                    fmt_f(cp.best.1),
                ),
            );
            push(
                &mut out,
                &format!(
                    "  evals {} | cache hits {} | store hits {} writes {} | minimize {}",
                    c.evals, c.cache_hits, c.store_hits, c.store_writes, c.minimize_evals
                ),
            );
            push(
                &mut out,
                &format!(
                    "  timeouts {} | panics {} | exhausted {}",
                    c.timeouts, c.panics, c.exhausted
                ),
            );
            push(
                &mut out,
                &format!(
                    "  wall {} | busy {}",
                    fmt_nanos(cp.elapsed.as_nanos() as u64),
                    fmt_nanos(cp.busy.as_nanos() as u64)
                ),
            );
            if !cp.history.is_empty() {
                let curve: Vec<String> = cp.history.iter().map(|&f| fmt_f4(f)).collect();
                push(&mut out, &format!("  best by gen: {}", curve.join(" ")));
            }
        }
        if self.fault_loc_passes > 0 {
            section(&mut out, "fault localization:");
            push(
                &mut out,
                &format!(
                    "  passes {} | implicated nodes (last pass) {}",
                    self.fault_loc_passes, self.implicated_nodes
                ),
            );
        }
        for (title, rows) in [
            ("phase breakdown (busy):", &self.phases),
            ("spans (wall):", &self.spans),
        ] {
            if rows.is_empty() {
                continue;
            }
            section(&mut out, title);
            for p in rows {
                push(
                    &mut out,
                    &format!("  {:<10} {:>8} x {}", p.name, p.count, fmt_nanos(p.nanos)),
                );
            }
        }
        if !self.outcomes.is_empty() {
            section(&mut out, "evaluation outcomes:");
            for (kind, n) in &self.outcomes {
                push(&mut out, &format!("  {kind:<20} {n:>8}"));
            }
        }
        if self.sim_runs > 0 {
            let s = &self.sim;
            section(&mut out, "simulation:");
            push(
                &mut out,
                &format!(
                    "  runs {} | events processed {} | timesteps {} | NBA flushes {} | \
                     peak queue depth {}",
                    self.sim_runs,
                    s.active_events + s.inactive_events,
                    s.timesteps,
                    s.nba_flushes,
                    s.peak_queue_depth
                ),
            );
        }
        if !self.operators.is_empty() {
            section(&mut out, "operator efficacy:");
            push(&mut out, "  op          proposed  survived  plausible");
            for o in &self.operators {
                let label = if o.op.is_empty() { "(unknown)" } else { &o.op };
                push(
                    &mut out,
                    &format!(
                        "  {:<10} {:>9} {:>9} {:>10}",
                        label, o.proposed, o.survived, o.plausible
                    ),
                );
            }
            push(
                &mut out,
                &format!(
                    "  mean candidate fitness {} | longest patch {}",
                    fmt_f4(self.fitness_sum / self.candidates as f64),
                    self.longest_patch
                ),
            );
        }
        if self.candidates > 0 || !self.store_ops.is_empty() {
            section(&mut out, "cache & store:");
            if self.candidates > 0 {
                push(
                    &mut out,
                    &format!(
                        "  candidate evaluations {} (cached {})",
                        self.candidates, self.cached
                    ),
                );
            }
            for (op, n) in &self.store_ops {
                push(&mut out, &format!("  store {op:<10} {n:>8}"));
            }
            if self.damaged_records > 0 {
                push(
                    &mut out,
                    &format!("  damaged records {:>9}", self.damaged_records),
                );
            }
        }
        if let Some(h) = &self.eval_latency {
            section(&mut out, &format!("eval latency ({} samples):", h.total));
            for (bucket, count) in &h.buckets {
                push(
                    &mut out,
                    &format!("  ~{:<10} {:>8}", fmt_nanos(1u64 << bucket), count),
                );
            }
        }
        if let Some(h) = &self.heartbeat {
            section(&mut out, "final heartbeat:");
            push(&mut out, &render_heartbeat(h, "  "));
            push(&mut out, &format!("  heartbeats seen {}", self.heartbeats));
        }
        out
    }

    /// The report as one JSON object (the `--json` output).
    pub fn to_json(&self) -> String {
        let mut pairs = vec![
            ("source", JsonValue::Str(self.source.clone())),
            ("events", JsonValue::Uint(self.events)),
            ("malformed_lines", JsonValue::Uint(self.malformed_lines)),
            (
                "status",
                match &self.status {
                    Some(s) => JsonValue::Str(s.clone()),
                    None => JsonValue::Null,
                },
            ),
        ];
        if !self.meta.is_empty() {
            pairs.push((
                "meta",
                JsonValue::Object(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
                        .collect(),
                ),
            ));
        }
        pairs.push((
            "generations",
            JsonValue::Array(
                self.generations
                    .iter()
                    .map(|g| {
                        JsonValue::obj(vec![
                            ("generation", JsonValue::Uint(g.generation)),
                            ("best", JsonValue::Float(g.best_fitness)),
                            ("median", JsonValue::Float(g.median_fitness)),
                            ("mean", JsonValue::Float(g.mean_fitness)),
                            ("distinct", JsonValue::Uint(g.distinct_fitness)),
                        ])
                    })
                    .collect(),
            ),
        ));
        if !self.trials.is_empty() {
            pairs.push((
                "trials",
                JsonValue::Array(
                    self.trials
                        .iter()
                        .map(|(trial, cp)| {
                            let mut counters = cp.counters;
                            let mut fields = vec![
                                ("trial", JsonValue::Uint(*trial)),
                                ("generation", JsonValue::Uint(u64::from(cp.generation))),
                            ];
                            // The live counters under their checkpoint keys.
                            fields.extend(
                                counters
                                    .keyed()
                                    .into_iter()
                                    .filter_map(|(key, n)| Some((key, JsonValue::Uint(*n?)))),
                            );
                            fields.extend([
                                (
                                    "elapsed_nanos",
                                    JsonValue::Uint(cp.elapsed.as_nanos() as u64),
                                ),
                                ("busy_nanos", JsonValue::Uint(cp.busy.as_nanos() as u64)),
                                ("best", JsonValue::Float(cp.best.1)),
                                (
                                    "history",
                                    JsonValue::Array(
                                        cp.history.iter().map(|&f| JsonValue::Float(f)).collect(),
                                    ),
                                ),
                                ("found", JsonValue::Bool(cp.found.is_some())),
                            ]);
                            JsonValue::obj(fields)
                        })
                        .collect(),
                ),
            ));
        }
        let rows = |rows: &[PhaseEvent]| {
            JsonValue::Array(
                rows.iter()
                    .map(|p| {
                        JsonValue::obj(vec![
                            ("name", JsonValue::Str(p.name.clone())),
                            ("count", JsonValue::Uint(p.count)),
                            ("nanos", JsonValue::Uint(p.nanos)),
                        ])
                    })
                    .collect(),
            )
        };
        pairs.push(("phases", rows(&self.phases)));
        pairs.push(("spans", rows(&self.spans)));
        let counts = |table: &[(String, u64)]| {
            JsonValue::Object(
                table
                    .iter()
                    .map(|(k, n)| (k.clone(), JsonValue::Uint(*n)))
                    .collect(),
            )
        };
        pairs.push(("outcomes", counts(&self.outcomes)));
        pairs.push((
            "operators",
            JsonValue::Array(
                self.operators
                    .iter()
                    .map(|o| {
                        JsonValue::obj(vec![
                            ("op", JsonValue::Str(o.op.clone())),
                            ("proposed", JsonValue::Uint(o.proposed)),
                            ("survived", JsonValue::Uint(o.survived)),
                            ("plausible", JsonValue::Uint(o.plausible)),
                        ])
                    })
                    .collect(),
            ),
        ));
        pairs.extend([
            ("candidates", JsonValue::Uint(self.candidates)),
            ("cached", JsonValue::Uint(self.cached)),
            ("fitness_sum", JsonValue::Float(self.fitness_sum)),
            ("longest_patch", JsonValue::Uint(self.longest_patch)),
            ("fault_loc_passes", JsonValue::Uint(self.fault_loc_passes)),
            ("implicated_nodes", JsonValue::Uint(self.implicated_nodes)),
            ("sim_runs", JsonValue::Uint(self.sim_runs)),
            // The summed counters, in a `sim` event's shape.
            ("sim", Event::Sim(self.sim.clone()).to_value()),
        ]);
        pairs.push(("store_ops", counts(&self.store_ops)));
        pairs.push(("damaged_records", JsonValue::Uint(self.damaged_records)));
        pairs.push(("heartbeats", JsonValue::Uint(self.heartbeats)));
        if let Some(h) = &self.heartbeat {
            pairs.push(("heartbeat", Event::Heartbeat(h.clone()).to_value()));
        }
        if let Some(h) = &self.eval_latency {
            pairs.push(("eval_latency", Event::Histogram(h.clone()).to_value()));
        }
        JsonValue::obj(pairs).to_json()
    }
}

/// A telemetry sink that folds the live event stream into a
/// [`RunReport`] — the end-of-run report of `--metrics`. Each event
/// takes the same fold step as a trace line, through
/// [`Event::to_value`], so the report of a run equals `cirfix report`
/// over that run's trace.
#[derive(Debug)]
pub struct ReportSink {
    report: Mutex<RunReport>,
}

impl Default for ReportSink {
    /// A sink whose report starts as that of an empty trace.
    fn default() -> ReportSink {
        ReportSink {
            report: Mutex::new(RunReport::from_trace("")),
        }
    }
}

impl ReportSink {
    /// The report of everything recorded so far.
    pub fn report(&self) -> RunReport {
        self.report.lock().expect("report sink poisoned").clone()
    }
}

impl TelemetrySink for ReportSink {
    fn record(&self, event: &Event) {
        let value = event.to_value();
        self.report
            .lock()
            .expect("report sink poisoned")
            .fold(&value);
    }
}

/// Renders one heartbeat as indented lines (shared with `cirfix watch`).
pub fn render_heartbeat(h: &HeartbeatEvent, indent: &str) -> String {
    let throughput = if h.evals_per_s > 0.0 {
        format!(" ({} evals/s)", fmt_f(h.evals_per_s))
    } else {
        String::new()
    };
    format!(
        "{indent}status {} | generation {} | best {}\n\
         {indent}evals {}{} | cache hits {} | store hits {}\n\
         {indent}timeouts {} | panics {} | exhausted {}",
        h.status,
        h.generation,
        fmt_f(h.best_fitness),
        h.fitness_evals,
        throughput,
        h.cache_hits,
        h.store_hits,
        h.timeouts,
        h.panics,
        h.exhausted,
    )
}

/// Table-cell float rendering: four decimals (full precision lives in
/// the JSON output), non-finite values spelled like the trace writer's.
fn fmt_f4(f: f64) -> String {
    if f.is_finite() {
        format!("{f:.4}")
    } else {
        fmt_f(f)
    }
}

/// Deterministic float rendering: shortest round-trip form, with the
/// same non-finite spellings the trace writer uses.
fn fmt_f(f: f64) -> String {
    if f.is_nan() {
        "NaN".to_string()
    } else if f.is_infinite() {
        if f > 0.0 { "Infinity" } else { "-Infinity" }.to_string()
    } else {
        format!("{f:?}")
    }
}

/// Renders nanoseconds with a readable unit; exact below 1 µs, three
/// significant decimals above.
fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use cirfix_telemetry::CandidateEvent;

    use super::*;
    use crate::patch::Patch;
    use crate::session::Counters;

    const TRACE: &str = concat!(
        r#"{"type":"generation","generation":0,"best_fitness":0.5,"median_fitness":0.25,"mean_fitness":0.3,"distinct_fitness":4,"elites":0,"template_children":0,"mutation_children":0,"crossover_children":0}"#,
        "\n",
        r#"{"type":"candidate","patch_len":1,"growth_factor":1.0,"fitness":0.5,"cached":false,"op":"template"}"#,
        "\n",
        r#"{"type":"candidate","patch_len":2,"growth_factor":1.0,"fitness":1.0,"cached":false,"op":"mutation"}"#,
        "\n",
        r#"{"type":"candidate","patch_len":2,"growth_factor":1.0,"fitness":"NaN","cached":true,"op":"mutation"}"#,
        "\n",
        r#"{"type":"eval_outcome","kind":"ok","error":""}"#,
        "\n",
        r#"{"type":"eval_outcome","kind":"timeout","error":"budget"}"#,
        "\n",
        r#"{"type":"phase","name":"simulate","count":2,"nanos":2000}"#,
        "\n",
        r#"{"type":"phase","name":"simulate","count":1,"nanos":1000}"#,
        "\n",
        r#"{"type":"histogram","name":"eval_latency","total":3,"buckets":[[12,1],[10,2]]}"#,
        "\n",
        r#"{"type":"store","op":"hit","key":"","records":1}"#,
        "\n",
        r#"{"type":"store","op":"damage","key":"","records":3}"#,
        "\n",
        r#"{"type":"fault_loc","implicated_nodes":9,"mismatched_vars":1,"node_fraction":0.5}"#,
        "\n",
        r#"{"type":"fault_loc","implicated_nodes":7,"mismatched_vars":1,"node_fraction":0.25}"#,
        "\n",
        r#"{"type":"sim","active_events":50,"inactive_events":5,"nba_flushes":3,"timesteps":20,"process_resumptions":9,"peak_queue_depth":4}"#,
        "\n",
        r#"{"type":"sim","active_events":10,"inactive_events":0,"nba_flushes":1,"timesteps":5,"process_resumptions":2,"peak_queue_depth":6}"#,
        "\n",
        r#"{"type":"span","name":"repair","nanos":2500000}"#,
        "\n",
        r#"{"type":"span","name":"repair","nanos":1500000}"#,
        "\n",
        r#"{"type":"heartbeat","status":"search","generation":0,"best_fitness":0.5,"fitness_evals":2,"cache_hits":1,"store_hits":1,"timeouts":1,"panics":0,"exhausted":0,"evals_per_s":0.0}"#,
        "\n",
        r#"{"type":"heartbeat","status":"done","generation":1,"best_fitness":1.0,"fitness_evals":3,"cache_hits":1,"store_hits":1,"timeouts":1,"panics":0,"exhausted":0,"evals_per_s":0.0}"#,
        "\n",
    );

    #[test]
    fn folds_a_trace() {
        let r = RunReport::from_trace(TRACE);
        assert_eq!(r.events, 19);
        assert_eq!(r.generations.len(), 1);
        assert_eq!(r.candidates, 3);
        assert_eq!(r.cached, 1);
        assert!(r.fitness_sum.is_nan(), "the NaN candidate poisons the sum");
        assert_eq!(r.longest_patch, 2);
        assert_eq!(r.outcomes, vec![("ok".into(), 1), ("timeout".into(), 1)]);
        let sim = &r.phases[0];
        assert_eq!(
            (sim.name.as_str(), sim.count, sim.nanos),
            ("simulate", 3, 3000)
        );
        let mutation = r.operators.iter().find(|o| o.op == "mutation").unwrap();
        // The NaN candidate is proposed but neither survives nor is
        // plausible.
        assert_eq!(
            (mutation.proposed, mutation.survived, mutation.plausible),
            (2, 1, 1)
        );
        assert_eq!(r.store_ops, vec![("hit".into(), 1), ("damage".into(), 1)]);
        // Buckets merge into bucket order whatever order they arrive in.
        let latency = r.eval_latency.as_ref().expect("a histogram");
        assert_eq!(
            (latency.total, &latency.buckets[..]),
            (3, &[(10, 2), (12, 1)][..])
        );
        assert_eq!(r.status.as_deref(), Some("done"));
        assert_eq!(r.heartbeat.as_ref().unwrap().fitness_evals, 3);
        // Summed spans and simulator effort, the last pass's implicated
        // nodes, the deepest queue.
        let rendered = r.render();
        for line in [
            "  passes 2 | implicated nodes (last pass) 7",
            "  repair            2 x 4.000ms",
            "  runs 2 | events processed 65 | timesteps 25 | NBA flushes 4 | peak queue depth 6",
            "  mean candidate fitness NaN | longest patch 2",
            "  damaged records         3",
            "  heartbeats seen 2",
        ] {
            assert!(
                rendered.contains(&format!("{line}\n")),
                "{line}\n{rendered}"
            );
        }
    }

    #[test]
    fn report_is_deterministic_and_json_parses() {
        let r = RunReport::from_trace(TRACE);
        assert_eq!(r.render(), RunReport::from_trace(TRACE).render());
        let json = r.to_json();
        let parsed = parse_json(&json).expect("report JSON parses");
        assert_eq!(field_u64(&parsed, "candidates"), Some(3));
        assert_eq!(field_u64(&parsed, "sim_runs"), Some(2));
        assert!(json.contains("\"generations\""));
    }

    #[test]
    fn report_sink_folds_live_events_like_their_trace() {
        let events = [
            Event::Candidate(CandidateEvent {
                patch_len: 3,
                fitness: 0.5,
                cached: true,
                ..CandidateEvent::default()
            }),
            Event::Sim(SimStats {
                active_events: 100,
                ..SimStats::default()
            }),
        ];
        let sink = ReportSink::default();
        let mut trace = String::new();
        for e in &events {
            sink.record(e);
            trace += &format!("{}\n", e.to_json());
        }
        let live = sink.report();
        assert_eq!(live, RunReport::from_trace(&trace));
        assert_eq!((live.candidates, live.sim_runs), (1, 1));
    }

    #[test]
    fn bad_lines_are_skipped_and_counted() {
        let torn = concat!(
            r#"{"type":"phase","name":"simulate","count":1,"nanos":500}"#,
            "\n",
            "not json\n",
            r#"{"type":"heartbeat","status":"done","generation":0,"best_fitness":1.0,"fitness_evals":1,"cache_hits":0,"store_hits":0,"rejected_static":0,"timeouts":0,"panics":0,"exhausted":0,"evals_per_s":0.0}"#,
            "\n",
            // A truncated tail, as left by a writer killed mid-line.
            r#"{"type":"heartbeat","status":"don"#,
            "\n",
        );
        let r = RunReport::from_trace(torn);
        assert_eq!(r.malformed_lines, 2);
        assert_eq!(r.events, 2, "valid lines still counted");
        assert_eq!(r.status.as_deref(), Some("done"));
        let rendered = r.render();
        assert!(
            rendered.contains("malformed lines skipped: 2"),
            "{rendered}"
        );
        let json = r.to_json();
        let parsed = parse_json(&json).expect("report JSON parses");
        assert_eq!(field_u64(&parsed, "malformed_lines"), Some(2));
        // A clean trace reports zero and stays quiet in the rendering.
        let clean = RunReport::from_trace(TRACE);
        assert_eq!(clean.malformed_lines, 0);
        assert!(!clean.render().contains("malformed"));
    }

    #[test]
    fn unknown_event_types_are_ignored() {
        let r = RunReport::from_trace("{\"type\":\"future_thing\",\"x\":1}\n");
        assert_eq!(r.events, 1);
        assert_eq!(r.candidates, 0);
    }

    #[test]
    fn folds_a_session() {
        let checkpoint = |generation, evals, history: Vec<f64>| Checkpoint {
            generation,
            rng: [1, 2, 3, 4],
            counters: Counters {
                evals,
                cache_hits: 4,
                store_hits: 1,
                ..Counters::default()
            },
            elapsed: Duration::from_nanos(9000),
            busy: Duration::from_nanos(17000),
            best: (Patch::empty(), history[history.len() - 1]),
            history,
            improvement_steps: Vec::new(),
            population: Vec::new(),
            found: Some(Patch::empty()).filter(|_| generation == 2),
        };
        let last = checkpoint(2, 20, vec![0.5, 1.0]);
        let mut records: Vec<JsonValue> = [
            r#"{"type":"meta","scenario":"ab","session":"cd","trials":2,"seed":7,"popn_size":20,"max_generations":4}"#,
            r#"{"type":"trial","trial":0,"totals":{}}"#,
            // A checkpoint the session codec rejects: no RNG state.
            r#"{"type":"checkpoint","trial":1,"generation":0}"#,
            r#"{"type":"complete","status":"plausible"}"#,
        ]
        .iter()
        .map(|s| parse_json(s).expect("record parses"))
        .collect();
        records.splice(
            2..2,
            [checkpoint(1, 10, vec![0.5]).to_json(0), last.to_json(0)],
        );
        let r = RunReport::from_session(&records);
        assert_eq!(r.source, "session");
        assert_eq!(r.status.as_deref(), Some("plausible"));
        assert_eq!(r.malformed_lines, 1, "the rejected checkpoint");
        assert_eq!(r.trials, vec![(0, last)], "last checkpoint per trial wins");
        assert!(r.meta.iter().any(|(k, v)| k == "seed" && v == "7"));
        assert_eq!(r.candidates, 20 + 4 + 1);
        let rendered = r.render();
        assert!(
            rendered.contains("trial 0 (generation 2, best 1.0, plausible):"),
            "{rendered}"
        );
        assert!(
            rendered.contains("best by gen: 0.5000 1.0000"),
            "{rendered}"
        );
    }
}
