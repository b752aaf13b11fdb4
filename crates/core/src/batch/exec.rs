//! The sweep engine: a work-stealing worker pool executing a
//! [`SuitePlan`]'s cells, streaming [`SuiteEvent`]s and journaling finished
//! cells.
//!
//! ## Threading model
//!
//! BDD managers are thread-confined, so a cell is the unit of parallelism:
//! each worker thread builds a *fresh* `LatchSplitProblem` (fresh manager)
//! for every cell it runs, exactly like the paper's standalone runs — which
//! is also what makes results independent of the worker count. Cell ids are
//! seeded round-robin into one deque per worker; a worker pops from the
//! front of its own deque and steals from the back of its neighbours' when
//! empty.
//!
//! ## Budget → per-cell deadline
//!
//! A global wall-clock budget `B` fixes the suite deadline `D = start + B`.
//! Every cell's `Control` carries `D` as its absolute deadline (fanned out
//! together with the shared `CancelToken`), and the solver session combines
//! it with the configuration's own relative `time_limit` — whichever fires
//! first. A cell popped *after* `D` is not attempted at all and reports
//! `CNC: timeout` immediately, so an exhausted budget drains the queue
//! quickly instead of starting doomed solves.
//!
//! ## Journal discipline
//!
//! Finished cells are appended to the journal in completion order, one JSON
//! line each, flushed per line. Cells that were not given a **fair
//! chance** — cancelled cells, cells the global budget pre-empted, and
//! timeouts where the cell ran for less than its own configured
//! `time_limit` (i.e. the budget, not the config, cut it off) — are *not*
//! journaled, so `--resume` retries exactly them; any such cell also marks
//! [`SuiteReport::cancelled`]. The final report lists all cells in plan
//! order regardless of how workers interleaved.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::batch::store::{JournalStore, LocalFileStore};
use crate::batch::{Cell, CellOutcome, CellReport, KernelSample, SuiteError, SuitePlan};
use crate::equation::LatchSplitProblem;
use crate::solver::{CancelToken, CncReason, Control, Outcome, Solution, SolveEvent, SolverKind};

/// A boxed sweep-event callback (the form observers travel in between the
/// builder and the engine).
pub type BoxedSuiteObserver = Box<dyn FnMut(&SuiteEvent)>;

/// A shared solved-cell callback: `(cell id, signature, solution)`, invoked
/// **on the worker thread that solved the cell**, while the solution (and
/// its thread-confined BDD manager) is still alive — the only moment the
/// full solution exists; the report keeps only its counters.
pub type SolutionHook = Arc<dyn Fn(usize, &str, &Solution) + Send + Sync>;

/// Execution knobs of one [`SuitePlan::execute`] call.
pub struct SuiteOptions {
    jobs: usize,
    budget: Option<Duration>,
    store: Option<Box<dyn JournalStore>>,
    resume: bool,
    token: CancelToken,
    observer: Option<BoxedSuiteObserver>,
    on_solution: Option<SolutionHook>,
    trace: Option<(u64, u64)>,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            jobs: 1,
            budget: None,
            store: None,
            resume: false,
            token: CancelToken::new(),
            observer: None,
            on_solution: None,
            trace: None,
        }
    }
}

impl std::fmt::Debug for SuiteOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuiteOptions")
            .field("jobs", &self.jobs)
            .field("budget", &self.budget)
            .field("store", &self.store.as_ref().map(|s| s.describe()))
            .field("resume", &self.resume)
            .field("observer", &self.observer.is_some())
            .field("on_solution", &self.on_solution.is_some())
            .field("trace", &self.trace.map(|(t, _)| langeq_obs::fmt_id(t)))
            .finish()
    }
}

impl SuiteOptions {
    /// Defaults: one worker, no budget, no journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker threads (`0` = all available cores).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Global wall-clock budget; derives every cell's absolute deadline
    /// (`None` clears it).
    pub fn budget(mut self, budget: impl Into<Option<Duration>>) -> Self {
        self.budget = budget.into();
        self
    }

    /// Journal file to append finished cells to (JSONL) — shorthand for
    /// [`store`](Self::store) with a [`LocalFileStore`].
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(Box::new(LocalFileStore::new(path.into())));
        self
    }

    /// Journal store to load resumed cells from and append finished cells
    /// to — any [`JournalStore`], e.g. a fleet-shared
    /// [`SharedDirStore`](crate::batch::store::SharedDirStore).
    pub fn store(mut self, store: impl JournalStore + 'static) -> Self {
        self.store = Some(Box::new(store));
        self
    }

    /// Resume from the journal: cells already recorded there (matched by
    /// instance and config name) are skipped, not re-solved.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Registers a solved-cell hook, called with `(cell id, signature,
    /// solution)` on the worker thread that solved the cell — the only
    /// moment the full [`Solution`] (automata and all) is alive; the
    /// journaled report keeps only its counters. The serve layer uses this
    /// to snapshot strategies for the fleet cache.
    pub fn on_solution(
        mut self,
        hook: impl Fn(usize, &str, &Solution) + Send + Sync + 'static,
    ) -> Self {
        self.on_solution = Some(Arc::new(hook));
        self
    }

    /// Attaches a cancellation token; it is fanned out to every cell, so
    /// one `cancel()` (e.g. from a Ctrl-C handler) drains all workers.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.token = token;
        self
    }

    /// Attaches an observability trace context `(trace id, parent span id)`.
    /// Every worker thread installs it before running cells, so the solver
    /// phase spans (`compile`, `fixpoint`, `extract`, …) land in the trace's
    /// ring buffers and each [`CellReport`] is stamped with the trace id.
    /// Without it (the default) span creation stays a no-op.
    pub fn trace(mut self, trace: u64, parent: u64) -> Self {
        self.trace = Some((trace, parent));
        self
    }

    /// Registers a progress observer. Events are delivered on the calling
    /// thread, in completion order.
    pub fn on_event(mut self, observer: impl FnMut(&SuiteEvent) + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }
}

/// A progress event of a running sweep, delivered on the thread that called
/// [`SuitePlan::execute`].
#[derive(Debug, Clone)]
pub enum SuiteEvent {
    /// The sweep started. `pending` excludes resumed cells.
    Started {
        /// Total cells of the plan.
        cells: usize,
        /// Cells to be run in this execution (not resumed).
        pending: usize,
        /// Worker threads about to start.
        jobs: usize,
    },
    /// A journaled cell was skipped (resume).
    CellSkipped {
        /// Cell id.
        cell: usize,
        /// Instance name.
        instance: String,
        /// Config name.
        config: String,
    },
    /// A worker started a cell.
    CellStarted {
        /// Cell id.
        cell: usize,
        /// Instance name.
        instance: String,
        /// Config name.
        config: String,
        /// Worker index running it.
        worker: usize,
    },
    /// A periodic kernel-stats snapshot of a *running* cell (throttled; the
    /// last snapshot is delivered in the finished cell's
    /// [`CellReport::kernel`]). Long-lived consumers — the serve layer's
    /// per-job progress endpoint — use this to show live solve health.
    CellSample {
        /// Cell id.
        cell: usize,
        /// Instance name.
        instance: String,
        /// Config name.
        config: String,
        /// The latest kernel cache/table counters.
        sample: KernelSample,
    },
    /// A cell finished (in completion, not plan, order).
    CellFinished {
        /// The finished cell's report.
        report: CellReport,
    },
    /// The sweep finished. `solved + cnc + failed + retryable` partitions
    /// the plan's cells; `resumed` counts provenance (resumed cells appear
    /// in `solved`/`cnc`/`failed` too).
    Finished {
        /// Cells that solved.
        solved: usize,
        /// Cells with a fair could-not-complete result (their own limits).
        cnc: usize,
        /// Cells that failed to start.
        failed: usize,
        /// Cells denied their fair chance (cancelled or budget-starved) —
        /// exactly the cells a `--resume` run will retry.
        retryable: usize,
        /// Cells skipped because the journal already had them.
        resumed: usize,
    },
}

/// The aggregated result of a sweep: one report per cell, in deterministic
/// plan order (instance-major), independent of worker interleaving.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// One report per cell, ordered by cell id.
    pub cells: Vec<CellReport>,
    /// Wall-clock time of the whole execution.
    pub duration: Duration,
    /// Worker threads used.
    pub jobs: usize,
    /// True when any cell was denied its fair chance — the sweep was
    /// cancelled or ran out of budget — so a rerun with resume has work
    /// left ([`retryable_cells`](Self::retryable_cells) counts it).
    pub cancelled: bool,
}

impl SuiteReport {
    /// The report of one (instance, config) cell.
    pub fn get(&self, instance: &str, config: &str) -> Option<&CellReport> {
        self.cells
            .iter()
            .find(|c| c.instance == instance && c.config == config)
    }

    /// Cells matching a status predicate.
    fn count(&self, pred: impl Fn(&CellReport) -> bool) -> usize {
        self.cells.iter().filter(|c| pred(c)).count()
    }

    /// Cells that solved.
    pub fn solved(&self) -> usize {
        self.count(CellReport::solved)
    }

    /// Cells skipped via resume.
    pub fn resumed(&self) -> usize {
        self.count(|c| c.resumed)
    }

    /// Cells whose outcome is `Cancelled` (the token fired). Budget-starved
    /// cells report as timeouts instead — count what a resume will redo
    /// with [`retryable_cells`](Self::retryable_cells).
    pub fn cancelled_cells(&self) -> usize {
        self.count(|c| matches!(c.outcome, CellOutcome::Cnc(CncReason::Cancelled)))
    }

    /// Cells denied their fair chance (cancelled or budget-starved) —
    /// exactly the cells a `--resume` run will retry.
    pub fn retryable_cells(&self) -> usize {
        self.count(|c| c.retryable)
    }

    /// A fixed-width text table in plan order (the Table-1 shape), with
    /// per-cell kernel columns: peak live BDD nodes and the computed-cache
    /// hit rate of the cell's (fresh) manager.
    pub fn format_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:<12} {:<10} {:>8} {:>8} {:>10} {:>6} {:>8}",
            "Instance", "Config", "Flow", "Status", "CSF", "Subset", "PeakNodes", "Hit%", "Time,s"
        );
        for c in &self.cells {
            let (csf, subset, peak) = match c.stats() {
                Some(s) => (
                    s.csf_states.to_string(),
                    s.subset_states.to_string(),
                    s.peak_live_nodes.to_string(),
                ),
                None => ("-".into(), "-".into(), "-".into()),
            };
            let hit = match &c.kernel {
                Some(k) => format!("{:.1}", 100.0 * k.hit_rate()),
                None => "-".into(),
            };
            let time = if c.resumed {
                "journal".to_string()
            } else {
                format!("{:.2}", c.duration.as_secs_f64())
            };
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:<12} {:<10} {:>8} {:>8} {:>10} {:>6} {:>8}",
                c.instance,
                c.config,
                c.kind.to_string(),
                c.status(),
                csf,
                subset,
                peak,
                hit,
                time
            );
        }
        let _ = writeln!(
            out,
            "{} cells: {} solved, {} cnc, {} retryable, {} resumed ({:.2}s, {} workers)",
            self.cells.len(),
            self.solved(),
            self.count(|c| matches!(c.outcome, CellOutcome::Cnc(_)) && !c.retryable),
            self.retryable_cells(),
            self.resumed(),
            self.duration.as_secs_f64(),
            self.jobs
        );
        out
    }
}

/// What a worker sends back to the coordinating thread.
enum WorkerMsg {
    Started {
        cell: usize,
        instance: String,
        config: String,
        worker: usize,
    },
    Sample {
        cell: usize,
        instance: String,
        config: String,
        sample: KernelSample,
    },
    Finished {
        report: CellReport,
    },
}

/// Minimum interval between two [`SuiteEvent::CellSample`] deliveries of
/// one cell (the per-subset-state sampling underneath is far denser).
const SAMPLE_PERIOD: Duration = Duration::from_millis(100);

/// Locks a work queue tolerating poison: a worker that panicked between
/// `pop` and release leaves the deque structurally sound, and the other
/// workers must keep draining.
fn lock_queue(q: &Mutex<VecDeque<usize>>) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
    q.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Pops the next cell for worker `w`: front of its own deque, else steal
/// from the back of the first non-empty neighbour.
fn next_cell(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(id) = lock_queue(&queues[w]).pop_front() {
        return Some(id);
    }
    for k in 1..queues.len() {
        let victim = (w + k) % queues.len();
        if let Some(id) = lock_queue(&queues[victim]).pop_back() {
            return Some(id);
        }
    }
    None
}

/// Runs one cell on the current worker thread. The report's `retryable`
/// flag records whether the cell was denied its **fair chance** — an
/// outcome that is an artifact of the suite being cancelled or
/// budget-starved rather than a real, reproducible result. Retryable cells
/// are not journaled (so `--resume` retries exactly them), and any one of
/// them marks the whole suite as incomplete.
fn run_cell(
    cell: &Cell<'_>,
    sig: String,
    token: &CancelToken,
    deadline: Option<Instant>,
    budget: Option<Duration>,
    on_solution: Option<&SolutionHook>,
    mut on_sample: impl FnMut(KernelSample) + 'static,
) -> CellReport {
    let t0 = Instant::now();
    // No-ops (and cost one TLS read) unless the worker installed a trace
    // context; under one, the cell span groups the solver's phase spans and
    // the report records the trace id for journal correlation.
    let mut cell_span = langeq_obs::span!("cell");
    cell_span.field("instance", &cell.instance.name);
    cell_span.field("config", &cell.config.name);
    let trace = langeq_obs::current().map(|(t, _)| langeq_obs::fmt_id(t));
    // The last kernel snapshot the solve emitted — shared with the progress
    // observer below, harvested into the report after the solve.
    let last_sample: std::rc::Rc<std::cell::Cell<Option<KernelSample>>> = Default::default();
    let (outcome, fair) = if token.is_cancelled() {
        // Cancellation drain: hand back the cell without solving.
        (CellOutcome::Cnc(CncReason::Cancelled), false)
    } else if deadline.is_some_and(|d| Instant::now() >= d) {
        // The global budget expired before this cell started; report the
        // budget as the exceeded limit.
        (
            CellOutcome::Cnc(CncReason::Timeout(budget.unwrap_or_default())),
            false,
        )
    } else {
        let problem =
            LatchSplitProblem::new(&cell.instance.network, &cell.instance.unknown_latches);
        match problem {
            Err(e) => (
                CellOutcome::Failed(format!("latch split failed: {e}")),
                true,
            ),
            Ok(problem) => {
                let solver = cell.config.solver();
                let sink = std::rc::Rc::clone(&last_sample);
                let mut last_sent: Option<Instant> = None;
                let mut ctrl = Control::new().with_token(token.clone()).with_observer(
                    move |event: &SolveEvent| {
                        if let SolveEvent::Kernel(stats) = event {
                            let sample = KernelSample::from(stats);
                            sink.set(Some(sample));
                            let now = Instant::now();
                            if last_sent.is_none_or(|t| now.duration_since(t) >= SAMPLE_PERIOD) {
                                last_sent = Some(now);
                                on_sample(sample);
                            }
                        }
                    },
                );
                if let Some(d) = deadline {
                    ctrl = ctrl.with_deadline(d);
                }
                // The fairness clock starts where the solver session's
                // does — after problem construction — so it measures the
                // time the *solve* got, not the whole cell.
                let solve_t0 = Instant::now();
                match solver.solve(&problem.equation, &ctrl) {
                    Outcome::Solved(sol) => {
                        // The solution's BDD manager dies with this scope;
                        // hand it to the hook while it is still alive.
                        if let Some(hook) = on_solution {
                            hook(cell.id, &sig, &sol);
                        }
                        (
                            CellOutcome::Solved(crate::batch::CellStats {
                                csf_states: sol.csf.num_states(),
                                subset_states: sol.stats.subset_states,
                                transitions: sol.stats.transitions,
                                images: sol.stats.images,
                                peak_live_nodes: sol.stats.kernel.peak_live_nodes,
                            }),
                            true,
                        )
                    }
                    Outcome::Cnc(CncReason::Cancelled) => {
                        // The token fired mid-solve.
                        (CellOutcome::Cnc(CncReason::Cancelled), false)
                    }
                    Outcome::Cnc(CncReason::Timeout(d)) => {
                        // Fair only if the solve actually consumed the
                        // cell's own configured time limit; anything less
                        // means the *global* deadline cut it off, and a
                        // rerun with a fresh budget deserves to retry it.
                        let fair = cell
                            .config
                            .limits
                            .time_limit
                            .is_some_and(|limit| solve_t0.elapsed() >= limit);
                        (CellOutcome::Cnc(CncReason::Timeout(d)), fair)
                    }
                    Outcome::Cnc(reason) => (CellOutcome::Cnc(reason), true),
                }
            }
        }
    };
    drop(cell_span);
    CellReport {
        cell: cell.id,
        instance: cell.instance.name.clone(),
        config: cell.config.name.clone(),
        kind: cell.config.kind,
        sig,
        outcome,
        kernel: last_sample.get(),
        duration: t0.elapsed(),
        resumed: false,
        retryable: !fair,
        trace,
    }
}

pub(crate) fn execute(plan: &SuitePlan, mut opts: SuiteOptions) -> Result<SuiteReport, SuiteError> {
    plan.validate()?;
    let t0 = Instant::now();
    let ncells = plan.num_cells();

    // Signatures, computed once up front: the network fingerprint (a
    // clone + BLIF serialization) is per *instance*, then shared by all of
    // that instance's cells; the resume match and the workers both read
    // from this table instead of re-deriving per use.
    let fingerprints: Vec<String> = plan
        .instances()
        .iter()
        .map(|i| crate::sig::network_fingerprint(&i.network))
        .collect();
    let nconfigs = plan.configs().len().max(1);
    let sigs: Vec<String> = plan
        .cells()
        .map(|c| {
            crate::sig::cell_signature_with(&fingerprints[c.id / nconfigs], c.instance, c.config)
        })
        .collect();

    // The store lives on the coordinator thread for the whole execution:
    // resumed cells are loaded from it up front, finished cells are
    // appended to it in completion order.
    let mut store = opts.store.take();

    // Resume: collect journaled cells, keyed by (instance, config) name so
    // a reordered manifest still matches. For duplicate keys (a cell
    // journaled more than once) the file-order-last, i.e. most recent,
    // record wins — and for a shared store, records other writers appended
    // count exactly like our own.
    let mut done: HashMap<(String, String), CellReport> = HashMap::new();
    if opts.resume {
        if let Some(store) = &mut store {
            for report in store.load()? {
                done.insert((report.instance.clone(), report.config.clone()), report);
            }
        }
    }

    let mut reports: Vec<Option<CellReport>> = vec![None; ncells];
    let mut skipped: Vec<(usize, String, String)> = Vec::new();
    let mut pending: Vec<usize> = Vec::new();
    for cell in plan.cells() {
        let key = (cell.instance.name.clone(), cell.config.name.clone());
        match done.get(&key) {
            // Reuse a journaled result only when the cell's parameter
            // signature matches: an edited split/flow/limit (or a swapped
            // network) behind the same names re-runs the cell rather than
            // replaying a stale result.
            Some(journaled) if journaled.sig == sigs[cell.id] => {
                let mut report = journaled.clone();
                // The journal may stem from a differently-ordered manifest;
                // trust the current plan's cell id and mark the provenance.
                // The duration stays as journaled (the original solve time).
                report.cell = cell.id;
                report.resumed = true;
                reports[cell.id] = Some(report);
                skipped.push((cell.id, key.0, key.1));
            }
            _ => pending.push(cell.id),
        }
    }

    let jobs = match opts.jobs {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .min(pending.len().max(1));

    let mut emit = |event: &SuiteEvent| {
        if let Some(obs) = &mut opts.observer {
            obs(event);
        }
    };
    emit(&SuiteEvent::Started {
        cells: ncells,
        pending: pending.len(),
        jobs,
    });
    for (cell, instance, config) in skipped {
        emit(&SuiteEvent::CellSkipped {
            cell,
            instance,
            config,
        });
    }

    // Seed the per-worker deques round-robin in plan order, so `--jobs 1`
    // runs cells exactly in plan order and stealing stays balanced.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, id) in pending.iter().enumerate() {
        lock_queue(&queues[i % jobs]).push_back(*id);
    }

    // A budget past `Instant`'s range leaves the suite without a deadline.
    let deadline = opts.budget.and_then(|b| t0.checked_add(b));
    let (tx, rx) = mpsc::channel::<WorkerMsg>();
    std::thread::scope(|scope| -> Result<(), SuiteError> {
        for w in 0..jobs {
            let tx = tx.clone();
            let token = opts.token.clone();
            let queues = &queues;
            let budget = opts.budget;
            let sigs = &sigs;
            let on_solution = opts.on_solution.clone();
            let trace = opts.trace;
            scope.spawn(move || {
                // Worker threads are fresh per execution, so the suite's
                // trace context (if any) is installed for the thread's whole
                // life; the guard retires the thread's spans on exit.
                let _trace_guard = trace.map(|(t, p)| langeq_obs::install(t, p));
                while let Some(id) = next_cell(queues, w) {
                    // Queues are seeded from plan indices; a vanished id
                    // can only mean a stale entry — skip it, don't die.
                    let Some(cell) = plan.cell(id) else {
                        continue;
                    };
                    let started = tx.send(WorkerMsg::Started {
                        cell: id,
                        instance: cell.instance.name.clone(),
                        config: cell.config.name.clone(),
                        worker: w,
                    });
                    if started.is_err() {
                        return; // coordinator gone; nothing left to report to
                    }
                    let on_sample = {
                        let tx = tx.clone();
                        let instance = cell.instance.name.clone();
                        let config = cell.config.name.clone();
                        move |sample| {
                            let _ = tx.send(WorkerMsg::Sample {
                                cell: id,
                                instance: instance.clone(),
                                config: config.clone(),
                                sample,
                            });
                        }
                    };
                    let report = run_cell(
                        &cell,
                        sigs[id].clone(),
                        &token,
                        deadline,
                        budget,
                        on_solution.as_ref(),
                        on_sample,
                    );
                    if tx.send(WorkerMsg::Finished { report }).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);

        // Coordinator loop (this thread): journal finished cells in
        // completion order, stream events. Ends when every worker exited.
        while let Ok(msg) = rx.recv() {
            match msg {
                WorkerMsg::Started {
                    cell,
                    instance,
                    config,
                    worker,
                } => emit(&SuiteEvent::CellStarted {
                    cell,
                    instance,
                    config,
                    worker,
                }),
                WorkerMsg::Sample {
                    cell,
                    instance,
                    config,
                    sample,
                } => emit(&SuiteEvent::CellSample {
                    cell,
                    instance,
                    config,
                    sample,
                }),
                WorkerMsg::Finished { report } => {
                    // Only fair results are journaled; retryable cells are
                    // left out so `--resume` solves them again.
                    if !report.retryable {
                        if let Some(store) = &mut store {
                            store.append(&report)?;
                        }
                    }
                    emit(&SuiteEvent::CellFinished {
                        report: report.clone(),
                    });
                    let id = report.cell;
                    reports[id] = Some(report);
                }
            }
        }
        Ok(())
    })?;

    let cells: Vec<CellReport> = reports
        .into_iter()
        .enumerate()
        .map(|(id, r)| {
            // An empty slot means a worker died before publishing — it
            // should be impossible, but one lost cell must cost a
            // retryable failure, not the whole suite.
            r.unwrap_or_else(|| CellReport {
                cell: id,
                instance: plan
                    .cell(id)
                    .map(|c| c.instance.name.clone())
                    .unwrap_or_default(),
                config: plan
                    .cell(id)
                    .map(|c| c.config.name.clone())
                    .unwrap_or_default(),
                kind: plan
                    .cell(id)
                    .map(|c| c.config.kind)
                    .unwrap_or(SolverKind::Partitioned),
                sig: sigs.get(id).cloned().unwrap_or_default(),
                outcome: CellOutcome::Failed("worker produced no report".to_string()),
                kernel: None,
                duration: Duration::ZERO,
                resumed: false,
                retryable: true,
                trace: None,
            })
        })
        .collect();
    let report = SuiteReport {
        duration: t0.elapsed(),
        jobs,
        cancelled: cells.iter().any(|c| c.retryable),
        cells,
    };
    emit(&SuiteEvent::Finished {
        solved: report.solved(),
        cnc: report.count(|c| matches!(c.outcome, CellOutcome::Cnc(_)) && !c.retryable),
        failed: report.count(|c| matches!(c.outcome, CellOutcome::Failed(_))),
        retryable: report.retryable_cells(),
        resumed: report.resumed(),
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{ConfigSpec, InstanceSpec};
    use crate::solver::{SolverKind, SolverLimits};
    use langeq_logic::gen;

    fn tiny_plan() -> SuitePlan {
        SuitePlan::new()
            .instance(InstanceSpec::new("fig3", gen::figure3(), vec![1]))
            .config(ConfigSpec::new("part", SolverKind::Partitioned))
            .config(ConfigSpec::new("mono", SolverKind::Monolithic))
    }

    #[test]
    fn empty_plan_executes_to_an_empty_report() {
        let report = SuitePlan::new().execute(SuiteOptions::new()).unwrap();
        assert!(report.cells.is_empty());
        assert!(!report.cancelled);
    }

    #[test]
    fn tiny_plan_solves_both_cells() {
        let report = tiny_plan().execute(SuiteOptions::new().jobs(2)).unwrap();
        assert_eq!(report.cells.len(), 2);
        assert!(report.cells.iter().all(|c| c.solved()));
        assert_eq!(report.solved(), 2);
        let table = report.format_table();
        assert!(table.contains("fig3"), "table:\n{table}");
        assert!(table.contains("2 solved"), "table:\n{table}");
    }

    #[test]
    fn invalid_split_reports_failed_not_panic() {
        let plan = SuitePlan::new()
            .instance(InstanceSpec::new("bad", gen::figure3(), vec![99]))
            .config(ConfigSpec::new("part", SolverKind::Partitioned));
        let report = plan.execute(SuiteOptions::new()).unwrap();
        assert!(matches!(report.cells[0].outcome, CellOutcome::Failed(_)));
    }

    #[test]
    fn zero_budget_starves_cells_without_journaling_them() {
        let path =
            std::env::temp_dir().join(format!("langeq-exec-budget-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let report = tiny_plan()
            .execute(SuiteOptions::new().budget(Duration::ZERO).journal(&path))
            .unwrap();
        assert!(report
            .cells
            .iter()
            .all(|c| matches!(c.outcome, CellOutcome::Cnc(CncReason::Timeout(_)))));
        // Budget-starved cells must not be journaled: resume retries them.
        // (The store creates the file lazily, so it may not even exist.)
        assert!(!path.exists(), "journal written: {path:?}");
        // …and budget exhaustion marks the suite incomplete.
        assert!(report.cancelled);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budget_cut_timeout_is_unfair_even_with_a_config_time_limit() {
        // The config allows an hour, but the 5 ms global budget cuts the
        // solve off mid-flight: the resulting Timeout is *not* a real
        // result for this config, so it must stay out of the journal and
        // mark the suite incomplete (a resume with a fresh budget retries).
        let path =
            std::env::temp_dir().join(format!("langeq-exec-midcut-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let plan = SuitePlan::new()
            .instance(InstanceSpec::new(
                "c8",
                gen::counter("c8", 8),
                (4..8).collect(),
            ))
            .config(
                ConfigSpec::new("part", SolverKind::Partitioned).limits(SolverLimits {
                    time_limit: Some(Duration::from_secs(3600)),
                    ..SolverLimits::default()
                }),
            );
        let report = plan
            .execute(
                SuiteOptions::new()
                    .budget(Duration::from_millis(5))
                    .journal(&path),
            )
            .unwrap();
        assert!(matches!(
            report.cells[0].outcome,
            CellOutcome::Cnc(CncReason::Timeout(_))
        ));
        assert!(report.cancelled, "budget cut marks the suite incomplete");
        assert!(!path.exists(), "journal written: {path:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_level_timeout_is_a_fair_journaled_result() {
        // A zero config time limit fires immediately — that is the cell's
        // own (deterministic) CNC result: journaled, suite complete.
        let path =
            std::env::temp_dir().join(format!("langeq-exec-cfgto-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let plan = SuitePlan::new()
            .instance(InstanceSpec::new("fig3", gen::figure3(), vec![1]))
            .config(
                ConfigSpec::new("part", SolverKind::Partitioned).limits(SolverLimits {
                    time_limit: Some(Duration::ZERO),
                    ..SolverLimits::default()
                }),
            );
        let report = plan.execute(SuiteOptions::new().journal(&path)).unwrap();
        assert!(matches!(
            report.cells[0].outcome,
            CellOutcome::Cnc(CncReason::Timeout(_))
        ));
        assert!(!report.cancelled, "a config timeout is a complete result");
        assert_eq!(crate::batch::journal::load_journal(&path).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pre_cancelled_token_drains_every_cell() {
        let token = CancelToken::new();
        token.cancel();
        let report = tiny_plan()
            .execute(SuiteOptions::new().jobs(2).cancel_token(token))
            .unwrap();
        assert!(report.cancelled);
        assert_eq!(report.cancelled_cells(), 2);
    }
}
