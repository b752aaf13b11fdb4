//! Batch sweeps: the second-tier **`Suite`** API over the [`Solver`] trait.
//!
//! The paper's evaluation (Table 1) is not one solve but a *sweep*: many
//! benchmark instances, each run under several solver configurations. This
//! module makes that a first-class, declarative object:
//!
//! * a [`SuitePlan`] enumerates **cells** = (problem instance ×
//!   configuration): [`InstanceSpec`] holds a network and its latch split,
//!   [`ConfigSpec`] a [`SolverKind`] plus options and limits;
//! * [`SuitePlan::execute`] runs the cells on a **work-stealing pool** of
//!   worker threads — BDD managers are thread-confined, so each worker
//!   builds a fresh [`LatchSplitProblem`](crate::LatchSplitProblem) per
//!   cell, while the `Send + Sync` [`CancelToken`](crate::CancelToken) is
//!   fanned out to every cell and a global wall-clock **budget** derives a
//!   per-cell deadline;
//! * progress streams as [`SuiteEvent`]s on the calling thread, and every
//!   finished cell is appended as one JSON line to a **journal** (via
//!   `langeq-report`), so a killed sweep resumed with
//!   [`SuiteOptions::resume`] skips the completed cells;
//! * the final [`SuiteReport`] lists cells in deterministic plan order, no
//!   matter how the workers interleaved.
//!
//! ```
//! use langeq_core::batch::{ConfigSpec, InstanceSpec, SuiteOptions, SuitePlan};
//! use langeq_core::SolverKind;
//! use langeq_logic::gen;
//!
//! let plan = SuitePlan::new()
//!     .instance(InstanceSpec::new("fig3", gen::figure3(), vec![1]))
//!     .config(ConfigSpec::new("part", SolverKind::Partitioned))
//!     .config(ConfigSpec::new("mono", SolverKind::Monolithic));
//! let report = plan.execute(SuiteOptions::new().jobs(2)).unwrap();
//! assert_eq!(report.cells.len(), 2);
//! assert!(report.cells.iter().all(|c| c.solved()));
//! ```

pub mod journal;
pub mod manifest;
pub mod store;

mod exec;

use std::time::Duration;

use langeq_bdd::{BddStats, ReorderPolicy};
use langeq_image::ImageOptions;
use langeq_logic::Network;

use crate::solver::{
    Algorithm1, CncReason, Monolithic, MonolithicOptions, Partitioned, PartitionedOptions, Solver,
    SolverKind, SolverLimits,
};

pub use exec::{BoxedSuiteObserver, SuiteEvent, SuiteOptions, SuiteReport};

/// One problem instance of a sweep: a sequential network plus the latch
/// split that defines the unknown component `X`.
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    /// Instance name — the journal key, unique within a plan.
    pub name: String,
    /// The network to split.
    pub network: Network,
    /// Latches assigned to the unknown component (the rest stay in `F`).
    pub unknown_latches: Vec<usize>,
}

impl InstanceSpec {
    /// A named instance.
    pub fn new(name: impl Into<String>, network: Network, unknown_latches: Vec<usize>) -> Self {
        InstanceSpec {
            name: name.into(),
            network,
            unknown_latches,
        }
    }
}

/// One solver configuration of a sweep: a flow plus its options and limits.
#[derive(Debug, Clone)]
pub struct ConfigSpec {
    /// Configuration name — the journal key, unique within a plan.
    pub name: String,
    /// Which flow to run.
    pub kind: SolverKind,
    /// §3.2 DCN trimming (partitioned flow only).
    pub trim_dcn: bool,
    /// Dynamic variable reordering armed for each of this configuration's
    /// cells (partitioned and monolithic flows). Part of the cell
    /// signature: reorder-on and reorder-off results are never conflated
    /// by batch resume or the serve cache.
    pub reorder: ReorderPolicy,
    /// Image-computation tuning (partitioned flow only).
    pub image: ImageOptions,
    /// Per-cell resource limits.
    pub limits: SolverLimits,
}

impl ConfigSpec {
    /// A configuration with default options for `kind`.
    pub fn new(name: impl Into<String>, kind: SolverKind) -> Self {
        ConfigSpec {
            name: name.into(),
            kind,
            trim_dcn: true,
            reorder: ReorderPolicy::None,
            image: ImageOptions::default(),
            limits: SolverLimits::default(),
        }
    }

    /// Replaces the resource limits.
    pub fn limits(mut self, limits: SolverLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Enables/disables DCN trimming (partitioned flow only).
    pub fn trim_dcn(mut self, on: bool) -> Self {
        self.trim_dcn = on;
        self
    }

    /// Sets the dynamic-reordering policy.
    pub fn reorder(mut self, policy: ReorderPolicy) -> Self {
        self.reorder = policy;
        self
    }

    /// The configured solver, type-erased (constructed per cell, inside the
    /// worker that runs it).
    pub fn solver(&self) -> Box<dyn Solver> {
        match self.kind {
            SolverKind::Partitioned => Box::new(Partitioned::new(PartitionedOptions {
                image: self.image,
                trim_dcn: self.trim_dcn,
                reorder: self.reorder,
                limits: self.limits,
            })),
            SolverKind::Monolithic => Box::new(Monolithic::new(MonolithicOptions {
                reorder: self.reorder,
                limits: self.limits,
            })),
            SolverKind::Algorithm1 => Box::new(Algorithm1::new(self.limits)),
        }
    }
}

/// A declarative sweep: every instance crossed with every configuration.
///
/// Cell ids are instance-major: cell `i * num_configs + j` runs instance
/// `i` under configuration `j` — the order of a Table-1 row scan. The same
/// order is the deterministic order of [`SuiteReport::cells`].
#[derive(Debug, Clone, Default)]
pub struct SuitePlan {
    instances: Vec<InstanceSpec>,
    configs: Vec<ConfigSpec>,
}

/// One cell of a plan: the (instance, configuration) pair behind a cell id.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    /// The cell id (`instance index × num_configs + config index`).
    pub id: usize,
    /// The instance to solve.
    pub instance: &'a InstanceSpec,
    /// The configuration to solve it under.
    pub config: &'a ConfigSpec,
}

impl Cell<'_> {
    /// The deterministic, content-addressed signature of everything that
    /// defines this cell's result: the network's content fingerprint and
    /// shape, the latch split, and the full solver configuration (see
    /// [`crate::sig::cell_signature`] — the same derivation keys the serve
    /// layer's result cache). Stored in every journal record and compared
    /// on resume, so editing a manifest's `split=`/`timeout=`/`flow=` (or
    /// swapping the network behind an instance name) between a kill and a
    /// `--resume` re-runs the cell instead of replaying a stale result.
    pub fn signature(&self) -> String {
        crate::sig::cell_signature(self.instance, self.config)
    }
}

impl SuitePlan {
    /// An empty plan.
    pub fn new() -> Self {
        SuitePlan::default()
    }

    /// Adds a problem instance.
    pub fn instance(mut self, spec: InstanceSpec) -> Self {
        self.instances.push(spec);
        self
    }

    /// Adds a solver configuration.
    pub fn config(mut self, spec: ConfigSpec) -> Self {
        self.configs.push(spec);
        self
    }

    /// The plan's instances, in insertion order.
    pub fn instances(&self) -> &[InstanceSpec] {
        &self.instances
    }

    /// The plan's configurations, in insertion order.
    pub fn configs(&self) -> &[ConfigSpec] {
        &self.configs
    }

    /// Number of cells (`instances × configs`).
    pub fn num_cells(&self) -> usize {
        self.instances.len() * self.configs.len()
    }

    /// The cell behind an id, if in range.
    pub fn cell(&self, id: usize) -> Option<Cell<'_>> {
        let nc = self.configs.len();
        if nc == 0 || id >= self.num_cells() {
            return None;
        }
        Some(Cell {
            id,
            instance: &self.instances[id / nc],
            config: &self.configs[id % nc],
        })
    }

    /// All cells in deterministic (instance-major) order.
    pub fn cells(&self) -> impl Iterator<Item = Cell<'_>> {
        (0..self.num_cells()).filter_map(|id| self.cell(id))
    }

    /// Checks the journal-key invariants: instance and configuration names
    /// must be unique (they key the journal's resume matching).
    pub fn validate(&self) -> Result<(), SuiteError> {
        let instance_names: Vec<&String> = self.instances.iter().map(|i| &i.name).collect();
        let config_names: Vec<&String> = self.configs.iter().map(|c| &c.name).collect();
        for (what, names) in [("instance", instance_names), ("config", config_names)] {
            let mut seen = std::collections::HashSet::new();
            for name in names {
                if !seen.insert(name) {
                    return Err(SuiteError::Plan(format!("duplicate {what} name `{name}`")));
                }
            }
        }
        Ok(())
    }

    /// Runs the sweep. See [`SuiteOptions`] for the execution knobs
    /// (workers, budget, journal, resume, cancellation, events).
    pub fn execute(&self, opts: SuiteOptions) -> Result<SuiteReport, SuiteError> {
        exec::execute(self, opts)
    }
}

/// Per-cell solver counters (the deterministic half of a report — every
/// field is reproducible for a fresh manager, unlike the timing fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellStats {
    /// States of the computed CSF.
    pub csf_states: usize,
    /// Subset states discovered during determinization.
    pub subset_states: usize,
    /// Transitions of the most general solution.
    pub transitions: usize,
    /// Image computations performed.
    pub images: usize,
    /// Peak live BDD nodes of the cell's (fresh) manager.
    pub peak_live_nodes: usize,
}

/// The journal's record of a cell's BDD-kernel cache/table counters: the
/// eight deterministic counters of the last
/// [`SolveEvent::Kernel`](crate::SolveEvent) snapshot the solve emitted.
/// That snapshot comes from the solve's last control point — for the
/// subset-construction flows, before the last explored state's images and
/// the CSF extraction — so it undercounts the end of the run. Captured for
/// *every* attempted cell, including CNC ones, so a sweep's journal records
/// how hard the kernel worked even on the cells that did not finish.
///
/// All counters are cumulative over the cell's manager, and — because every
/// cell runs on a fresh, thread-confined manager — deterministic for a
/// given cell regardless of worker count. That is why this is a projection
/// and not the whole [`BddStats`]: a resumed report must equal the fresh
/// one, and fields such as `reorder_time` are wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelSample {
    /// Computed-cache lookups.
    pub cache_lookups: u64,
    /// Computed-cache hits.
    pub cache_hits: u64,
    /// Cache entries that survived GC sweeps.
    pub cache_survived: u64,
    /// Cache entries examined by GC sweeps.
    pub cache_swept: u64,
    /// Computed-cache insertions.
    pub cache_puts: u64,
    /// Computed-cache conflict evictions (insertions overwriting a live
    /// entry under a different key — the task cache's "leak").
    pub cache_evictions: u64,
    /// Unique-table probe steps.
    pub unique_probes: u64,
    /// Unique-table lookups.
    pub unique_lookups: u64,
}

impl From<&BddStats> for KernelSample {
    fn from(stats: &BddStats) -> Self {
        KernelSample {
            cache_lookups: stats.cache_lookups,
            cache_hits: stats.cache_hits,
            cache_survived: stats.cache_surviving_entries,
            cache_swept: stats.cache_swept_entries,
            cache_puts: stats.cache_puts,
            cache_evictions: stats.cache_evictions,
            unique_probes: stats.unique_probes,
            unique_lookups: stats.unique_lookups,
        }
    }
}

impl KernelSample {
    /// Computed-cache hit rate in `[0, 1]` (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }
}

/// How one cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// Solved within the limits.
    Solved(CellStats),
    /// Could not complete (the paper's CNC), including cooperative
    /// cancellation.
    Cnc(CncReason),
    /// The cell could not even start (e.g. the latch split is invalid for
    /// the network) — a plan error, journaled so resume does not retry it.
    Failed(String),
}

/// The record of one finished cell — the unit the journal stores and the
/// [`SuiteReport`] aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell id within the plan (instance-major).
    pub cell: usize,
    /// Instance name.
    pub instance: String,
    /// Configuration name.
    pub config: String,
    /// The flow that ran.
    pub kind: SolverKind,
    /// The cell's parameter signature ([`Cell::signature`]) — the resume
    /// guard.
    pub sig: String,
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// The kernel cache/table counters of the cell's last control point
    /// (`None` for cells that were never attempted — drained,
    /// budget-starved — and for records journaled before this field
    /// existed).
    pub kernel: Option<KernelSample>,
    /// Wall-clock time of the cell (for resumed cells: the journaled
    /// original solve time).
    pub duration: Duration,
    /// True when this report was loaded from a journal instead of solved in
    /// this run.
    pub resumed: bool,
    /// True when the cell was denied its **fair chance** — cancelled, or
    /// cut off by the global budget before consuming its own configured
    /// time limit. Retryable cells are never journaled; a `--resume` run
    /// solves them again. Always false for journaled/resumed cells.
    pub retryable: bool,
    /// The trace id (16 hex digits) of the request that ran this cell, when
    /// the suite executed under an observability trace context
    /// ([`SuiteOptions::trace`]). Journaled for correlation only — it sits
    /// outside the byte-determinism contract, next to `duration_ns`.
    pub trace: Option<String>,
}

impl CellReport {
    /// True if the cell solved.
    pub fn solved(&self) -> bool {
        matches!(self.outcome, CellOutcome::Solved(_))
    }

    /// The solver counters, if solved.
    pub fn stats(&self) -> Option<&CellStats> {
        match &self.outcome {
            CellOutcome::Solved(stats) => Some(stats),
            _ => None,
        }
    }

    /// One-word status for tables and logs.
    pub fn status(&self) -> &'static str {
        match &self.outcome {
            CellOutcome::Solved(_) => "solved",
            CellOutcome::Cnc(CncReason::Cancelled) => "cancelled",
            CellOutcome::Cnc(_) => "cnc",
            CellOutcome::Failed(_) => "failed",
        }
    }
}

/// Why a sweep could not run.
#[derive(Debug)]
pub enum SuiteError {
    /// The plan is malformed (duplicate journal keys, …).
    Plan(String),
    /// Journal I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::Plan(msg) => write!(f, "invalid sweep plan: {msg}"),
            SuiteError::Io(e) => write!(f, "sweep journal I/O: {e}"),
        }
    }
}

impl std::error::Error for SuiteError {}

impl From<std::io::Error> for SuiteError {
    fn from(e: std::io::Error) -> Self {
        SuiteError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langeq_logic::gen;

    #[test]
    fn plan_enumerates_cells_instance_major() {
        let plan = SuitePlan::new()
            .instance(InstanceSpec::new("a", gen::figure3(), vec![1]))
            .instance(InstanceSpec::new("b", gen::figure3(), vec![0]))
            .config(ConfigSpec::new("p", SolverKind::Partitioned))
            .config(ConfigSpec::new("m", SolverKind::Monolithic));
        assert_eq!(plan.num_cells(), 4);
        let keys: Vec<(usize, &str, &str)> = plan
            .cells()
            .map(|c| (c.id, c.instance.name.as_str(), c.config.name.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![(0, "a", "p"), (1, "a", "m"), (2, "b", "p"), (3, "b", "m")]
        );
        assert!(plan.cell(4).is_none());
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn validate_rejects_duplicate_keys() {
        let plan = SuitePlan::new()
            .instance(InstanceSpec::new("a", gen::figure3(), vec![1]))
            .instance(InstanceSpec::new("a", gen::figure3(), vec![0]))
            .config(ConfigSpec::new("p", SolverKind::Partitioned));
        assert!(matches!(plan.validate(), Err(SuiteError::Plan(_))));
    }

    #[test]
    fn config_builds_the_right_solver() {
        for kind in [
            SolverKind::Partitioned,
            SolverKind::Monolithic,
            SolverKind::Algorithm1,
        ] {
            assert_eq!(ConfigSpec::new("c", kind).solver().kind(), kind);
        }
    }
}
