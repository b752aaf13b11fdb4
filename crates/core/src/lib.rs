//! # langeq-core
//!
//! The heart of the reproduction of *Efficient Solution of Language
//! Equations Using Partitioned Representations* (DATE 2005): solvers for
//! the language equation `F ∘ X ⊆ S` when both the fixed component `F` and
//! the specification `S` are prefix-closed FSMs derived from multi-level
//! sequential networks.
//!
//! Two flows are provided, mirroring the paper's Table-1 comparison:
//!
//! * [`solver::partitioned`] — the paper's contribution: everything is done
//!   in one modified subset construction driven by partitioned image
//!   computation (completion, complementation, product and hiding are all
//!   folded in; see the module docs for the formulas),
//! * [`solver::monolithic`] — the baseline: monolithic `TO` relations,
//!   explicit completion of `S` (extra state bit), product, hiding by
//!   quantification, traditional subset construction.
//!
//! A third, explicit-automaton reference pipeline ([`algorithm1`])
//! implements the paper's generic Algorithm 1 literally with
//! `langeq-automata` operations; it is used to cross-validate the symbolic
//! solvers on small instances.
//!
//! The solution produced is the **most general prefix-closed solution**, and
//! the **Complete Sequential Flexibility** (CSF) — the largest prefix-closed
//! input-progressive sub-automaton — together with the intermediate
//! automata and run statistics. [`verify`] implements the paper's two
//! checks: `X_P ⊆ X` and `F ∘ X ⊆ S`. [`extract`] goes one step beyond the
//! paper and commits the CSF to a concrete deterministic Mealy
//! implementation (the conclusion's "future work" step).
//!
//! ## Quickstart
//!
//! Every flow is driven through the unified engine API: a [`Solver`] trait
//! (implemented by [`Partitioned`], [`Monolithic`], [`Algorithm1`]),
//! configured by the [`SolveRequest`] builder and executed against a
//! [`Control`] carrying a [`CancelToken`], a deadline, and a progress
//! observer.
//!
//! ```
//! use langeq_core::{LatchSplitProblem, SolveRequest};
//! use langeq_logic::gen;
//!
//! // The paper's Figure-3 circuit, latch-split like the Table-1 benchmarks.
//! let network = gen::figure3();
//! let problem = LatchSplitProblem::new(&network, &[1]).unwrap();
//! let outcome = SolveRequest::partitioned()
//!     .node_limit(1_000_000)
//!     .on_progress(|event| { let _ = event; /* stream to a UI or log */ })
//!     .run(&problem.equation);
//! let solution = outcome.into_result().expect("figure 3 solves");
//! assert!(solution.csf.initial().is_some());
//! let report = langeq_core::verify::verify_latch_split(&problem, &solution.csf);
//! assert!(report.all_passed());
//! ```
//!
//! Cancellation is cooperative: clone the request's [`CancelToken`], hand it
//! to another thread (or a Ctrl-C handler), and `cancel()` makes the solve
//! return [`Outcome::Cnc`]`(`[`CncReason::Cancelled`]`)` — nothing panics,
//! and the BDD manager is immediately reusable.
//!
//! ## Sweeps
//!
//! Above the single-solve API sits the [`batch`] layer: a declarative
//! [`SuitePlan`] crossing problem instances with solver configurations,
//! executed on a work-stealing worker pool with a shared wall-clock budget,
//! a JSONL journal, and resumability — the engine behind `langeq sweep` and
//! the Table-1 harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm1;
pub mod batch;
mod equation;
pub mod extract;
mod fsm;
pub mod reencode;
pub mod retry;
#[cfg(feature = "sanitize")]
pub mod sanitize;
pub mod sig;
pub mod solver;
mod universe;
pub mod verify;

pub use batch::store::{JournalStore, LocalFileStore, SharedDirStore};
pub use batch::{
    CellOutcome, CellReport, CellStats, ConfigSpec, InstanceSpec, KernelSample, SuiteError,
    SuiteEvent, SuiteOptions, SuitePlan, SuiteReport,
};
pub use equation::{LanguageEquation, LatchSplitProblem};
pub use fsm::{FsmLatch, FsmOutput, PartitionedFsm, StateOrder};
pub use langeq_bdd::ReorderPolicy;
pub use retry::{Disposition, RetryPolicy};
pub use solver::{
    Algorithm1, CancelToken, CncReason, Control, Monolithic, MonolithicOptions, Outcome,
    Partitioned, PartitionedOptions, Solution, SolveEvent, SolveRequest, Solver, SolverKind,
    SolverLimits, SolverStats, DEFAULT_MAX_STATES,
};
pub use universe::{UniverseSizes, VarUniverse};

#[cfg(test)]
mod tests {
    use std::path::Path;
    use std::time::Duration;

    use super::*;
    use crate::batch::manifest::resolve_source;
    use crate::verify::verify_latch_split;

    /// The smallest Table-1 row as a `manifests/table1.sweep` line
    /// resolves it: the `gen:` network at its own split.
    fn sim_s510() -> (langeq_logic::Network, Vec<usize>) {
        let (network, split) = resolve_source("gen:sim_s510", Path::new(".")).unwrap();
        (network, split.expect("Table-1 sources carry their split"))
    }

    fn limits() -> SolverLimits {
        SolverLimits {
            node_limit: Some(4_000_000),
            time_limit: Some(Duration::from_secs(60)),
            ..SolverLimits::default()
        }
    }

    /// The two Table-1 flows over sim_s510.
    fn table1_row_plan() -> SuitePlan {
        let (network, split) = sim_s510();
        SuitePlan::new()
            .instance(InstanceSpec::new("sim_s510", network, split))
            .config(ConfigSpec::new("part", SolverKind::Partitioned).limits(limits()))
            .config(ConfigSpec::new("mono", SolverKind::Monolithic).limits(limits()))
    }

    #[test]
    fn suite_cells_agree_with_the_sequential_harness() {
        // Each parallel suite cell must report the deterministic counters
        // of a sequential, direct solve of the same instance and flow.
        let report = table1_row_plan()
            .execute(SuiteOptions::new().jobs(2))
            .unwrap();
        let (network, split) = sim_s510();
        for (config, kind) in [
            ("part", SolverKind::Partitioned),
            ("mono", SolverKind::Monolithic),
        ] {
            let problem = LatchSplitProblem::new(&network, &split).unwrap();
            let direct = SolveRequest::new(kind)
                .limits(limits())
                .run(&problem.equation)
                .into_result()
                .unwrap_or_else(|cnc| panic!("{config}: direct solve: {cnc:?}"));
            let cell = report.get("sim_s510", config).unwrap();
            let stats = cell.stats().unwrap_or_else(|| panic!("{config}: {cell:?}"));
            assert_eq!(stats.csf_states, direct.csf.num_states(), "{config}");
            assert_eq!(stats.subset_states, direct.stats.subset_states, "{config}");
        }
    }

    #[test]
    fn smallest_instance_runs_end_to_end() {
        // Both flows solve in the suite, the table names the row, and the
        // partitioned CSF passes the paper's two checks, as
        // `langeq solve --spec gen:sim_s510 --verify` runs them.
        let report = table1_row_plan().execute(SuiteOptions::new()).unwrap();
        assert_eq!(report.solved(), 2, "{report:?}");
        let table = report.format_table();
        assert!(table.contains("sim_s510"), "table:\n{table}");
        let (network, split) = sim_s510();
        let problem = LatchSplitProblem::new(&network, &split).unwrap();
        let solution = SolveRequest::partitioned()
            .limits(limits())
            .run(&problem.equation)
            .into_result()
            .expect("sim_s510 solves within the limits");
        assert!(verify_latch_split(&problem, &solution.csf).all_passed());
    }
}
