//! The language-equation solvers: the unified [`Solver`] engine API
//! ([`SolveRequest`], [`Control`], [`CancelToken`], [`SolveEvent`]), shared
//! types and resource limits, and the flows compared in the paper's Table 1.
//!
//! Entry points, from highest to lowest level:
//!
//! * [`SolveRequest`] — builder: pick a flow, tune it, attach
//!   cancellation/progress, run;
//! * [`Solver`] — the trait implemented by [`Partitioned`], [`Monolithic`],
//!   and [`Algorithm1`]; drive it generically for harnesses that compare
//!   flows (the [`batch`](crate::batch) sweep engine is one such harness).
//!
//! Exhausting any limit — node budget, wall clock, state budget — or a
//! cancellation yields [`Outcome::Cnc`] **cooperatively**: nothing panics or
//! unwinds, and the equation's manager is immediately reusable.

pub mod control;
mod engine;
pub mod monolithic;
pub mod partitioned;
mod session;

use std::time::Duration;

use langeq_automata::Automaton;

pub use control::{CancelToken, Control, SolveEvent};
pub use engine::{Algorithm1, Monolithic, Partitioned, SolveRequest, Solver};

use langeq_bdd::{BddStats, ReorderPolicy};
use langeq_image::ImageOptions;

/// Which solver produced a result (for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// The paper's partitioned flow (§3.2).
    Partitioned,
    /// The monolithic baseline.
    Monolithic,
    /// The explicit-automata reference pipeline (the paper's Algorithm 1).
    Algorithm1,
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverKind::Partitioned => write!(f, "partitioned"),
            SolverKind::Monolithic => write!(f, "monolithic"),
            SolverKind::Algorithm1 => write!(f, "algorithm1"),
        }
    }
}

/// Error of [`SolverKind::from_str`]: the unrecognized flow name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFlow(pub String);

impl std::fmt::Display for UnknownFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown flow `{}` (partitioned|monolithic|algorithm1)",
            self.0
        )
    }
}

impl std::error::Error for UnknownFlow {}

impl std::str::FromStr for SolverKind {
    type Err = UnknownFlow;

    /// Parses the [`Display`](std::fmt::Display) names plus the CLI's short
    /// aliases (`part`, `mono`, `alg1`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "partitioned" | "part" => Ok(SolverKind::Partitioned),
            "monolithic" | "mono" => Ok(SolverKind::Monolithic),
            "algorithm1" | "alg1" => Ok(SolverKind::Algorithm1),
            other => Err(UnknownFlow(other.to_string())),
        }
    }
}

/// Default ceiling on discovered subset states
/// ([`SolverLimits::max_states`]): generous enough for every Table-1
/// instance, small enough that a diverging subset construction is reported
/// as CNC instead of exhausting memory.
pub const DEFAULT_MAX_STATES: usize = 2_000_000;

/// Resource limits shared by all solvers. Exhausting any limit yields
/// [`Outcome::Cnc`] ("could not complete"), the paper's CNC entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverLimits {
    /// Live-BDD-node ceiling (checked inside the BDD engine).
    pub node_limit: Option<usize>,
    /// Wall-clock ceiling (checked once per subset state and, via the
    /// engine's abort hook, inside long BDD operations).
    pub time_limit: Option<Duration>,
    /// Ceiling on discovered subset states. Defaults to
    /// [`DEFAULT_MAX_STATES`]; `None` disables the check.
    pub max_states: Option<usize>,
}

impl Default for SolverLimits {
    fn default() -> Self {
        SolverLimits {
            node_limit: None,
            time_limit: None,
            max_states: Some(DEFAULT_MAX_STATES),
        }
    }
}

impl SolverLimits {
    /// No limits at all (not even the default state budget).
    pub fn unlimited() -> Self {
        SolverLimits {
            node_limit: None,
            time_limit: None,
            max_states: None,
        }
    }
}

/// Options for the partitioned solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartitionedOptions {
    /// Image-computation tuning (clustering, quantification scheduling).
    pub image: ImageOptions,
    /// Apply the prefix-closed trimming of §3.2: transitions that can reach
    /// the non-conformance state are redirected to a single trap (`DCN`)
    /// instead of exploring subsets containing it. Disabling this models
    /// the untrimmed subset construction (ablation).
    pub trim_dcn: bool,
    /// Dynamic variable reordering, armed on the equation's manager for the
    /// duration of the run (the previous policy is restored afterwards).
    /// The universe's reorder fence keeps the alphabet block above the
    /// state block, so sifting can never break the subset construction's
    /// cofactor-class precondition.
    pub reorder: ReorderPolicy,
    /// Resource limits.
    pub limits: SolverLimits,
}

impl PartitionedOptions {
    /// The paper's configuration: early quantification + DCN trimming
    /// (static order, as in the paper).
    pub fn paper() -> Self {
        PartitionedOptions {
            image: ImageOptions::default(),
            trim_dcn: true,
            reorder: ReorderPolicy::None,
            limits: SolverLimits::default(),
        }
    }
}

/// Options for the monolithic baseline solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonolithicOptions {
    /// Dynamic variable reordering (see
    /// [`PartitionedOptions::reorder`]) — the monolithic `TO` relation is
    /// the workload that benefits most from sifting.
    pub reorder: ReorderPolicy,
    /// Resource limits.
    pub limits: SolverLimits,
}

/// Counters and timings of one solver run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Subset states discovered during determinization (incl. traps).
    pub subset_states: usize,
    /// Transitions of the most general solution.
    pub transitions: usize,
    /// Image computations performed.
    pub images: usize,
    /// Wall-clock time of the solve.
    pub duration: Duration,
    /// The equation manager's kernel snapshot at the end of the solve
    /// (cumulative over the manager's lifetime, so a solve on a fresh
    /// manager reports exactly its own work).
    pub kernel: BddStats,
}

/// The result of a successful solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The general solution `X` of `F ∘ X ⊆ S`: a complete deterministic
    /// automaton over `(u, v)` including the `DCN` (non-accepting) and
    /// `DCA` (accepting) trap states.
    ///
    /// With the paper's DCN trimming enabled (monolithic flow, or
    /// [`PartitionedOptions::trim_dcn`] = false) this is the *most general*
    /// solution of the equation. With trimming on, words whose prefixes are
    /// already unacceptable are dropped eagerly, so `general` is a
    /// sub-language of the most general solution whose **prefix closure is
    /// unchanged** — exactly the trade the paper makes ("the X computed is
    /// the most general prefix-closed solution").
    pub general: Automaton,
    /// The most general **prefix-closed** solution (`PrefixClose(X)`).
    pub prefix_closed: Automaton,
    /// The Complete Sequential Flexibility: the largest prefix-closed,
    /// input-progressive sub-automaton (`Progressive(PrefixClose(X), u)`).
    pub csf: Automaton,
    /// Run statistics.
    pub stats: SolverStats,
}

/// Why a run could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CncReason {
    /// The BDD engine exceeded the configured live-node ceiling.
    NodeLimit(usize),
    /// The wall-clock limit (or the [`Control`] deadline) expired.
    Timeout(Duration),
    /// More subset states than allowed were discovered.
    StateLimit(usize),
    /// The caller cancelled the run through its [`CancelToken`].
    Cancelled,
}

impl std::fmt::Display for CncReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CncReason::NodeLimit(n) => write!(f, "CNC: exceeded {n} live BDD nodes"),
            CncReason::Timeout(d) => write!(f, "CNC: exceeded time limit {d:?}"),
            CncReason::StateLimit(n) => write!(f, "CNC: exceeded {n} subset states"),
            CncReason::Cancelled => write!(f, "CNC: cancelled by the caller"),
        }
    }
}

impl std::error::Error for CncReason {}

/// Result of a solver run: a solution, or a faithful "could not complete".
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Finished within the limits.
    Solved(Box<Solution>),
    /// Ran out of a resource, or was cancelled (the paper's `CNC` entries).
    Cnc(CncReason),
}

impl Outcome {
    /// The solution, if solved.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            Outcome::Solved(s) => Some(s),
            Outcome::Cnc(_) => None,
        }
    }

    /// Converts into a `Result`, unboxing the solution.
    ///
    /// The inverse of the `From<Result<Solution, CncReason>>` conversion:
    /// `Outcome::from(outcome.into_result())` round-trips.
    pub fn into_result(self) -> Result<Solution, CncReason> {
        match self {
            Outcome::Solved(s) => Ok(*s),
            Outcome::Cnc(r) => Err(r),
        }
    }
}

impl From<Result<Solution, CncReason>> for Outcome {
    fn from(result: Result<Solution, CncReason>) -> Self {
        match result {
            Ok(solution) => Outcome::Solved(Box::new(solution)),
            Err(reason) => Outcome::Cnc(reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equation::LatchSplitProblem;
    use langeq_bdd::BddManager;
    use langeq_logic::gen;

    #[test]
    fn limits_default_includes_the_state_budget() {
        let limits = SolverLimits::default();
        assert_eq!(limits.max_states, Some(DEFAULT_MAX_STATES));
        assert_eq!(limits.node_limit, None);
        assert_eq!(limits.time_limit, None);
        assert_eq!(SolverLimits::unlimited().max_states, None);
    }

    #[test]
    fn cnc_reason_display() {
        assert!(CncReason::NodeLimit(100).to_string().contains("100"));
        assert!(CncReason::Timeout(Duration::from_secs(2))
            .to_string()
            .contains("CNC"));
        assert!(CncReason::StateLimit(7).to_string().contains("7"));
        assert!(CncReason::Cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn outcome_round_trips_through_result() {
        let p = LatchSplitProblem::new(&gen::figure3(), &[1]).unwrap();
        let outcome = SolveRequest::partitioned().run(&p.equation);
        let states = outcome.solution().expect("solves").general.num_states();
        let result = outcome.into_result();
        let back = Outcome::from(result);
        assert_eq!(
            back.solution().expect("still solved").general.num_states(),
            states
        );

        let cnc = Outcome::Cnc(CncReason::StateLimit(3));
        let round = Outcome::from(cnc.into_result());
        assert!(matches!(round, Outcome::Cnc(CncReason::StateLimit(3))));
    }

    #[test]
    fn node_limit_reports_cnc_and_leaves_manager_usable() {
        let net = gen::random_controller(&gen::ControllerCfg::new("cnc", 7, 3, 3, 5));
        let p = LatchSplitProblem::new(&net, &[3, 4]).unwrap();
        let mgr = p.equation.manager().clone();
        let baseline = mgr.stats().live_nodes;
        let out = SolveRequest::partitioned()
            .node_limit(baseline + 64)
            .run(&p.equation);
        assert!(matches!(out, Outcome::Cnc(CncReason::NodeLimit(_))));
        // Guards disarmed, abort cleared, manager reusable.
        assert_eq!(mgr.node_limit(), None);
        assert!(mgr.abort_reason().is_none());
        let x = mgr.new_var().and(&mgr.new_var());
        assert!(!x.is_zero());
    }

    #[test]
    fn manager_without_equation_survives_raw_abort_cycles() {
        // The session machinery is exercised end-to-end elsewhere; this
        // checks the core contract it relies on at the manager level.
        let mgr = BddManager::new();
        let vars = mgr.new_vars(16);
        mgr.set_node_limit(Some(mgr.stats().live_nodes + 4));
        let mut acc = mgr.one();
        for (k, v) in vars.iter().enumerate() {
            acc = acc.and(&v.xor(&vars[(k + 5) % vars.len()]));
        }
        assert!(mgr.abort_reason().is_some());
        mgr.set_node_limit(None);
        mgr.take_abort();
        mgr.collect_garbage();
        let rebuilt = vars[0].xor(&vars[5]);
        assert!(!rebuilt.is_zero());
        drop(acc);
    }
}
