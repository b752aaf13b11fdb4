//! The unified solving surface: the [`Solver`] trait, its three
//! implementations ([`Partitioned`], [`Monolithic`], [`Algorithm1`]), and
//! the [`SolveRequest`] builder that configures and runs them.
//!
//! ```
//! use langeq_core::{LatchSplitProblem, SolveRequest};
//! use langeq_logic::gen;
//!
//! let network = gen::figure3();
//! let problem = LatchSplitProblem::new(&network, &[1]).unwrap();
//! let outcome = SolveRequest::partitioned()
//!     .trim_dcn(true)
//!     .node_limit(1_000_000)
//!     .run(&problem.equation);
//! let solution = outcome.into_result().expect("figure 3 solves");
//! assert!(solution.csf.initial().is_some());
//! ```

use std::time::{Duration, Instant};

use langeq_bdd::ReorderPolicy;
use langeq_image::ImageOptions;

use crate::algorithm1;
use crate::equation::LanguageEquation;
use crate::solver::control::{BoxedObserver, CancelToken, Control, SolveEvent};
use crate::solver::session::Session;
use crate::solver::{
    monolithic, partitioned, CncReason, MonolithicOptions, Outcome, PartitionedOptions, SolverKind,
    SolverLimits,
};

/// A language-equation solver: computes the most general (prefix-closed)
/// solution of `F ∘ X ⊆ S` and the Complete Sequential Flexibility.
///
/// All implementations are **cooperative**: cancellation, deadlines, and
/// resource limits carried by the [`Control`] / the solver's
/// [`SolverLimits`] surface as [`Outcome::Cnc`] — never a panic — and the
/// equation's [`BddManager`](langeq_bdd::BddManager) is immediately reusable
/// afterwards.
pub trait Solver {
    /// Which flow this solver implements (for reporting).
    fn kind(&self) -> SolverKind;

    /// Solves `eq` under `ctrl`.
    fn solve(&self, eq: &LanguageEquation, ctrl: &Control) -> Outcome;

    /// Solves with a no-op control (no cancellation, deadline, or observer).
    fn solve_unmonitored(&self, eq: &LanguageEquation) -> Outcome {
        self.solve(eq, &Control::default())
    }
}

/// The paper's partitioned flow (§3.2) behind the [`Solver`] trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct Partitioned {
    /// Flow options (image tuning, DCN trimming, limits).
    pub options: PartitionedOptions,
}

impl Partitioned {
    /// A partitioned solver with the given options.
    pub fn new(options: PartitionedOptions) -> Self {
        Partitioned { options }
    }

    /// The paper's configuration (early quantification, DCN trimming).
    pub fn paper() -> Self {
        Partitioned::new(PartitionedOptions::paper())
    }
}

impl Solver for Partitioned {
    fn kind(&self) -> SolverKind {
        SolverKind::Partitioned
    }

    fn solve(&self, eq: &LanguageEquation, ctrl: &Control) -> Outcome {
        let mut sess = Session::begin(
            eq.manager(),
            self.options.limits,
            self.options.reorder,
            ctrl,
            self.kind(),
        );
        let result = if self.options.trim_dcn {
            partitioned::run_trimmed(eq, &self.options, &mut sess)
        } else {
            partitioned::run_untrimmed(eq, &self.options, &mut sess)
        };
        Outcome::from(result)
    }
}

/// The monolithic baseline flow (§4) behind the [`Solver`] trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct Monolithic {
    /// Flow options (limits).
    pub options: MonolithicOptions,
}

impl Monolithic {
    /// A monolithic solver with the given options.
    pub fn new(options: MonolithicOptions) -> Self {
        Monolithic { options }
    }
}

impl Solver for Monolithic {
    fn kind(&self) -> SolverKind {
        SolverKind::Monolithic
    }

    fn solve(&self, eq: &LanguageEquation, ctrl: &Control) -> Outcome {
        let mut sess = Session::begin(
            eq.manager(),
            self.options.limits,
            self.options.reorder,
            ctrl,
            self.kind(),
        );
        let result = monolithic::run(eq, &self.options, &mut sess);
        Outcome::from(result)
    }
}

/// The paper's generic **Algorithm 1** on explicit automata, behind the
/// [`Solver`] trait — the reference pipeline used to cross-validate the two
/// symbolic flows on small instances.
///
/// Instances whose components exceed
/// [`MAX_EXPLICIT_LATCHES`](algorithm1::MAX_EXPLICIT_LATCHES) latches return
/// [`CncReason::StateLimit`] instead of being attempted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Algorithm1 {
    /// Resource limits (checked between pipeline steps and inside the BDD
    /// engine).
    pub limits: SolverLimits,
}

impl Algorithm1 {
    /// An Algorithm-1 solver with the given limits.
    pub fn new(limits: SolverLimits) -> Self {
        Algorithm1 { limits }
    }
}

impl Solver for Algorithm1 {
    fn kind(&self) -> SolverKind {
        SolverKind::Algorithm1
    }

    fn solve(&self, eq: &LanguageEquation, ctrl: &Control) -> Outcome {
        let cap = algorithm1::MAX_EXPLICIT_LATCHES;
        if eq.f.latches.len() > cap || eq.s.latches.len() > cap {
            // Explicit enumeration of 2^latches states is out of reach; the
            // honest report is the explicit-state budget.
            return Outcome::Cnc(CncReason::StateLimit(1usize << cap));
        }
        // The explicit pipeline keeps the static order: its per-state BDD
        // work is tiny and a mid-pipeline reorder would only add noise to
        // the cross-validation baseline.
        let mut sess = Session::begin(
            eq.manager(),
            self.limits,
            langeq_bdd::ReorderPolicy::None,
            ctrl,
            self.kind(),
        );
        // Report the largest automaton materialised so far: intermediate
        // pipeline steps (hide, determinize) may shrink, and the event
        // contract promises a non-decreasing `discovered`.
        let mut largest = 0usize;
        let result = algorithm1::run_pipeline(eq, &mut |aut| {
            largest = largest.max(aut.num_states());
            sess.checkpoint(largest, 0)
        })
        .and_then(|generic| {
            sess.ensure_clean()?;
            let stats = sess.stats(&generic.general);
            Ok(crate::solver::Solution {
                general: generic.general,
                prefix_closed: generic.prefix_closed,
                csf: generic.csf,
                stats,
            })
        });
        Outcome::from(result)
    }
}

/// Builder for a configured solve: pick the flow, tune it, attach control,
/// and [`run`](Self::run).
///
/// ```
/// use langeq_core::{LatchSplitProblem, SolveRequest};
/// use langeq_logic::gen;
/// use std::time::Duration;
///
/// let problem = LatchSplitProblem::new(&gen::figure3(), &[1]).unwrap();
/// let outcome = SolveRequest::partitioned()
///     .trim_dcn(false)              // ablation: untrimmed subset construction
///     .node_limit(500_000)
///     .time_limit(Duration::from_secs(30))
///     .on_progress(|event| { let _ = event; })
///     .run(&problem.equation);
/// assert!(outcome.into_result().is_ok());
/// ```
pub struct SolveRequest {
    kind: SolverKind,
    limits: SolverLimits,
    image: ImageOptions,
    trim_dcn: bool,
    reorder: ReorderPolicy,
    token: CancelToken,
    deadline: Option<Instant>,
    observer: Option<BoxedObserver>,
}

impl std::fmt::Debug for SolveRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveRequest")
            .field("kind", &self.kind)
            .field("limits", &self.limits)
            .field("image", &self.image)
            .field("trim_dcn", &self.trim_dcn)
            .field("reorder", &self.reorder)
            .field("deadline", &self.deadline)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl SolveRequest {
    /// A request for the given flow with default options.
    pub fn new(kind: SolverKind) -> Self {
        SolveRequest {
            kind,
            limits: SolverLimits::default(),
            image: ImageOptions::default(),
            trim_dcn: true,
            reorder: ReorderPolicy::None,
            token: CancelToken::new(),
            deadline: None,
            observer: None,
        }
    }

    /// The paper's partitioned flow (§3.2).
    pub fn partitioned() -> Self {
        Self::new(SolverKind::Partitioned)
    }

    /// The monolithic baseline (§4).
    pub fn monolithic() -> Self {
        Self::new(SolverKind::Monolithic)
    }

    /// The explicit-automata reference pipeline (Algorithm 1).
    pub fn algorithm1() -> Self {
        Self::new(SolverKind::Algorithm1)
    }

    /// Which flow this request runs.
    pub fn kind(&self) -> SolverKind {
        self.kind
    }

    // ----- flow options -----------------------------------------------------

    /// Enables/disables the §3.2 prefix-closed DCN trimming (partitioned
    /// flow only; ignored by the other flows).
    pub fn trim_dcn(mut self, on: bool) -> Self {
        self.trim_dcn = on;
        self
    }

    /// Image-computation tuning (partitioned flow only).
    pub fn image_options(mut self, options: ImageOptions) -> Self {
        self.image = options;
        self
    }

    /// Dynamic variable reordering for the run (partitioned and monolithic
    /// flows; the explicit Algorithm-1 pipeline stays static). The policy
    /// is armed on the equation's manager for the duration of the solve
    /// and restored afterwards.
    pub fn reorder(mut self, policy: ReorderPolicy) -> Self {
        self.reorder = policy;
        self
    }

    /// Replaces all resource limits at once.
    pub fn limits(mut self, limits: SolverLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Live-BDD-node ceiling (`None` clears it).
    pub fn node_limit(mut self, limit: impl Into<Option<usize>>) -> Self {
        self.limits.node_limit = limit.into();
        self
    }

    /// Wall-clock ceiling relative to the start of the run (`None` clears
    /// it).
    pub fn time_limit(mut self, limit: impl Into<Option<Duration>>) -> Self {
        self.limits.time_limit = limit.into();
        self
    }

    /// Ceiling on discovered subset states (`None` clears it; the default
    /// is [`DEFAULT_MAX_STATES`](crate::solver::DEFAULT_MAX_STATES)).
    pub fn max_states(mut self, limit: impl Into<Option<usize>>) -> Self {
        self.limits.max_states = limit.into();
        self
    }

    // ----- control ----------------------------------------------------------

    /// Attaches a cancellation token shared with other threads / handlers.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.token = token;
        self
    }

    /// Sets an absolute deadline (in addition to
    /// [`time_limit`](Self::time_limit), whichever fires first).
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(self.deadline.map_or(deadline, |d| d.min(deadline)));
        self
    }

    /// Registers a progress observer receiving [`SolveEvent`]s.
    pub fn on_progress(mut self, observer: impl FnMut(&SolveEvent) + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    // ----- execution --------------------------------------------------------

    /// The configured solver, type-erased.
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

    /// Splits the request into its solver and control halves (for callers
    /// that want to keep the solver around and run it repeatedly).
    pub fn build(self) -> (Box<dyn Solver>, Control) {
        let solver = self.solver();
        let mut ctrl = Control::new().with_token(self.token);
        if let Some(d) = self.deadline {
            ctrl = ctrl.with_deadline(d);
        }
        if let Some(obs) = self.observer {
            ctrl = ctrl.with_boxed_observer(obs);
        }
        (solver, ctrl)
    }

    /// Runs the configured solve on `eq`.
    pub fn run(self, eq: &LanguageEquation) -> Outcome {
        let (solver, ctrl) = self.build();
        solver.solve(eq, &ctrl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equation::LatchSplitProblem;
    use langeq_logic::gen;

    fn figure3_problem() -> LatchSplitProblem {
        LatchSplitProblem::new(&gen::figure3(), &[1]).unwrap()
    }

    #[test]
    fn all_three_flows_agree_through_the_trait() {
        let p = figure3_problem();
        let solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(Partitioned::paper()),
            Box::new(Monolithic::default()),
            Box::new(Algorithm1::default()),
        ];
        let solutions: Vec<_> = solvers
            .iter()
            .map(|s| {
                s.solve_unmonitored(&p.equation)
                    .into_result()
                    .unwrap_or_else(|r| panic!("{} failed: {r}", s.kind()))
            })
            .collect();
        for pair in solutions.windows(2) {
            assert!(pair[0].csf.equivalent(&pair[1].csf));
            assert!(pair[0].prefix_closed.equivalent(&pair[1].prefix_closed));
        }
    }

    #[test]
    fn request_builder_configures_the_flow() {
        let p = figure3_problem();
        let trimmed = SolveRequest::partitioned().run(&p.equation);
        let untrimmed = SolveRequest::partitioned().trim_dcn(false).run(&p.equation);
        let (t, u) = (
            trimmed.into_result().unwrap(),
            untrimmed.into_result().unwrap(),
        );
        assert!(t.csf.equivalent(&u.csf));
        assert!(t.general.is_contained_in(&u.general));
    }

    #[test]
    fn algorithm1_refuses_oversized_instances_gracefully() {
        let net = gen::counter("big", 20);
        let p = LatchSplitProblem::new(&net, &[0, 1]).unwrap();
        let out = Algorithm1::default().solve_unmonitored(&p.equation);
        assert!(matches!(out, Outcome::Cnc(CncReason::StateLimit(_))));
    }

    #[test]
    fn pre_cancelled_token_aborts_immediately() {
        let p = figure3_problem();
        let token = CancelToken::new();
        token.cancel();
        let out = SolveRequest::partitioned()
            .cancel_token(token)
            .run(&p.equation);
        assert!(matches!(out, Outcome::Cnc(CncReason::Cancelled)));
        // The manager is immediately reusable.
        let again = SolveRequest::partitioned().run(&p.equation);
        assert!(again.into_result().is_ok());
    }
}
