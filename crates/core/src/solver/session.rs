//! Per-run plumbing shared by every [`Solver`](crate::solver::Solver)
//! implementation: arming the BDD engine's cooperative-abort guards,
//! enforcing the [`SolverLimits`](crate::SolverLimits) and the
//! [`Control`](crate::Control)'s token/deadline, and emitting
//! [`SolveEvent`](crate::SolveEvent)s.
//!
//! A [`Session`] is created at the top of a solve and dropped at the end
//! (whatever the outcome); its `Drop` disarms the engine guards, restores
//! the previous node limit, and reclaims any garbage an abort left behind —
//! so the manager is immediately reusable, which the old
//! `catch_unwind`-based machinery could only promise after a panic had
//! propagated through every stack frame.
//!
//! Every subset-construction loop also keeps its discovered states in a
//! [`StateIndex`].

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use langeq_automata::{Automaton, StateId};
use langeq_bdd::{AbortReason, Bdd, BddManager, ReorderPolicy, VarId};

use crate::equation::LanguageEquation;
use crate::solver::control::{Control, SolveEvent};
use crate::solver::{CncReason, Solution, SolverKind, SolverLimits, SolverStats};

/// State of one solver run. See the module docs.
pub(crate) struct Session<'c> {
    ctrl: &'c Control,
    mgr: BddManager,
    limits: SolverLimits,
    start: Instant,
    /// Effective absolute deadline: the earlier of `limits.time_limit` from
    /// `start` and the control's deadline.
    deadline: Option<Instant>,
    prev_node_limit: Option<usize>,
    /// The abort hook that was installed before this session armed its own;
    /// restored on drop.
    prev_hook: Option<Box<dyn Fn() -> bool>>,
    /// The reorder policy that was active before this session armed the
    /// run's own; restored on drop.
    prev_reorder: ReorderPolicy,
    images: usize,
}

impl<'c> Session<'c> {
    /// Arms the engine guards — node limit, abort hook, and the run's
    /// dynamic-reorder policy — and emits [`SolveEvent::Started`].
    pub(crate) fn begin(
        mgr: &BddManager,
        limits: SolverLimits,
        reorder: ReorderPolicy,
        ctrl: &'c Control,
        kind: SolverKind,
    ) -> Self {
        let start = Instant::now();
        // A limit past `Instant`'s range is no limit at all.
        let from_limit = limits.time_limit.and_then(|d| start.checked_add(d));
        let deadline = match (from_limit, ctrl.deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let prev_node_limit = mgr.node_limit();
        mgr.set_node_limit(limits.node_limit);
        let token = ctrl.token().clone();
        let prev_hook = mgr.set_abort_hook(Some(Box::new(move || {
            token.is_cancelled() || deadline.is_some_and(|d| Instant::now() >= d)
        })));
        let prev_reorder = mgr.set_reorder_policy(reorder);
        ctrl.emit(SolveEvent::Started { kind });
        Session {
            ctrl,
            mgr: mgr.clone(),
            limits,
            start,
            deadline,
            prev_node_limit,
            prev_hook,
            prev_reorder,
            images: 0,
        }
    }

    /// Wall-clock time since [`begin`](Self::begin).
    fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Counts one image computation and notifies the observer.
    pub(crate) fn note_image(&mut self) {
        self.images += 1;
        self.ctrl
            .emit(SolveEvent::ImageComputed { total: self.images });
    }

    /// The per-iteration control point of the subset-construction loops:
    /// emits progress events, then checks (in order) a pending engine abort,
    /// the cancellation token, the deadline, and the state budget.
    pub(crate) fn checkpoint(
        &mut self,
        discovered: usize,
        frontier: usize,
    ) -> Result<(), CncReason> {
        self.ctrl.emit(SolveEvent::SubsetState {
            discovered,
            frontier,
        });
        self.poll()?;
        if let Some(max) = self.limits.max_states {
            if discovered > max {
                return Err(CncReason::StateLimit(max));
            }
        }
        Ok(())
    }

    /// A control point *between* pipeline phases (no worklist entry was
    /// popped, so no [`SolveEvent::SubsetState`] is emitted): emits a
    /// [`SolveEvent::Kernel`] snapshot and checks abort/cancellation/deadline.
    pub(crate) fn poll(&mut self) -> Result<(), CncReason> {
        self.ctrl.emit(SolveEvent::Kernel(self.mgr.stats()));
        self.ensure_clean()?;
        if self.ctrl.token().is_cancelled() {
            return Err(CncReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(CncReason::Timeout(self.effective_time_limit()));
        }
        Ok(())
    }

    /// Converts a pending engine abort into the corresponding
    /// [`CncReason`], reclaiming the aborted computation's garbage. Call
    /// after any BDD-heavy step whose results are about to be trusted.
    pub(crate) fn ensure_clean(&mut self) -> Result<(), CncReason> {
        if let Some(abort) = self.mgr.take_abort() {
            self.mgr.collect_garbage();
            return Err(match abort {
                AbortReason::NodeLimit { limit, .. } => CncReason::NodeLimit(limit),
                AbortReason::Hook => {
                    if self.ctrl.token().is_cancelled() {
                        CncReason::Cancelled
                    } else {
                        CncReason::Timeout(self.effective_time_limit())
                    }
                }
            });
        }
        Ok(())
    }

    /// Shared post-processing: verifies the run ended clean, derives the
    /// prefix-closed solution and the CSF, and assembles the
    /// [`Solution`] with this run's statistics.
    pub(crate) fn finish(
        &mut self,
        eq: &LanguageEquation,
        general: Automaton,
    ) -> Result<Solution, CncReason> {
        self.ensure_clean()?;
        let mut span = langeq_obs::span!("extract");
        let prefix_closed = general.prefix_close();
        let csf = prefix_closed.progressive(&eq.vars.u);
        span.field("csf_states", csf.num_states());
        drop(span);
        // The post-processing itself runs under the engine guards too.
        self.ensure_clean()?;
        let stats = self.stats(&general);
        Ok(Solution {
            general,
            prefix_closed,
            csf,
            stats,
        })
    }

    /// This run's statistics for the most general solution `general`, with
    /// the manager's kernel snapshot as of now.
    pub(crate) fn stats(&self, general: &Automaton) -> SolverStats {
        SolverStats {
            subset_states: general.num_states(),
            transitions: general.num_transitions(),
            images: self.images,
            duration: self.elapsed(),
            kernel: self.mgr.stats(),
        }
    }

    /// The duration to report in [`CncReason::Timeout`]: the configured
    /// relative limit when one was set, otherwise the elapsed time at the
    /// moment the control deadline fired.
    fn effective_time_limit(&self) -> Duration {
        self.limits.time_limit.unwrap_or_else(|| self.elapsed())
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.mgr.set_abort_hook(self.prev_hook.take());
        self.mgr.set_node_limit(self.prev_node_limit);
        self.mgr.set_reorder_policy(self.prev_reorder);
        if self.mgr.take_abort().is_some() {
            // An abort fired after the last `ensure_clean`; reclaim its
            // garbage so the manager hands back clean.
            self.mgr.collect_garbage();
        }
    }
}

/// The subset states discovered so far, keyed by their next-state form —
/// exactly as [`BddManager::cofactor_classes`] returns a successor — and
/// the worklist of states still to expand, in current-state form.
///
/// A successor that is already known costs one hash lookup; only a new one
/// is renamed `ns → cs`, once.
pub(crate) struct StateIndex {
    ns_to_cs: Vec<(VarId, VarId)>,
    index: HashMap<Bdd, StateId>,
    /// States still to expand: `(state, ξ over cs)`.
    pub(crate) work: VecDeque<(StateId, Bdd)>,
}

impl StateIndex {
    /// Seeds the index with the initial state `s0`, whose subset `xi0` is
    /// over the current-state variables: one `cs → ns` rename keys it.
    pub(crate) fn new(s0: StateId, xi0: Bdd, ns_to_cs: Vec<(VarId, VarId)>) -> Self {
        let cs_to_ns: Vec<(VarId, VarId)> = ns_to_cs.iter().map(|&(n, c)| (c, n)).collect();
        StateIndex {
            ns_to_cs,
            index: HashMap::from([(xi0.rename(&cs_to_ns), s0)]),
            work: VecDeque::from([(s0, xi0)]),
        }
    }

    /// The state of the successor subset `succ_ns`. A new one is renamed to
    /// current-state form, created by `add(&succ_cs, n)` with `n` the number
    /// of states discovered before it, and queued.
    pub(crate) fn intern(
        &mut self,
        succ_ns: Bdd,
        add: impl FnOnce(&Bdd, usize) -> StateId,
    ) -> StateId {
        let n = self.index.len();
        match self.index.entry(succ_ns) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let succ = e.key().rename(&self.ns_to_cs);
                let t = add(&succ, n);
                e.insert(t);
                self.work.push_back((t, succ));
                t
            }
        }
    }
}
