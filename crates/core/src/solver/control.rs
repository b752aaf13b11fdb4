//! Run control for a solve: cooperative cancellation, deadlines, and
//! progress observation.
//!
//! A [`Control`] is the caller-facing handle passed to
//! [`Solver::solve`](crate::solver::Solver::solve). It carries
//!
//! * a [`CancelToken`] — clonable, `Send + Sync`, settable from another
//!   thread (or a Ctrl-C handler); the solver and the BDD engine poll it
//!   cooperatively and return [`Outcome::Cnc`](crate::Outcome) with
//!   [`CncReason::Cancelled`](crate::CncReason) — nothing panics or unwinds,
//!   and the [`BddManager`](langeq_bdd::BddManager) remains usable;
//! * an optional **deadline** (absolute), combined with the per-run
//!   [`SolverLimits::time_limit`](crate::SolverLimits) (relative) into one
//!   effective deadline;
//! * an optional **progress observer** receiving [`SolveEvent`]s as the
//!   solve advances.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use langeq_bdd::BddStats;

use crate::solver::SolverKind;

/// A shareable cancellation flag.
///
/// Cloning is cheap (an `Arc`); all clones observe the same flag. The token
/// is `Send + Sync`, so it can be handed to another thread, a signal
/// handler, or a timer while the (single-threaded) solve runs.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A progress event emitted during a solve.
///
/// Events stream to the observer registered with
/// [`Control::with_observer`] (or
/// [`SolveRequest::on_progress`](crate::SolveRequest::on_progress)). Within
/// one solve, `discovered`, `total`, and the kernel's cumulative counters
/// (`peak_live_nodes`, `gc_runs`, the cache and unique-table counts) are
/// monotonically non-decreasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveEvent {
    /// The solve started.
    Started {
        /// Which solver flow is running.
        kind: SolverKind,
    },
    /// The subset construction visited a state (emitted once per popped
    /// worklist entry, before its images are computed).
    SubsetState {
        /// States discovered so far (including traps).
        discovered: usize,
        /// Worklist entries not yet explored (including the current one).
        frontier: usize,
    },
    /// A partitioned or monolithic image computation finished.
    ImageComputed {
        /// Images computed so far in this solve.
        total: usize,
    },
    /// Snapshot of the BDD kernel at a control point (once per explored
    /// subset state and between pipeline phases). Its counters are
    /// cumulative over the manager's lifetime.
    Kernel(BddStats),
}

/// A boxed progress callback (the form observers travel in between the
/// builder and the control).
pub type BoxedObserver = Box<dyn FnMut(&SolveEvent)>;

/// The run-control handle a [`Solver`](crate::solver::Solver) executes
/// against: cancellation token, deadline, progress observer.
///
/// `Control::default()` is a no-op control: never cancelled, no deadline, no
/// observer.
#[derive(Default)]
pub struct Control {
    token: CancelToken,
    deadline: Option<Instant>,
    observer: Option<RefCell<BoxedObserver>>,
}

impl std::fmt::Debug for Control {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Control")
            .field("cancelled", &self.token.is_cancelled())
            .field("deadline", &self.deadline)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl Control {
    /// A no-op control (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a cancellation token (e.g. one shared with a Ctrl-C
    /// handler).
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = token;
        self
    }

    /// Sets an absolute deadline; the solve returns
    /// [`CncReason::Timeout`](crate::CncReason) when it passes.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(self.deadline.map_or(deadline, |d| d.min(deadline)));
        self
    }

    /// Convenience for [`with_deadline`](Self::with_deadline): a deadline
    /// `timeout` from now. A timeout past `Instant`'s range sets none.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.with_deadline(deadline),
            None => self,
        }
    }

    /// Registers the progress observer.
    pub fn with_observer(self, observer: impl FnMut(&SolveEvent) + 'static) -> Self {
        self.with_boxed_observer(Box::new(observer))
    }

    /// [`with_observer`](Self::with_observer) for an already-boxed callback.
    pub fn with_boxed_observer(mut self, observer: BoxedObserver) -> Self {
        self.observer = Some(RefCell::new(observer));
        self
    }

    /// The cancellation token (clone it to cancel from elsewhere).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Delivers an event to the observer, if any.
    pub(crate) fn emit(&self, event: SolveEvent) {
        if let Some(obs) = &self.observer {
            (obs.borrow_mut())(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_shared_across_clones_and_threads() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let t2 = t.clone();
        std::thread::spawn(move || t2.cancel()).join().unwrap();
        assert!(t.is_cancelled());
    }

    #[test]
    fn control_combines_deadlines_and_emits() {
        let early = Instant::now();
        let late = early + Duration::from_secs(3600);
        let c = Control::new().with_deadline(late).with_deadline(early);
        assert_eq!(c.deadline(), Some(early));

        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = std::rc::Rc::clone(&seen);
        let c = Control::new().with_observer(move |e| seen2.borrow_mut().push(*e));
        c.emit(SolveEvent::Started {
            kind: SolverKind::Partitioned,
        });
        c.emit(SolveEvent::ImageComputed { total: 1 });
        assert_eq!(seen.borrow().len(), 2);
    }
}
