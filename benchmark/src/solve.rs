//! One in-process solve: a fresh problem (and with it a fresh BDD
//! manager) plus `Solver::solve`, optionally traced through the
//! `Control` observer.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use langeq_bdd::BddStats;
use langeq_core::{
    Control, LatchSplitProblem, Monolithic, MonolithicOptions, Outcome, Partitioned,
    PartitionedOptions, SolveEvent, Solver, SolverLimits,
};
use langeq_logic::Network;

use crate::phases::{self, Event, Phases};
use crate::pool::Answer;

/// Limits every benchmark solve runs under. Screened members peak far below
/// the node limit and finish far inside the time limit, so a CNC here is a
/// regression, counted as a failed operation.
pub fn limits() -> SolverLimits {
    SolverLimits {
        node_limit: Some(8_000_000),
        time_limit: Some(Duration::from_secs(60)),
        max_states: Some(200_000),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    Part,
    Mono,
}

impl Flow {
    pub fn tag(self) -> &'static str {
        match self {
            Flow::Part => "part",
            Flow::Mono => "mono",
        }
    }
}

/// What one solve produced.
pub struct SolveRecord {
    /// Problem build plus `solve`.
    pub wall_ns: u64,
    /// The answer, or why there is none.
    pub answer: Result<Answer, String>,
    /// Set on traced solves.
    pub phases: Option<Phases>,
    /// Kernel counters of the solve's manager (fresh per solve).
    pub kernel: BddStats,
}

/// Solves `net` split at `split` with `flow`. The timed region is the
/// problem build plus `solve`; dropping the solution is not timed.
pub fn solve(
    net: &Network,
    split: &[usize],
    flow: Flow,
    traced: bool,
    limits: SolverLimits,
) -> SolveRecord {
    let stamps: Rc<RefCell<Vec<(Event, Instant)>>> =
        Rc::new(RefCell::new(Vec::with_capacity(if traced {
            1 << 16
        } else {
            0
        })));
    let ctrl = if traced {
        let sink = Rc::clone(&stamps);
        Control::new().with_observer(move |event| {
            let kind = match event {
                SolveEvent::SubsetState { .. } => Event::State,
                SolveEvent::ImageComputed { .. } => Event::Image,
                _ => return,
            };
            sink.borrow_mut().push((kind, Instant::now()));
        })
    } else {
        Control::new()
    };
    let t0 = Instant::now();
    let problem = match LatchSplitProblem::new(net, split) {
        Ok(p) => p,
        Err(e) => {
            return SolveRecord {
                wall_ns: nanos(t0.elapsed()),
                answer: Err(format!("latch split: {e}")),
                phases: None,
                kernel: BddStats::default(),
            }
        }
    };
    let built = t0.elapsed();
    let outcome = match flow {
        Flow::Part => {
            let mut options = PartitionedOptions::paper();
            options.limits = limits;
            Partitioned::new(options).solve(&problem.equation, &ctrl)
        }
        Flow::Mono => Monolithic::new(MonolithicOptions {
            limits,
            ..MonolithicOptions::default()
        })
        .solve(&problem.equation, &ctrl),
    };
    let end = t0.elapsed();
    let answer = match &outcome {
        Outcome::Solved(s) => Ok(Answer {
            csf_states: s.csf.num_states(),
            subset_states: s.stats.subset_states,
        }),
        Outcome::Cnc(reason) => Err(reason.to_string()),
    };
    let phases = traced.then(|| {
        let stamps: Vec<(Event, u64)> = stamps
            .borrow()
            .iter()
            .map(|&(e, at)| (e, nanos(at.duration_since(t0))))
            .collect();
        phases::split(nanos(built), &stamps, nanos(end))
    });
    SolveRecord {
        wall_ns: nanos(end),
        answer,
        phases,
        kernel: problem.equation.manager().stats(),
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
