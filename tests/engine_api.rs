//! Integration tests for the unified `Solver` engine API: builder
//! configuration, cooperative cancellation, deadline handling, progress
//! observation, and `Outcome` conversions — including the contract that a
//! cancelled solve leaves the `BddManager` immediately reusable.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use langeq::prelude::*;
use langeq_logic::gen;

fn midsize_problem() -> LatchSplitProblem {
    // A 6-latch counter split in half: enough subset states that several
    // checkpoints fire, small enough to stay fast.
    let net = gen::counter("c6", 6);
    LatchSplitProblem::new(&net, &[3, 4, 5]).expect("split")
}

#[test]
fn cancellation_mid_solve_returns_cnc_and_manager_stays_usable() {
    let p = midsize_problem();
    let token = CancelToken::new();

    // Cancel from *inside* the solve, after the second subset state — the
    // deterministic single-threaded equivalent of a Ctrl-C arriving midway.
    let trigger = token.clone();
    let outcome = SolveRequest::partitioned()
        .cancel_token(token)
        .on_progress(move |event| {
            if let SolveEvent::SubsetState { discovered, .. } = event {
                if *discovered >= 2 {
                    trigger.cancel();
                }
            }
        })
        .run(&p.equation);
    assert!(
        matches!(outcome, Outcome::Cnc(CncReason::Cancelled)),
        "expected cancellation, got {outcome:?}"
    );

    // Same problem, same BddManager: a fresh request must run to completion
    // (guards disarmed, no pending abort, no poisoned caches).
    let mgr = p.equation.manager();
    assert!(mgr.abort_reason().is_none());
    assert_eq!(mgr.node_limit(), None);
    let full = SolveRequest::partitioned().run(&p.equation);
    let solution = full.into_result().expect("uncancelled rerun solves");
    assert!(solution.csf.initial().is_some());

    // And the result after a cancellation matches a never-cancelled solve
    // on an independent problem instance.
    let fresh = midsize_problem();
    let reference = SolveRequest::partitioned()
        .run(&fresh.equation)
        .into_result()
        .expect("reference solves");
    assert_eq!(
        solution.general.num_states(),
        reference.general.num_states()
    );
    assert_eq!(solution.stats.subset_states, reference.stats.subset_states);
}

#[test]
fn cancellation_works_for_every_flow() {
    for kind in [
        SolverKind::Partitioned,
        SolverKind::Monolithic,
        SolverKind::Algorithm1,
    ] {
        let p = midsize_problem();
        let token = CancelToken::new();
        token.cancel();
        let outcome = SolveRequest::new(kind).cancel_token(token).run(&p.equation);
        assert!(
            matches!(outcome, Outcome::Cnc(CncReason::Cancelled)),
            "{kind}: expected Cancelled, got {outcome:?}"
        );
        // Manager reusable afterwards, whatever the flow.
        let again = SolveRequest::partitioned().run(&p.equation);
        assert!(again.into_result().is_ok(), "{kind}: rerun failed");
    }
}

#[test]
fn progress_events_are_monotone_and_complete() {
    let p = midsize_problem();
    let events: Rc<RefCell<Vec<SolveEvent>>> = Rc::default();
    let sink = Rc::clone(&events);
    let outcome = SolveRequest::partitioned()
        .on_progress(move |e| sink.borrow_mut().push(*e))
        .run(&p.equation);
    let solution = outcome.into_result().expect("solves");

    let events = events.borrow();
    assert!(
        matches!(
            events.first(),
            Some(SolveEvent::Started {
                kind: SolverKind::Partitioned
            })
        ),
        "first event must be Started, got {:?}",
        events.first()
    );

    let (mut last_states, mut last_images, mut last_peak) = (0usize, 0usize, 0usize);
    let (mut n_states, mut n_images, mut n_kernel) = (0usize, 0usize, 0usize);
    let mut last_lookups = 0u64;
    for e in events.iter() {
        match e {
            SolveEvent::SubsetState { discovered, .. } => {
                assert!(*discovered >= last_states, "discovered went backwards");
                last_states = *discovered;
                n_states += 1;
            }
            SolveEvent::ImageComputed { total } => {
                assert!(*total > last_images, "image counter must strictly increase");
                last_images = *total;
                n_images += 1;
            }
            SolveEvent::Kernel(k) => {
                assert!(k.peak_live_nodes >= last_peak, "peak went backwards");
                assert!(k.live_nodes <= k.peak_live_nodes, "live exceeds peak");
                assert!(k.cache_lookups >= last_lookups, "lookups went backwards");
                assert!(k.cache_hits <= k.cache_lookups, "hits exceed lookups");
                assert!(k.cache_evictions <= k.cache_puts, "evictions exceed puts");
                assert!(
                    k.cache_surviving_entries <= k.cache_swept_entries,
                    "survivors exceed swept"
                );
                assert!(
                    k.unique_probes >= k.unique_lookups,
                    "probe count below lookups"
                );
                last_peak = k.peak_live_nodes;
                last_lookups = k.cache_lookups;
                n_kernel += 1;
            }
            SolveEvent::Started { .. } => {}
        }
    }
    // One SubsetState + one Kernel snapshot per explored state (the DCN /
    // DCA trap states are synthesized, never explored, hence the slack of
    // two); the image counter in the events matches the final statistics.
    assert_eq!(n_states, n_kernel);
    assert!(n_states + 2 >= solution.stats.subset_states);
    assert_eq!(last_images, solution.stats.images);
    assert_eq!(n_images, solution.stats.images);
    // The kernel snapshot threads through to the final statistics.
    let kernel = &solution.stats.kernel;
    assert!(last_lookups > 0, "no cache traffic sampled");
    assert!(kernel.cache_lookups >= last_lookups);
    assert!(kernel.cache_hit_rate() > 0.0 && kernel.cache_hit_rate() <= 1.0);
    assert!((0.0..=1.0).contains(&kernel.gc_survival_rate()));
    assert!(kernel.avg_probe_length() >= 1.0);
}

#[test]
fn into_result_round_trips_both_ways() {
    let p = midsize_problem();
    let solved = SolveRequest::partitioned().run(&p.equation);
    let states = solved.solution().expect("solves").general.num_states();
    let round = Outcome::from(solved.into_result());
    assert_eq!(
        round.solution().expect("round trip").general.num_states(),
        states
    );

    let cnc = SolveRequest::partitioned().max_states(1).run(&p.equation);
    assert!(matches!(cnc, Outcome::Cnc(CncReason::StateLimit(1))));
    let err = cnc.into_result().expect_err("CNC converts to Err");
    assert_eq!(err, CncReason::StateLimit(1));
    assert!(matches!(
        Outcome::from(Err::<Solution, _>(err)),
        Outcome::Cnc(CncReason::StateLimit(1))
    ));
}

#[test]
fn node_limit_aborts_cooperatively_without_unwinding() {
    let p = midsize_problem();
    let baseline = p.equation.manager().stats().live_nodes;
    let outcome = SolveRequest::partitioned()
        .node_limit(baseline + 32)
        .run(&p.equation);
    assert!(matches!(outcome, Outcome::Cnc(CncReason::NodeLimit(_))));
    // Same manager solves fine once the limit is gone.
    let ok = SolveRequest::partitioned().run(&p.equation);
    assert!(ok.into_result().is_ok());
}

#[test]
fn control_deadline_reports_timeout() {
    let p = midsize_problem();
    let (solver, _) = SolveRequest::partitioned().build();
    let ctrl = Control::new().with_timeout(Duration::ZERO);
    let outcome = solver.solve(&p.equation, &ctrl);
    assert!(matches!(outcome, Outcome::Cnc(CncReason::Timeout(_))));
}

#[test]
fn time_limit_past_the_clock_range_means_no_limit() {
    // `Instant + Duration::MAX` overflows; such a limit must solve as if
    // unlimited, and so must the same span given as a control timeout.
    let p = LatchSplitProblem::new(&gen::figure3(), &[1]).expect("split");
    let sol = SolveRequest::partitioned()
        .time_limit(Duration::MAX)
        .run(&p.equation)
        .into_result()
        .expect("an unreachable time limit never fires");
    assert!(sol.csf.num_states() > 0);
    let (solver, _) = SolveRequest::monolithic().build();
    let ctrl = Control::new().with_timeout(Duration::MAX);
    assert!(solver.solve(&p.equation, &ctrl).solution().is_some());
}

#[test]
fn solver_kind_round_trips_through_its_names() {
    // The PR-1 free-function shims are gone; flows are now named values
    // that parse back from their display names (and the CLI aliases).
    for kind in [
        SolverKind::Partitioned,
        SolverKind::Monolithic,
        SolverKind::Algorithm1,
    ] {
        assert_eq!(kind.to_string().parse::<SolverKind>(), Ok(kind));
    }
    assert_eq!("part".parse(), Ok(SolverKind::Partitioned));
    assert_eq!("mono".parse(), Ok(SolverKind::Monolithic));
    assert_eq!("alg1".parse(), Ok(SolverKind::Algorithm1));
    assert!("warp".parse::<SolverKind>().is_err());
}

#[test]
fn flows_agree_when_driven_as_suite_configs() {
    // The batch layer's ConfigSpec is the new way to hold "a flow plus its
    // options"; the solvers it builds agree with each other.
    let p = midsize_problem();
    let part = langeq::core::ConfigSpec::new("p", SolverKind::Partitioned)
        .solver()
        .solve_unmonitored(&p.equation)
        .into_result()
        .expect("partitioned solves");
    let mono = langeq::core::ConfigSpec::new("m", SolverKind::Monolithic)
        .solver()
        .solve_unmonitored(&p.equation)
        .into_result()
        .expect("monolithic solves");
    assert!(part.csf.equivalent(&mono.csf));
}

#[test]
fn sifting_solve_matches_static_order_and_restores_the_policy() {
    let p = midsize_problem();
    let mgr = p.equation.manager().clone();
    let baseline = SolveRequest::partitioned()
        .run(&p.equation)
        .into_result()
        .expect("static-order solve");
    // Aggressive auto-sifting: a tiny threshold so passes actually fire
    // during the subset construction.
    let sifted = SolveRequest::partitioned()
        .reorder(langeq::core::ReorderPolicy::Sifting {
            auto_threshold: 256,
            max_growth: 1.3,
        })
        .run(&p.equation)
        .into_result()
        .expect("sifting solve");
    // Both solves share the manager, whose counters are cumulative.
    assert!(
        sifted.stats.kernel.reorders > baseline.stats.kernel.reorders,
        "sifting never fired"
    );
    assert!(
        baseline.csf.equivalent(&sifted.csf),
        "reordering changed the answer"
    );
    // The session restored the manager's policy on the way out.
    assert_eq!(
        mgr.reorder_policy(),
        langeq::core::ReorderPolicy::None,
        "run-scoped policy leaked past the session"
    );
    // And the manager's invariants survived the reorders.
    mgr.verify_cache_integrity()
        .expect("kernel invariants after a sifting solve");

    // The monolithic flow takes the same option.
    let mono = SolveRequest::monolithic()
        .reorder(langeq::core::ReorderPolicy::sifting())
        .run(&p.equation)
        .into_result()
        .expect("monolithic sifting solve");
    assert!(baseline.csf.equivalent(&mono.csf));
}
