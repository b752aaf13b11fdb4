//! Cross-implementation equivalence: the partitioned solver (the paper's
//! contribution), the monolithic baseline, and the explicit Algorithm-1
//! pipeline must agree on the language of the most general prefix-closed
//! solution and of the CSF — Corollary 1 of the paper's appendix, checked
//! end-to-end over a family of circuits.

use langeq::prelude::*;
use langeq_core::algorithm1;
use langeq_image::ImageOptions;
use langeq_logic::gen;

/// Compares the partitioned and monolithic solvers; when `with_generic` is
/// set, also the explicit Algorithm-1 pipeline (which materialises every
/// intermediate automaton, so it is reserved for the small structured
/// circuits).
fn check(net: &Network, unknown: &[usize], with_generic: bool) {
    let p = LatchSplitProblem::new(net, unknown).expect("split");
    let part = SolveRequest::partitioned()
        .run(&p.equation)
        .into_result()
        .expect("partitioned solves");
    let mono = SolveRequest::monolithic()
        .run(&p.equation)
        .into_result()
        .expect("monolithic solves");
    let label = format!("{} / {:?}", net.name(), unknown);
    assert!(
        part.prefix_closed.equivalent(&mono.prefix_closed),
        "part vs mono prefix-closed: {label}"
    );
    assert!(part.csf.equivalent(&mono.csf), "part vs mono CSF: {label}");
    if with_generic {
        let generic = algorithm1::solve_generic(&p.equation);
        assert!(
            part.prefix_closed.equivalent(&generic.prefix_closed),
            "part vs generic prefix-closed: {label}"
        );
        assert!(
            part.csf.equivalent(&generic.csf),
            "part vs generic CSF: {label}"
        );
    }
    // Sanity on the result shape.
    assert!(part.general.is_complete());
    assert!(part.general.is_deterministic());
}

fn check_all(net: &Network, unknown: &[usize]) {
    check(net, unknown, true);
}

#[test]
fn figure3_all_splits() {
    let net = gen::figure3();
    for unknown in [vec![0], vec![1], vec![0, 1]] {
        check_all(&net, &unknown);
    }
}

#[test]
fn counter_splits() {
    let net = gen::counter("c3", 3);
    for unknown in [vec![0], vec![2], vec![0, 1], vec![1, 2]] {
        check_all(&net, &unknown);
    }
}

#[test]
fn shift_register_splits() {
    let net = gen::shift_register("sr3", 3);
    for unknown in [vec![0], vec![1], vec![2], vec![0, 2]] {
        check_all(&net, &unknown);
    }
}

#[test]
fn gray_counter_split() {
    let net = gen::gray_counter("gray3", 3);
    check_all(&net, &[1]);
    check_all(&net, &[0, 2]);
}

#[test]
fn sequence_detector_split() {
    let net = gen::sequence_detector("det", &[true, false, true]);
    check_all(&net, &[0]);
    check_all(&net, &[1, 2]);
}

#[test]
fn lfsr_split() {
    let net = gen::lfsr("lfsr3", 3, &[2, 1]);
    check_all(&net, &[0]);
    check_all(&net, &[1, 2]);
}

#[test]
fn small_random_controllers() {
    // Random logic: the explicit Algorithm-1 pipeline blows up here, so
    // compare the two symbolic solvers only (the generic pipeline is
    // covered by the structured circuits above). One representative
    // seed/split; the wider sweep is `random_controllers_heavy`.
    let net = gen::random_controller(&gen::ControllerCfg::new("rc3", 3, 2, 2, 4));
    check(&net, &[3], false);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    /// Chunk fusion changes evaluation order, never the answer: on small
    /// random controllers, a cluster threshold low enough to make the
    /// image layer fuse chunks gives the same solution as the default
    /// threshold, under which these controllers never reach chunk fusion.
    /// Some controllers' subset constructions run to tens of thousands of
    /// states; both solves share a state bound and must then stop alike.
    #[test]
    fn chunk_fusion_never_changes_the_solution(seed in 0u64..1 << 32) {
        let net = gen::random_controller(&gen::ControllerCfg::new("rcf", seed, 2, 2, 4));
        let p = LatchSplitProblem::new(&net, &[3]).expect("split");
        let solve = |image: ImageOptions| {
            SolveRequest::partitioned()
                .image_options(image)
                .max_states(1000)
                .run(&p.equation)
                .into_result()
        };
        let plain = solve(ImageOptions::default());
        let fused = solve(ImageOptions {
            cluster_threshold: 8,
            ..Default::default()
        });
        match (plain, fused) {
            (Ok(plain), Ok(fused)) => {
                proptest::prop_assert!(
                    fused.prefix_closed.equivalent(&plain.prefix_closed),
                    "seed {seed}: prefix-closed"
                );
                proptest::prop_assert!(fused.csf.equivalent(&plain.csf), "seed {seed}: CSF");
            }
            (plain, fused) => proptest::prop_assert_eq!(
                plain.err(),
                fused.err(),
                "seed {seed}: only one solve hit the state bound"
            ),
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    /// The paper's flow against the traditional one on small random
    /// controllers. The monolithic subset construction explores subsets the
    /// trimmed one collapses, so it gets a larger state bound; a case where
    /// it still hits that bound has nothing to compare.
    #[test]
    fn partitioned_equals_monolithic_on_random_controllers(seed in 0u64..1 << 32) {
        let net = gen::random_controller(&gen::ControllerCfg::new("rcm", seed, 2, 2, 3));
        let p = LatchSplitProblem::new(&net, &[2]).expect("split");
        let part = SolveRequest::partitioned()
            .max_states(1000)
            .run(&p.equation)
            .into_result()
            .expect("partitioned solves");
        match SolveRequest::monolithic().max_states(4000).run(&p.equation) {
            Outcome::Solved(mono) => {
                proptest::prop_assert!(
                    part.prefix_closed.equivalent(&mono.prefix_closed),
                    "seed {seed}: prefix-closed"
                );
                proptest::prop_assert!(part.csf.equivalent(&mono.csf), "seed {seed}: CSF");
            }
            Outcome::Cnc(reason) => {
                proptest::prop_assert_eq!(reason, CncReason::StateLimit(4000), "seed {seed}")
            }
        }
    }
}

#[test]
#[ignore = "takes minutes in debug builds; run with --ignored (ideally --release)"]
fn random_controllers_heavy() {
    // The wider sweep: more seeds and the harder half/half splits, where
    // the monolithic baseline grinds through large intermediate relations.
    for seed in [3, 17] {
        let net = gen::random_controller(&gen::ControllerCfg::new(
            &format!("rc{seed}"),
            seed,
            2,
            2,
            4,
        ));
        check(&net, &[0, 1], false);
        check(&net, &[3], false);
    }
}
