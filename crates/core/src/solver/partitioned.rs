//! The paper's algorithm (§3.2): one modified subset construction over the
//! partitioned representation, embedding completion, complementation,
//! product and hiding.
//!
//! For every discovered subset state `ξ(cs)` (a BDD over the product state
//! variables `cs = (cs_f, cs_s)`):
//!
//! * the **non-conformance condition** is one partitioned image,
//!
//!   `Qξ(u,v) = ∃ i,cs . [⋀_k u_k ≡ U_k] ∧ ¬⋀_j C_j ∧ ξ(cs)`;
//!
//!   these `(u,v)` letters can reach the complemented specification's DC
//!   state, so they are redirected to the non-accepting trap `DCN`
//!   (prefix-closed trimming);
//! * the **subset successor relation** is one partitioned image,
//!
//!   `Pξ(u,v,ns) = ∃ i,cs . [⋀ u≡U] ∧ [⋀ ns≡T] ∧ ξ(cs)`, restricted to
//!   `¬Qξ`;
//! * the distinct cofactors of `Pξ` over `(u,v)` are exactly the successor
//!   subset states (`cofactor_classes`); they are interned in that `ns`
//!   form, so only a newly discovered state is renamed `ns → cs`;
//! * letters covered by neither go to the accepting completion trap `DCA`
//!   (the deferred completion of `F`, justified by Theorem 1 of the
//!   appendix).
//!
//! The resulting automaton over `(u, v)` *is* the complement of the
//! determinized product — no complementation pass is needed because the
//! accepting/non-accepting interpretation is assigned directly (subset
//! states and `DCA` accept; `DCN` rejects). `PrefixClose` and `Progressive`
//! then carve out the Complete Sequential Flexibility.
//!
//! ## Qξ in one image
//!
//! The paper computes `Qξ` "one output at a time",
//! `⋁_j ∃ i,cs . [⋀ u≡U] ∧ ¬C_j ∧ ξ`. Since `∃` distributes over `∨`,
//! that is the same function as the single image above, which costs one
//! early-quantified image per subset state instead of one per output. The
//! conjunction `⋀_j C_j` is built once and stays small on every circuit
//! measured: 1,580 nodes on sim_s349, 1,467 on sim_s526, at most 324 on
//! the other Table-1 rows, at most 1,907 in the benchmark's `fixpoint`
//! pool and 6,464 in its `relation` pool. So it is not split into groups:
//! a split at the 1,000-node cluster threshold would cost sim_s349 and
//! sim_s526 a second image per state.
//!
//! ## The untrimmed ablation
//!
//! With [`PartitionedOptions::trim_dcn`] disabled, the solver instead runs
//! the *traditional* subset construction (same language as the monolithic
//! flow) while still using partitioned images: the specification partition
//! is extended with the completion bit `csd`, exactly as the monolithic
//! flow completes `S`, and subsets containing DC-paired product states are
//! explored rather than collapsed. This isolates the cost of the paper's
//! prefix-closed trimming in the ablation benchmarks.

use langeq_automata::{Automaton, StateId};
use langeq_image::{ImageComputer, ImageOptions};

use crate::equation::LanguageEquation;
use crate::solver::session::{Session, StateIndex};
use crate::solver::{CncReason, PartitionedOptions, Solution};

/// The paper's flow: prefix-closed trimming via `Qξ` and the `DCN` trap.
pub(crate) fn run_trimmed(
    eq: &LanguageEquation,
    opts: &PartitionedOptions,
    sess: &mut Session<'_>,
) -> Result<Solution, CncReason> {
    let mgr = eq.manager().clone();
    let vars = &eq.vars;
    let uv = vars.uv();
    let quantify = vars.partitioned_quantify();
    // ξ from-sets range over the product state vars; protect them from
    // compile-time elimination so the fused schedule applies to every call.
    let protect = vars.product_state_vars();

    // The partitioned relations, built once and reused for every ξ.
    let mut compile_span = langeq_obs::span!("compile");
    let mut pt_parts = eq.u_parts();
    pt_parts.extend(eq.product_transition_parts());
    let p_image = ImageComputer::with_protected(&mgr, &pt_parts, &quantify, &protect, opts.image);
    let q_image = q_image(eq, opts.image);
    compile_span.field("partitions", pt_parts.len());
    drop(compile_span);

    let mut aut = Automaton::new(&mgr, &uv);
    let s0 = aut.add_named_state(true, "xi0");
    aut.set_initial(s0);
    let mut states = StateIndex::new(s0, eq.initial_product_cube(), vars.ns_to_cs());

    let mut dcn: Option<StateId> = None;
    let mut dca: Option<StateId> = None;

    let mut fixpoint_span = langeq_obs::span!("fixpoint");
    while let Some((from, xi)) = states.work.pop_front() {
        sess.checkpoint(aut.num_states(), states.work.len() + 1)?;

        // Non-conformance letters.
        let q = q_image.image(&xi);
        sess.note_image();

        let p = p_image.image(&xi).and(&q.not());
        sess.note_image();

        let mut dom = mgr.zero();
        for (guard, succ_ns) in mgr.cofactor_classes(&p, &uv) {
            dom = dom.or(&guard);
            let to = states.intern(succ_ns, |_, n| aut.add_named_state(true, format!("xi{n}")));
            aut.add_transition(from, guard, to);
        }
        // Letters that can mis-conform are redirected to the non-accepting
        // trap (the paper's prefix-closed trimming).
        if !q.is_zero() {
            let t = *dcn.get_or_insert_with(|| aut.add_named_state(false, "DCN"));
            aut.add_transition(from, q.clone(), t);
        }
        // Uncovered conforming letters: F is undefined there — deferred
        // completion, accepting in the complemented answer.
        let rest = dom.or(&q).not();
        if !rest.is_zero() {
            let t = *dca.get_or_insert_with(|| aut.add_named_state(true, "DCA"));
            aut.add_transition(from, rest, t);
        }
    }
    fixpoint_span.field("subset_states", aut.num_states());
    drop(fixpoint_span);
    // Universal self-loops on the traps.
    if let Some(t) = dcn {
        aut.add_transition(t, mgr.one(), t);
    }
    if let Some(t) = dca {
        aut.add_transition(t, mgr.one(), t);
    }

    sess.finish(eq, aut)
}

/// The non-conformance image of all outputs at once:
/// `Qξ = ∃ i,cs . [⋀ u≡U] ∧ ¬⋀_j C_j ∧ ξ`.
fn q_image(eq: &LanguageEquation, image: ImageOptions) -> ImageComputer {
    let mgr = eq.manager();
    let vars = &eq.vars;
    let mut parts = eq.u_parts();
    parts.push(mgr.and_all(&eq.conformance_parts()).not());
    ImageComputer::with_protected(
        mgr,
        &parts,
        &vars.partitioned_quantify(),
        &vars.product_state_vars(),
        image,
    )
}

/// The untrimmed ablation: traditional subset construction over the product
/// with the **completed** specification (extra `csd` bit), still driven by
/// partitioned images. Language-identical to the monolithic flow.
pub(crate) fn run_untrimmed(
    eq: &LanguageEquation,
    opts: &PartitionedOptions,
    sess: &mut Session<'_>,
) -> Result<Solution, CncReason> {
    let mgr = eq.manager().clone();
    let vars = &eq.vars;
    let uv = vars.uv();
    let csd = mgr.var(vars.csd);
    let nsd = mgr.var(vars.nsd);

    // Completed-specification partition: while conforming and not in DC the
    // S latches follow T_k; entering or staying in DC forces the all-zero
    // code. The DC successor bit is `nsd ≡ csd ∨ ¬C`.
    let mut compile_span = langeq_obs::span!("compile");
    let conf_all = mgr.and_all(&eq.conformance_parts());
    let alive = csd.not().and(&conf_all);
    let mut parts = eq.u_parts();
    parts.extend(eq.f.transition_parts(&mgr));
    for latch in &eq.s.latches {
        parts.push(mgr.var(latch.ns).xnor(&alive.and(&latch.func)));
    }
    parts.push(nsd.xnor(&csd.or(&conf_all.not())));

    let mut quantify = vars.partitioned_quantify();
    quantify.push(vars.csd);
    // ξ mentions the product state vars and the DC bit: protect both.
    let mut protect = vars.product_state_vars();
    protect.push(vars.csd);
    let p_image = ImageComputer::with_protected(&mgr, &parts, &quantify, &protect, opts.image);
    compile_span.field("partitions", parts.len());
    drop(compile_span);

    let mut aut = Automaton::new(&mgr, &uv);
    let s0 = aut.add_named_state(true, "xi0");
    aut.set_initial(s0);
    let xi0 = eq.initial_product_cube().and(&csd.not());
    let mut states = StateIndex::new(s0, xi0, vars.ns_to_cs_with_dc());
    let mut dca: Option<StateId> = None;

    let mut fixpoint_span = langeq_obs::span!("fixpoint");
    while let Some((from, xi)) = states.work.pop_front() {
        sess.checkpoint(aut.num_states(), states.work.len() + 1)?;
        let p = p_image.image(&xi);
        sess.note_image();
        let mut dom = mgr.zero();
        for (guard, succ_ns) in mgr.cofactor_classes(&p, &uv) {
            dom = dom.or(&guard);
            let to = states.intern(succ_ns, |succ, n| {
                // Accepting in the complemented answer iff the subset
                // contains no DC-paired product state.
                let contains_dc = !succ.and(&csd).is_zero();
                aut.add_named_state(
                    !contains_dc,
                    format!("xi{n}{}", if contains_dc { "+dc" } else { "" }),
                )
            });
            aut.add_transition(from, guard, to);
        }
        let rest = dom.not();
        if !rest.is_zero() {
            let t = *dca.get_or_insert_with(|| aut.add_named_state(true, "DCA"));
            aut.add_transition(from, rest, t);
        }
    }
    fixpoint_span.field("subset_states", aut.num_states());
    drop(fixpoint_span);
    if let Some(t) = dca {
        aut.add_transition(t, mgr.one(), t);
    }

    sess.finish(eq, aut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equation::LatchSplitProblem;
    use crate::solver::{Outcome, SolveRequest};
    use langeq_bdd::Bdd;
    use langeq_logic::gen;
    use proptest::prelude::*;

    /// The paper's per-output form, `⋁_j ∃ i,cs . [⋀ u≡U] ∧ ¬C_j ∧ ξ`,
    /// computed without the image layer.
    fn q_per_output(eq: &LanguageEquation, xi: &Bdd) -> Bdd {
        let mgr = eq.manager();
        let u_rel = mgr.and_all(&eq.u_parts()).and(xi);
        let quantify = eq.vars.partitioned_quantify();
        let per_output: Vec<Bdd> = eq
            .conformance_parts()
            .iter()
            .map(|c| u_rel.and(&c.not()).exists(&quantify))
            .collect();
        mgr.or_all(&per_output)
    }

    /// The union of `count` cubes over the product state variables; cube
    /// `k` takes its literals from bits `16k..` of `values` and `care`.
    fn random_subset(eq: &LanguageEquation, count: usize, values: u64, care: u64) -> Bdd {
        let state = eq.vars.product_state_vars();
        assert!(state.len() <= 16, "16 bits per cube");
        let cubes: Vec<Bdd> = (0..count)
            .map(|k| {
                let lits: Vec<_> = state
                    .iter()
                    .enumerate()
                    .filter(|&(b, _)| care >> (16 * k + b) & 1 == 1)
                    .map(|(b, &v)| (v, values >> (16 * k + b) & 1 == 1))
                    .collect();
                eq.manager().cube(&lits)
            })
            .collect();
        eq.manager().or_all(&cubes)
    }

    /// The solver's one-image Qξ equals the per-output union on the
    /// initial subset and on one random subset.
    fn check_q(
        p: &LatchSplitProblem,
        count: usize,
        values: u64,
        care: u64,
    ) -> Result<(), TestCaseError> {
        let eq = &p.equation;
        let image = q_image(eq, ImageOptions::default());
        for xi in [
            eq.initial_product_cube(),
            random_subset(eq, count, values, care),
        ] {
            prop_assert!(image.image(&xi) == q_per_output(eq, &xi));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn one_image_q_equals_per_output_q_on_random_controllers(
            seed in 0u64..1 << 32,
            count in 1usize..5,
            values in any::<u64>(),
            care in any::<u64>(),
        ) {
            let net = gen::random_controller(&gen::ControllerCfg::new("rcq", seed, 2, 2, 3));
            let p = LatchSplitProblem::new(&net, &[2]).expect("split");
            check_q(&p, count, values, care)?;
        }

        #[test]
        fn one_image_q_equals_per_output_q_on_figure3(
            split in 0usize..3,
            count in 1usize..5,
            values in any::<u64>(),
            care in any::<u64>(),
        ) {
            let unknown = [&[0usize][..], &[1], &[0, 1]][split];
            let p = LatchSplitProblem::new(&gen::figure3(), unknown).expect("split");
            check_q(&p, count, values, care)?;
        }
    }

    fn solve_figure3_problem(p: &LatchSplitProblem, trim: bool) -> Solution {
        match SolveRequest::partitioned().trim_dcn(trim).run(&p.equation) {
            Outcome::Solved(s) => *s,
            Outcome::Cnc(r) => panic!("unexpected CNC: {r}"),
        }
    }

    fn solve_figure3(unknown: &[usize], trim: bool) -> Solution {
        let net = gen::figure3();
        let p = LatchSplitProblem::new(&net, unknown).unwrap();
        solve_figure3_problem(&p, trim)
    }

    #[test]
    fn figure3_solution_is_well_formed() {
        let sol = solve_figure3(&[1], true);
        // The most general solution is complete and deterministic.
        assert!(sol.general.is_complete());
        assert!(sol.general.is_deterministic());
        // Prefix-closed part: all states accepting.
        for s in sol.prefix_closed.reachable_states() {
            assert!(sol.prefix_closed.is_accepting(s));
        }
        // The CSF is nonempty (X_P exists, so the flexibility cannot be
        // empty) and input-progressive.
        assert!(sol.csf.initial().is_some());
        let eq_vars_u = {
            let net = gen::figure3();
            let p = LatchSplitProblem::new(&net, &[1]).unwrap();
            p.equation.vars.u.clone()
        };
        for s in sol.csf.reachable_states() {
            let other: Vec<_> = sol
                .csf
                .alphabet()
                .iter()
                .copied()
                .filter(|v| !eq_vars_u.contains(v))
                .collect();
            let cover = sol.csf.defined_labels(s).exists(&other);
            assert!(cover.is_one(), "CSF must be input-progressive");
        }
    }

    #[test]
    fn trimming_does_not_change_the_prefix_closed_language() {
        let net = gen::figure3();
        for unknown in [&[0usize][..], &[1], &[0, 1]] {
            // One problem (one manager) so the results are comparable.
            let p = LatchSplitProblem::new(&net, unknown).unwrap();
            let with = solve_figure3_problem(&p, true);
            let without = solve_figure3_problem(&p, false);
            assert!(
                with.csf.equivalent(&without.csf),
                "CSF mismatch for split {unknown:?}"
            );
            assert!(
                with.prefix_closed.equivalent(&without.prefix_closed),
                "prefix-closed mismatch for split {unknown:?}"
            );
            // Trimming can only shrink the general solution's language (it
            // drops words whose prefixes are already dead).
            assert!(with.general.is_contained_in(&without.general));
        }
    }

    #[test]
    fn splitting_all_latches_keeps_spec_behaviour() {
        // With every latch in X, F is purely combinational; the CSF must
        // still accept X_P's behaviour (checked fully in verify.rs tests;
        // here: nonempty).
        let sol = solve_figure3(&[0, 1], true);
        assert!(sol.csf.initial().is_some());
        assert!(sol.stats.subset_states >= 2);
    }
}
