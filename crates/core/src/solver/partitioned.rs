//! The paper's algorithm (§3.2): one modified subset construction over the
//! partitioned representation, embedding completion, complementation,
//! product and hiding.
//!
//! For every discovered subset state `ξ(cs)` (a BDD over the product state
//! variables `cs = (cs_f, cs_s)`):
//!
//! * the **non-conformance condition** is computed one output at a time,
//!
//!   `Qξ(u,v) = ⋁_j ∃ i,cs . [⋀_k u_k ≡ U_k] ∧ ¬C_j ∧ ξ(cs)`,
//!
//!   these `(u,v)` letters can reach the complemented specification's DC
//!   state, so they are redirected to the non-accepting trap `DCN`
//!   (prefix-closed trimming);
//! * the **subset successor relation** is one partitioned image,
//!
//!   `Pξ(u,v,ns) = ∃ i,cs . [⋀ u≡U] ∧ [⋀ ns≡T] ∧ ξ(cs)`, restricted to
//!   `¬Qξ`;
//! * the distinct cofactors of `Pξ` over `(u,v)` are exactly the successor
//!   subset states (`cofactor_classes`), renamed `ns → cs`;
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
//! ## The untrimmed ablation
//!
//! With [`PartitionedOptions::trim_dcn`] disabled, the solver instead runs
//! the *traditional* subset construction (same language as the monolithic
//! flow) while still using partitioned images: the specification partition
//! is extended with the completion bit `csd`, exactly as the monolithic
//! flow completes `S`, and subsets containing DC-paired product states are
//! explored rather than collapsed. This isolates the cost of the paper's
//! prefix-closed trimming in the ablation benchmarks.

use std::collections::{HashMap, VecDeque};

use langeq_automata::{Automaton, StateId};
use langeq_bdd::Bdd;
use langeq_image::ImageComputer;

use crate::equation::LanguageEquation;
use crate::solver::session::Session;
use crate::solver::{CncReason, PartitionedOptions, Solution};

/// The paper's flow: prefix-closed trimming via `Qξ` and the `DCN` trap.
#[allow(clippy::mutable_key_type)] // Bdd hashing is by stable node id
pub(crate) fn run_trimmed(
    eq: &LanguageEquation,
    opts: &PartitionedOptions,
    sess: &mut Session<'_>,
) -> Result<Solution, CncReason> {
    let mgr = eq.manager().clone();
    let vars = &eq.vars;
    let uv = vars.uv();
    let quantify = vars.partitioned_quantify();
    let ns_to_cs = vars.ns_to_cs();
    // ξ from-sets range over the product state vars; protect them from
    // compile-time elimination so the fused schedule applies to every call.
    let protect = vars.product_state_vars();

    // The partitioned relations, built once and reused for every ξ.
    let mut compile_span = langeq_obs::span!("compile");
    let u_parts = eq.u_parts();
    let mut pt_parts = u_parts.clone();
    pt_parts.extend(eq.product_transition_parts());
    let p_image = ImageComputer::with_protected(&mgr, &pt_parts, &quantify, &protect, opts.image);
    // One image per output: Qξ is accumulated "one output at a time".
    let q_images: Vec<ImageComputer> = eq
        .conformance_parts()
        .iter()
        .map(|c| {
            let mut parts = u_parts.clone();
            parts.push(c.not());
            ImageComputer::with_protected(&mgr, &parts, &quantify, &protect, opts.image)
        })
        .collect();
    compile_span.field("partitions", pt_parts.len());
    drop(compile_span);

    let mut aut = Automaton::new(&mgr, &uv);
    let mut index: HashMap<Bdd, StateId> = HashMap::new();
    let mut work: VecDeque<Bdd> = VecDeque::new();

    let xi0 = eq.initial_product_cube();
    let s0 = aut.add_named_state(true, "xi0");
    index.insert(xi0.clone(), s0);
    aut.set_initial(s0);
    work.push_back(xi0);

    let mut dcn: Option<StateId> = None;
    let mut dca: Option<StateId> = None;

    let mut fixpoint_span = langeq_obs::span!("fixpoint");
    while let Some(xi) = work.pop_front() {
        sess.checkpoint(aut.num_states(), work.len() + 1)?;
        let from = index[&xi];

        // Non-conformance letters, one output at a time with early exit.
        let mut q = mgr.zero();
        for qi in &q_images {
            q = q.or(&qi.image(&xi));
            sess.note_image();
            if q.is_one() {
                break;
            }
        }

        let p = p_image.image(&xi).and(&q.not());
        sess.note_image();

        let mut dom = mgr.zero();
        for (guard, succ_ns) in mgr.cofactor_classes(&p, &uv) {
            dom = dom.or(&guard);
            let succ = succ_ns.rename(&ns_to_cs);
            let to = match index.get(&succ) {
                Some(&t) => t,
                None => {
                    let t = aut.add_named_state(true, format!("xi{}", index.len()));
                    index.insert(succ.clone(), t);
                    work.push_back(succ);
                    t
                }
            };
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

/// The untrimmed ablation: traditional subset construction over the product
/// with the **completed** specification (extra `csd` bit), still driven by
/// partitioned images. Language-identical to the monolithic flow.
#[allow(clippy::mutable_key_type)] // Bdd hashing is by stable node id
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
    let ns_to_cs = vars.ns_to_cs_with_dc();
    compile_span.field("partitions", parts.len());
    drop(compile_span);

    let mut aut = Automaton::new(&mgr, &uv);
    let mut index: HashMap<Bdd, StateId> = HashMap::new();
    let mut work: VecDeque<Bdd> = VecDeque::new();

    let xi0 = eq.initial_product_cube().and(&csd.not());
    let s0 = aut.add_named_state(true, "xi0");
    index.insert(xi0.clone(), s0);
    aut.set_initial(s0);
    work.push_back(xi0);
    let mut dca: Option<StateId> = None;

    let mut fixpoint_span = langeq_obs::span!("fixpoint");
    while let Some(xi) = work.pop_front() {
        sess.checkpoint(aut.num_states(), work.len() + 1)?;
        let from = index[&xi];
        let p = p_image.image(&xi);
        sess.note_image();
        let mut dom = mgr.zero();
        for (guard, succ_ns) in mgr.cofactor_classes(&p, &uv) {
            dom = dom.or(&guard);
            let succ = succ_ns.rename(&ns_to_cs);
            let to = match index.get(&succ) {
                Some(&t) => t,
                None => {
                    // Accepting in the complemented answer iff the subset
                    // contains no DC-paired product state.
                    let contains_dc = !succ.and(&csd).is_zero();
                    let t = aut.add_named_state(
                        !contains_dc,
                        format!("xi{}{}", index.len(), if contains_dc { "+dc" } else { "" }),
                    );
                    index.insert(succ.clone(), t);
                    work.push_back(succ);
                    t
                }
            };
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
    use langeq_logic::gen;

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
