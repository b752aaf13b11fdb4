//! The monolithic baseline: the flow the paper compares against.
//!
//! Exactly as described in §4: the specification is completed *first* (which
//! requires one extra state variable, `csd/nsd`, because unreachable codes
//! cannot encode the DC state — they have successors); the monolithic
//! transition-output relations `TO_F` and `TO_S` are built as single BDDs;
//! the intermediate product is derived; the `(i, o)` variables are hidden by
//! existential quantification on the monolithic relation; and the subset
//! construction runs "in the traditional way" — every subset is explored,
//! including those containing the specification-complement's accepting DC
//! state (no prefix-closed trimming).
//!
//! Every one of these steps can blow up; the node limit turns such blow-ups
//! into faithful `CNC` outcomes, as in Table 1.

use langeq_automata::{Automaton, StateId};
use langeq_bdd::{Bdd, VarId};

use crate::equation::LanguageEquation;
use crate::solver::session::{Session, StateIndex};
use crate::solver::{CncReason, MonolithicOptions, Solution};

pub(crate) fn run(
    eq: &LanguageEquation,
    _opts: &MonolithicOptions,
    sess: &mut Session<'_>,
) -> Result<Solution, CncReason> {
    let mgr = eq.manager().clone();
    let vars = &eq.vars;
    let uv = vars.uv();

    // ---- monolithic relations --------------------------------------------
    // TO_F(i,v,u,o,cs_f,ns_f) = ∧[ns≡T] ∧ ∧[u≡U] ∧ ∧[o≡OF]
    let compile_span = langeq_obs::span!("compile");
    let mut to_f = mgr.one();
    for part in eq.f.transition_parts(&mgr) {
        to_f = to_f.and(&part);
    }
    for part in eq.u_parts() {
        to_f = to_f.and(&part);
    }
    for out in eq.f_o_outputs() {
        to_f = to_f.and(&mgr.var(out.var).xnor(&out.func));
    }
    // TO_S(i,o,cs_s,ns_s) = ∧[ns≡T] ∧ ∧[o≡OS]
    let mut to_s = mgr.one();
    for part in eq.s.transition_parts(&mgr) {
        to_s = to_s.and(&part);
    }
    let mut s_out = mgr.one();
    for out in &eq.s.outputs {
        s_out = s_out.and(&mgr.var(out.var).xnor(&out.func));
    }
    to_s = to_s.and(&s_out);

    // ---- completion of S (extra state bit csd/nsd) ------------------------
    // Undefined (i,o,cs) combinations of the FSM S:
    //   A(i,o,cs_s) = ¬ ∧_j [o_j ≡ OS_j]  (the complement of the output
    //   relation, as in §3.2 "Completion").
    let a = s_out.not();
    let csd = mgr.var(vars.csd);
    let nsd = mgr.var(vars.nsd);
    let zero_ns: Bdd = {
        let lits: Vec<(VarId, bool)> = vars.ns_s.iter().map(|&v| (v, false)).collect();
        mgr.cube(&lits)
    };
    let zero_cs: Bdd = {
        let lits: Vec<(VarId, bool)> = vars.cs_s.iter().map(|&v| (v, false)).collect();
        mgr.cube(&lits)
    };
    // TO_S' = ¬csd ∧ ( TO_S ∧ ¬nsd  ∨  A ∧ nsd ∧ 0(ns) )
    //       ∨  csd ∧ 0(cs) ∧ nsd ∧ 0(ns)         (DC universal self-loop)
    let normal = to_s.and(&nsd.not());
    let to_dc = a.and(&nsd).and(&zero_ns);
    let dc_loop = csd.and(&zero_cs).and(&nsd).and(&zero_ns);
    let to_s_complete = csd.not().and(&normal.or(&to_dc)).or(&dc_loop);

    // Complementing the (deterministic, complete) S is just a change of the
    // accepting set: the DC state (csd=1) becomes the only accepting state.
    // The relation itself is unchanged.

    // ---- product and hiding ------------------------------------------------
    let product = to_f.and(&to_s_complete);
    let mut io: Vec<VarId> = vars.i.clone();
    io.extend(&vars.o);
    let tr = product.exists(&io);
    drop(compile_span);
    // Relation construction is the monolithic flow's classic blow-up point;
    // surface an abort before entering the subset construction.
    sess.poll()?;

    // ---- traditional subset construction -----------------------------------
    let cs_all: Vec<VarId> = vars
        .cs_f
        .iter()
        .chain(vars.cs_s.iter())
        .copied()
        .chain([vars.csd])
        .collect();
    let cs_cube = mgr.positive_cube(&cs_all);
    // A product state is accepting for the determinized product D iff it
    // contains a (·, DC) pair — those become non-accepting in the final
    // complemented answer.
    let dc_marker = csd.clone();

    let mut aut = Automaton::new(&mgr, &uv);
    let s0 = aut.add_named_state(true, "xi0");
    aut.set_initial(s0);
    let xi0 = eq.initial_product_cube().and(&csd.not());
    let mut states = StateIndex::new(s0, xi0, vars.ns_to_cs_with_dc());
    let mut dca: Option<StateId> = None;

    let mut fixpoint_span = langeq_obs::span!("fixpoint");
    while let Some((from, xi)) = states.work.pop_front() {
        sess.checkpoint(aut.num_states(), states.work.len() + 1)?;
        // Monolithic image: one relational product against the full TR.
        let p = mgr.and_exists(&tr, &xi, &cs_cube);
        sess.note_image();
        let mut dom = mgr.zero();
        for (guard, succ_ns) in mgr.cofactor_classes(&p, &uv) {
            dom = dom.or(&guard);
            let to = states.intern(succ_ns, |succ, n| {
                // Accepting in the final answer iff the subset does NOT
                // contain the specification-complement's DC state.
                let contains_dc = !succ.and(&dc_marker).is_zero();
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
    use langeq_logic::gen;

    #[test]
    fn monolithic_matches_partitioned_on_figure3() {
        let net = gen::figure3();
        for unknown in [&[0usize][..], &[1], &[0, 1]] {
            let p = LatchSplitProblem::new(&net, unknown).unwrap();
            let mono = SolveRequest::monolithic()
                .run(&p.equation)
                .into_result()
                .expect("monolithic solves");
            let part = SolveRequest::partitioned()
                .run(&p.equation)
                .into_result()
                .expect("partitioned solves");
            let untrimmed = SolveRequest::partitioned()
                .trim_dcn(false)
                .run(&p.equation)
                .into_result()
                .expect("untrimmed solves");
            assert!(
                mono.csf.equivalent(&part.csf),
                "CSF languages differ for split {unknown:?}"
            );
            assert!(
                mono.prefix_closed.equivalent(&part.prefix_closed),
                "prefix-closed solutions differ for split {unknown:?}"
            );
            // The trimmed general solution loses only words that prefix
            // closure would discard anyway; the untrimmed partitioned flow
            // matches the traditional monolithic language exactly.
            assert!(
                part.general.is_contained_in(&mono.general),
                "trimmed general must be a sub-language for split {unknown:?}"
            );
            assert!(
                untrimmed.general.equivalent(&mono.general),
                "untrimmed general must equal the monolithic one for split {unknown:?}"
            );
        }
    }

    #[test]
    fn monolithic_on_counter_split() {
        let net = gen::counter("c4", 4);
        let p = LatchSplitProblem::new(&net, &[2, 3]).unwrap();
        let mono = SolveRequest::monolithic()
            .run(&p.equation)
            .into_result()
            .expect("monolithic solves");
        let part = SolveRequest::partitioned()
            .run(&p.equation)
            .into_result()
            .expect("partitioned solves");
        assert!(mono.csf.equivalent(&part.csf));
    }

    #[test]
    fn node_limit_produces_cnc() {
        let net = gen::random_controller(&gen::ControllerCfg::new("cnc", 7, 3, 3, 5));
        let p = LatchSplitProblem::new(&net, &[3, 4]).unwrap();
        let out = SolveRequest::monolithic()
            .node_limit(2_000)
            .run(&p.equation);
        assert!(matches!(out, Outcome::Cnc(CncReason::NodeLimit(_))));
        // The manager must remain usable for a subsequent partitioned run.
        let part = SolveRequest::partitioned().run(&p.equation);
        assert!(part.solution().is_some());
    }
}
