//! Cofactor-class decomposition: partitioning a function's top-variable
//! space by its distinct cofactors.
//!
//! This is the engine behind the explicit successor enumeration in the
//! subset construction of `langeq-core`: given `P(u, v, ns)` with the
//! `(u, v)` variables ordered *above* the `ns` variables, the decomposition
//! returns, for each distinct residual function `ξ'(ns)`, the BDD over
//! `(u, v)` describing exactly the letters that lead to it.
//!
//! The walk descends only through nodes labelled by split variables and
//! stops at the first node of each residual (its *root*), so it never
//! enters the residual block: its cost is the split-variable part of `f`
//! plus the guard conjunctions and disjunctions. The precondition is read
//! off the same walk — everything under a residual root lies deeper than
//! the root, so a deepest split level above every root reached proves it.
//! Only when that quick test fails does the exact check walk `f`'s support.

use std::collections::HashMap;
use std::ops::Range;

use crate::inner::{Inner, Ref, ONE, ZERO};
use crate::manager::{Bdd, BddManager};
use crate::VarId;

impl BddManager {
    /// Splits `f` into classes by its cofactors over `split` variables.
    ///
    /// Returns pairs `(guard, residual)` such that
    ///
    /// * each `guard` is a function of `split` variables only,
    /// * each `residual` is a function of the remaining variables only,
    /// * the guards are pairwise disjoint and cover exactly `∃rest . f`,
    /// * `f = ⋁ guardᵢ ∧ residualᵢ`,
    /// * residuals are distinct and never the zero function.
    ///
    /// The cost is linear in the split-variable nodes of `f` (memoised over
    /// subgraphs) plus the guard operations; the residuals' nodes are never
    /// visited when the split variables sit above every residual root.
    ///
    /// # Panics
    ///
    /// Panics if a variable of `f`'s support that is *not* in `split`
    /// appears above one that is — the split variables must form a prefix of
    /// the **live** variable order restricted to `f`'s support. (The solver
    /// crates guarantee this by construction of their variable universes,
    /// and preserve it under dynamic reordering with a reorder fence
    /// between the alphabet block and the state block; see
    /// [`BddManager::set_reorder_fences`].)
    pub fn cofactor_classes(&self, f: &Bdd, split: &[VarId]) -> Vec<(Bdd, Bdd)> {
        let root = self.raw_of(f);
        let classes = self.with_inner_pub(|inner| {
            let mut walk = Walk::new(inner, split);
            let run = walk.classes(inner, root);
            if !walk.prefix_evident() {
                walk.assert_split_prefix(inner, root);
            }
            walk.arena.truncate(run.end);
            walk.arena.split_off(run.start)
        });
        classes
            .into_iter()
            .map(|(g, r)| (self.wrap_raw(g), self.wrap_raw(r)))
            .collect()
    }
}

/// The memo of one decomposition.
struct Walk {
    /// `in_split[v]`: variable `v` is a split variable.
    in_split: Vec<bool>,
    /// Every visited node's classes, each node's as one consecutive run of
    /// `(guard, residual)` pairs.
    arena: Vec<(Ref, Ref)>,
    /// Split-labelled node → its run in `arena`.
    memo: HashMap<Ref, Range<usize>>,
    /// The deepest live level of a split variable the manager has.
    deepest_split: Option<u32>,
    /// The shallowest level of a non-terminal residual root reached.
    shallowest_root: u32,
}

impl Walk {
    fn new(inner: &Inner, split: &[VarId]) -> Self {
        let mut in_split = vec![false; inner.nvars() as usize];
        let mut deepest_split = None;
        // Ids the manager does not have cannot occur in any function.
        for v in split {
            if let Some(slot) = in_split.get_mut(v.0 as usize) {
                *slot = true;
                deepest_split = deepest_split.max(Some(inner.level_of_var(v.0)));
            }
        }
        Walk {
            in_split,
            arena: Vec::new(),
            memo: HashMap::new(),
            deepest_split,
            shallowest_root: u32::MAX,
        }
    }

    /// The classes of `f`, as a run in `arena`.
    fn classes(&mut self, inner: &mut Inner, f: Ref) -> Range<usize> {
        if f == ZERO {
            return 0..0;
        }
        // `expand` is `None` only for the terminal.
        let split_node = inner
            .expand(f)
            .filter(|&(var, _, _)| self.in_split[var as usize]);
        let Some((var, hi, lo)) = split_node else {
            // Whole remaining function is one residual class.
            if f != ONE {
                self.shallowest_root = self.shallowest_root.min(inner.level(f));
            }
            self.arena.push((ONE, f));
            return self.arena.len() - 1..self.arena.len();
        };
        if let Some(run) = self.memo.get(&f) {
            return run.clone();
        }
        let var_ref = inner.var_ref(var);
        let hi_run = self.classes(inner, hi);
        let lo_run = self.classes(inner, lo);
        // Merge: guard' = var ? guard_hi : guard_lo, grouped by residual.
        // Each child's residuals are distinct, so only a lo class can join
        // a hi one; the hi classes keep their order, new lo ones follow.
        let start = self.arena.len();
        for k in hi_run {
            let (g, r) = self.arena[k];
            let guard = inner.and(var_ref, g);
            if guard != ZERO {
                self.arena.push((guard, r));
            }
        }
        let hi_end = self.arena.len();
        for k in lo_run {
            let (g, r) = self.arena[k];
            let guard = inner.and(var_ref ^ 1, g);
            if guard == ZERO {
                continue;
            }
            match self.arena[start..hi_end]
                .iter_mut()
                .find(|(_, res)| *res == r)
            {
                Some((acc, _)) => *acc = inner.or(*acc, guard),
                None => self.arena.push((guard, r)),
            }
        }
        let run = start..self.arena.len();
        self.memo.insert(f, run.clone());
        run
    }

    /// The quick precondition test: the deepest split variable lies above
    /// every residual root the walk reached.
    fn prefix_evident(&self) -> bool {
        self.deepest_split
            .is_none_or(|deepest| deepest < self.shallowest_root)
    }

    /// The exact precondition check over `f`'s support, in live-level
    /// terms.
    fn assert_split_prefix(&self, inner: &Inner, f: Ref) {
        let support = inner.support(f);
        let levels = |in_split: bool| {
            support
                .iter()
                .filter(move |&&v| self.in_split[v as usize] == in_split)
                .map(|&v| inner.level_of_var(v))
        };
        if let (Some(ms), Some(mr)) = (levels(true).max(), levels(false).min()) {
            assert!(
                ms < mr,
                "split variables must be ordered above residual variables"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_partition_function() {
        let mgr = BddManager::new();
        let u = mgr.new_var();
        let v = mgr.new_var();
        let x = mgr.new_var();
        let y = mgr.new_var();
        // f = (u -> x&y) & (!u -> (v ? x : y))
        let f = mgr.ite(&u, &x.and(&y), &v.ite(&x, &y));
        let split = [u.support()[0], v.support()[0]];
        let classes = mgr.cofactor_classes(&f, &split);
        // Expected residuals: x&y (u=1), x (u=0,v=1), y (u=0,v=0).
        assert_eq!(classes.len(), 3);
        let mut cover = mgr.zero();
        let mut rebuilt = mgr.zero();
        for (g, r) in &classes {
            // Guards over split vars only; residuals over the rest.
            assert!(g.support().iter().all(|s| split.contains(s)));
            assert!(r.support().iter().all(|s| !split.contains(s)));
            assert!(!r.is_zero());
            assert!(g.and(&cover).is_zero(), "guards disjoint");
            cover = cover.or(g);
            rebuilt = rebuilt.or(&g.and(r));
        }
        assert_eq!(rebuilt, f);
        assert!(cover.is_one());
    }

    #[test]
    fn zero_function_has_no_classes() {
        let mgr = BddManager::new();
        let _ = mgr.new_vars(2);
        assert!(mgr.cofactor_classes(&mgr.zero(), &[VarId(0)]).is_empty());
    }

    #[test]
    fn constant_residual() {
        let mgr = BddManager::new();
        let u = mgr.new_var();
        // f = u: one class with residual ONE under guard u.
        let classes = mgr.cofactor_classes(&u, &u.support());
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].0, u);
        assert!(classes[0].1.is_one());
    }

    #[test]
    fn no_split_vars_in_support() {
        let mgr = BddManager::new();
        let u = mgr.new_var();
        let x = mgr.new_var();
        let f = x.clone();
        let classes = mgr.cofactor_classes(&f, &u.support());
        assert_eq!(classes.len(), 1);
        assert!(classes[0].0.is_one());
        assert_eq!(classes[0].1, f);
    }

    #[test]
    #[should_panic(expected = "split variables must be ordered above")]
    fn wrong_order_panics() {
        let mgr = BddManager::new();
        let x = mgr.new_var(); // below
        let u = mgr.new_var(); // above — but we split on u
        let f = x.and(&u);
        let _ = mgr.cofactor_classes(&f, &u.support());
    }

    /// Order u0 < x < u1, split {u0, u1}: u1 sits below the residual root
    /// x, so the quick test fails and the exact check decides.
    fn split_around_x() -> (BddManager, Bdd, Bdd, Bdd, [VarId; 2]) {
        let mgr = BddManager::new();
        let u0 = mgr.new_var();
        let x = mgr.new_var();
        let u1 = mgr.new_var();
        let split = [u0.support()[0], u1.support()[0]];
        (mgr, u0, x, u1, split)
    }

    #[test]
    #[should_panic(expected = "split variables must be ordered above")]
    fn split_var_under_a_residual_root_panics() {
        let (mgr, u0, x, u1, split) = split_around_x();
        let f = u0.and(&x).and(&u1);
        let _ = mgr.cofactor_classes(&f, &split);
    }

    #[test]
    fn split_var_outside_the_support_is_no_violation() {
        // u1 is deeper than x but absent from f: the contract is over f's
        // support.
        let (mgr, u0, x, _u1, split) = split_around_x();
        let f = u0.and(&x);
        let classes = mgr.cofactor_classes(&f, &split);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].0, u0);
        assert_eq!(classes[0].1, x);
    }

    #[test]
    fn guards_cover_exactly_domain() {
        let mgr = BddManager::new();
        let u = mgr.new_var();
        let x = mgr.new_var();
        // f defined only on u=1.
        let f = u.and(&x);
        let classes = mgr.cofactor_classes(&f, &u.support());
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].0, u);
        assert_eq!(classes[0].1, x);
    }
}
