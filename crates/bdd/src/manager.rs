//! The public, reference-counted surface of the BDD engine: [`BddManager`]
//! and the RAII handle [`Bdd`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::cube::CubeIter;
use crate::inner::{Inner, Ref, ReorderPolicy, ONE, ZERO};
use crate::VarId;

pub(crate) struct Shared {
    pub(crate) inner: RefCell<Inner>,
    /// Reference-count adjustments queued while `inner` was borrowed (this
    /// only happens when a handle is dropped during unwinding from inside an
    /// operation); drained at the next operation entry.
    pending: RefCell<Vec<(Ref, i32)>>,
}

impl Shared {
    fn adjust(&self, raw: Ref, d: i32) {
        match self.inner.try_borrow_mut() {
            Ok(mut inner) => inner.adjust_ext(raw >> 1, d),
            Err(_) => self.pending.borrow_mut().push((raw, d)),
        }
    }

    fn drain_pending(&self) {
        let mut p = self.pending.borrow_mut();
        if p.is_empty() {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        for (raw, d) in p.drain(..) {
            inner.adjust_ext(raw >> 1, d);
        }
    }
}

/// A shared handle to a BDD node store ("manager" in CUDD terminology).
///
/// All functions created by a manager live in one hash-consed node store, so
/// structural equality of [`Bdd`] handles is functional equality. Cloning the
/// manager is cheap (it is an `Rc`).
///
/// # Examples
///
/// ```
/// use langeq_bdd::BddManager;
/// let mgr = BddManager::new();
/// let x = mgr.new_var();
/// let y = mgr.new_var();
/// assert_eq!(x.and(&y), y.and(&x));
/// ```
#[derive(Clone)]
pub struct BddManager(Rc<Shared>);

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for BddManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BddManager")
            .field("vars", &stats.num_vars)
            .field("live_nodes", &stats.live_nodes)
            .finish()
    }
}

/// Aggregate statistics of a [`BddManager`], captured by
/// [`BddManager::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BddStats {
    /// Number of variables created so far.
    pub num_vars: usize,
    /// Nodes currently alive (reachable from external references after the
    /// last collection, plus everything created since).
    pub live_nodes: usize,
    /// High-water mark of `live_nodes`.
    pub peak_live_nodes: usize,
    /// Total nodes ever allocated (including reclaimed ones).
    pub allocated_nodes: u64,
    /// Number of garbage collections performed.
    pub gc_runs: u64,
    /// Computed-cache lookups.
    pub cache_lookups: u64,
    /// Computed-cache hits.
    pub cache_hits: u64,
    /// Occupied computed-cache entries: an **upper-bound estimate**. It is
    /// exact immediately after a GC sweep or a cache resize; between those
    /// points it grows with every write (overwrites included), saturating
    /// at `cache_capacity` — the hot path deliberately does not track exact
    /// occupancy.
    pub cache_entries: usize,
    /// Total computed-cache capacity (entries) right now; adaptive, so it
    /// moves with the workload.
    pub cache_capacity: usize,
    /// Computed-cache capacity changes (grows and shrinks) so far.
    pub cache_resizes: u64,
    /// Computed-cache insertions (cumulative).
    pub cache_puts: u64,
    /// Computed-cache insertions that overwrote a live entry holding a
    /// *different* key (conflict evictions). A faithful memo table would
    /// keep both entries; this kernel trades the colder one for bounded
    /// memory and hot sets that fit in L2/L3.
    pub cache_evictions: u64,
    /// Cache entries examined by GC sweeps (cumulative).
    pub cache_swept_entries: u64,
    /// Cache entries kept by GC sweeps because their operands and result
    /// were all still live (cumulative).
    pub cache_surviving_entries: u64,
    /// Unique-table lookups (cumulative).
    pub unique_lookups: u64,
    /// Unique-table probe steps across all lookups (cumulative); divide by
    /// [`unique_lookups`](Self::unique_lookups) for the mean probe length.
    pub unique_probes: u64,
    /// Dynamic-reorder passes run so far (manual
    /// [`BddManager::reorder`] calls and automatic sifting triggers).
    pub reorders: u64,
    /// Adjacent-level swaps performed across all reorder passes.
    pub reorder_swaps: u64,
    /// Wall-clock time spent inside reorder passes.
    pub reorder_time: std::time::Duration,
    /// Cumulative live-node change across reorder passes (negative =
    /// reordering shrank the store).
    pub reorder_node_delta: i64,
}

impl BddStats {
    /// Fraction of computed-cache lookups that hit, in `[0, 1]` (0 when no
    /// lookups happened yet).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Fraction of swept cache entries that survived garbage collection, in
    /// `[0, 1]` (0 before the first sweep).
    pub fn gc_survival_rate(&self) -> f64 {
        if self.cache_swept_entries == 0 {
            0.0
        } else {
            self.cache_surviving_entries as f64 / self.cache_swept_entries as f64
        }
    }

    /// Mean number of unique-table slots inspected per lookup (1.0 is a
    /// perfect hash; grows with table load).
    pub fn avg_probe_length(&self) -> f64 {
        if self.unique_lookups == 0 {
            0.0
        } else {
            self.unique_probes as f64 / self.unique_lookups as f64
        }
    }

    /// Occupied fraction of the computed cache, in `[0, 1]` — an upper
    /// bound, exact right after a GC sweep or resize (see
    /// [`cache_entries`](Self::cache_entries)).
    pub fn cache_occupancy(&self) -> f64 {
        if self.cache_capacity == 0 {
            0.0
        } else {
            self.cache_entries as f64 / self.cache_capacity as f64
        }
    }
}

impl BddManager {
    /// Creates an empty manager with no variables.
    pub fn new() -> Self {
        BddManager(Rc::new(Shared {
            inner: RefCell::new(Inner::new()),
            pending: RefCell::new(Vec::new()),
        }))
    }

    /// True if `self` and `other` are handles to the same manager.
    pub fn same_manager(&self, other: &BddManager) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }

    #[inline]
    fn check(&self, f: &Bdd) {
        assert!(
            Rc::ptr_eq(&self.0, &f.mgr),
            "Bdd belongs to a different BddManager"
        );
    }

    #[inline]
    pub(crate) fn wrap(&self, raw: Ref) -> Bdd {
        self.0.adjust(raw, 1);
        Bdd {
            raw,
            mgr: Rc::clone(&self.0),
        }
    }

    /// Runs `op` on the engine after draining pending refcount updates and
    /// giving the collector a chance to run.
    fn with_inner<T>(&self, op: impl FnOnce(&mut Inner) -> T) -> T {
        self.0.drain_pending();
        let mut inner = self.0.inner.borrow_mut();
        inner.maybe_gc();
        op(&mut inner)
    }

    /// Read-only access (no GC, no pending drain needed for correctness but
    /// drained anyway to keep counts tight).
    fn with_inner_ref<T>(&self, op: impl FnOnce(&Inner) -> T) -> T {
        self.0.drain_pending();
        let inner = self.0.inner.borrow();
        op(&inner)
    }

    // ----- constants & variables -------------------------------------------

    /// The constant true function.
    pub fn one(&self) -> Bdd {
        self.wrap(ONE)
    }

    /// The constant false function.
    pub fn zero(&self) -> Bdd {
        self.wrap(ZERO)
    }

    /// Creates a fresh variable at the end of the current order and returns
    /// its projection function.
    pub fn new_var(&self) -> Bdd {
        let raw = self.with_inner(|i| i.new_var());
        self.wrap(raw)
    }

    /// Creates `n` fresh variables (see [`BddManager::new_var`]).
    pub fn new_vars(&self, n: usize) -> Vec<Bdd> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// The projection function of an existing variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this manager.
    pub fn var(&self, v: VarId) -> Bdd {
        let raw = self.with_inner_ref(|i| {
            assert!(v.0 < i.nvars(), "unknown variable {v:?}");
            i.var_ref(v.0)
        });
        self.wrap(raw)
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.with_inner_ref(|i| i.nvars() as usize)
    }

    // ----- Boolean operations -----------------------------------------------

    /// If-then-else: `cond ? t : e`.
    pub fn ite(&self, cond: &Bdd, t: &Bdd, e: &Bdd) -> Bdd {
        self.check(cond);
        self.check(t);
        self.check(e);
        let raw = self.with_inner(|i| i.ite(cond.raw, t.raw, e.raw));
        self.wrap(raw)
    }

    /// Conjunction.
    pub fn and(&self, f: &Bdd, g: &Bdd) -> Bdd {
        self.check(f);
        self.check(g);
        let raw = self.with_inner(|i| i.and(f.raw, g.raw));
        self.wrap(raw)
    }

    /// Disjunction.
    pub fn or(&self, f: &Bdd, g: &Bdd) -> Bdd {
        self.check(f);
        self.check(g);
        let raw = self.with_inner(|i| i.or(f.raw, g.raw));
        self.wrap(raw)
    }

    /// Exclusive or.
    pub fn xor(&self, f: &Bdd, g: &Bdd) -> Bdd {
        self.check(f);
        self.check(g);
        let raw = self.with_inner(|i| i.xor(f.raw, g.raw));
        self.wrap(raw)
    }

    /// Equivalence (`!(f ^ g)`).
    pub fn xnor(&self, f: &Bdd, g: &Bdd) -> Bdd {
        self.check(f);
        self.check(g);
        let raw = self.with_inner(|i| i.xor(f.raw, g.raw) ^ 1);
        self.wrap(raw)
    }

    /// Implication `f -> g`.
    pub fn implies(&self, f: &Bdd, g: &Bdd) -> Bdd {
        self.check(f);
        self.check(g);
        let raw = self.with_inner(|i| i.ite(f.raw, g.raw, ONE));
        self.wrap(raw)
    }

    /// Negation (constant time thanks to complemented edges).
    pub fn not(&self, f: &Bdd) -> Bdd {
        self.check(f);
        self.wrap(f.raw ^ 1)
    }

    /// Conjunction of a sequence of functions (`one()` for an empty input).
    pub fn and_all<'a>(&self, fs: impl IntoIterator<Item = &'a Bdd>) -> Bdd {
        let mut acc = self.one();
        for f in fs {
            acc = self.and(&acc, f);
            if acc.is_zero() {
                break;
            }
        }
        acc
    }

    /// Disjunction of a sequence of functions (`zero()` for an empty input).
    pub fn or_all<'a>(&self, fs: impl IntoIterator<Item = &'a Bdd>) -> Bdd {
        let mut acc = self.zero();
        for f in fs {
            acc = self.or(&acc, f);
            if acc.is_one() {
                break;
            }
        }
        acc
    }

    // ----- quantification ----------------------------------------------------

    /// Builds the positive cube over `vars` used by the quantifiers.
    ///
    /// The cube is assembled bottom-up along the **live level order** (not
    /// the variable-id order), so it stays well-formed after dynamic
    /// reordering has permuted the levels.
    pub fn positive_cube(&self, vars: &[VarId]) -> Bdd {
        let mut sorted: Vec<u32> = vars.iter().map(|v| v.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let raw = self.with_inner(|i| {
            sorted.iter().for_each(|&v| {
                assert!(v < i.nvars(), "unknown variable v{v}");
            });
            sorted.sort_unstable_by_key(|&v| i.level_of_var(v));
            let mut acc = ONE;
            for &v in sorted.iter().rev() {
                acc = i.mk(v, acc, ZERO);
            }
            acc
        });
        self.wrap(raw)
    }

    /// Builds the cube (conjunction of literals) described by
    /// `(variable, phase)` pairs. Like [`positive_cube`](Self::positive_cube),
    /// assembled along the live level order.
    pub fn cube(&self, lits: &[(VarId, bool)]) -> Bdd {
        let mut sorted: Vec<(u32, bool)> = lits.iter().map(|&(v, s)| (v.0, s)).collect();
        sorted.sort_unstable();
        let raw = self.with_inner(|i| {
            sorted.iter().for_each(|&(v, _)| {
                assert!(v < i.nvars(), "unknown variable v{v}");
            });
            sorted.sort_by_key(|&(v, _)| i.level_of_var(v));
            let mut acc = ONE;
            for &(v, s) in sorted.iter().rev() {
                acc = if s {
                    i.mk(v, acc, ZERO)
                } else {
                    i.mk(v, ZERO, acc)
                };
            }
            acc
        });
        self.wrap(raw)
    }

    /// Existential quantification `∃ vars . f`.
    pub fn exists(&self, f: &Bdd, vars: &[VarId]) -> Bdd {
        let cube = self.positive_cube(vars);
        self.exists_cube(f, &cube)
    }

    /// Existential quantification with a pre-built positive cube.
    pub fn exists_cube(&self, f: &Bdd, cube: &Bdd) -> Bdd {
        self.check(f);
        self.check(cube);
        let raw = self.with_inner(|i| i.exists(f.raw, cube.raw));
        self.wrap(raw)
    }

    /// Universal quantification `∀ vars . f`.
    pub fn forall(&self, f: &Bdd, vars: &[VarId]) -> Bdd {
        let cube = self.positive_cube(vars);
        self.forall_cube(f, &cube)
    }

    /// Universal quantification with a pre-built positive cube.
    pub fn forall_cube(&self, f: &Bdd, cube: &Bdd) -> Bdd {
        self.check(f);
        self.check(cube);
        let raw = self.with_inner(|i| i.forall(f.raw, cube.raw));
        self.wrap(raw)
    }

    /// The relational product `∃ cube . f ∧ g` in a single pass — the
    /// operation at the heart of partitioned image computation.
    pub fn and_exists(&self, f: &Bdd, g: &Bdd, cube: &Bdd) -> Bdd {
        self.check(f);
        self.check(g);
        self.check(cube);
        let raw = self.with_inner(|i| i.and_exists(f.raw, g.raw, cube.raw));
        self.wrap(raw)
    }

    // ----- generalized cofactors ---------------------------------------------

    /// The Coudert–Madre generalized cofactor ("constrain"), `f ⇓ c`.
    ///
    /// The result agrees with `f` everywhere on the care set `c`
    /// (`constrain(f,c) ∧ c = f ∧ c`) and maps minterms outside `c` to the
    /// value of `f` at the variable-order-nearest minterm inside `c`. It can
    /// introduce variables of `c` not in `f`'s support and can grow; use
    /// [`restrict`](Self::restrict) when only simplification is wanted.
    ///
    /// For the degenerate care set `c = 0`, returns `f` unchanged.
    ///
    /// ```
    /// # use langeq_bdd::BddManager;
    /// let mgr = BddManager::new();
    /// let (a, b) = (mgr.new_var(), mgr.new_var());
    /// let f = a.xor(&b);
    /// let g = mgr.constrain(&f, &b);
    /// assert_eq!(g.and(&b), f.and(&b)); // agreement on the care set
    /// ```
    pub fn constrain(&self, f: &Bdd, c: &Bdd) -> Bdd {
        self.check(f);
        self.check(c);
        let raw = self.with_inner(|i| i.constrain(f.raw, c.raw));
        self.wrap(raw)
    }

    /// The "restrict" operator (sibling substitution): simplifies `f` using
    /// the care set `c` without ever introducing variables outside `f`'s
    /// support. Like [`constrain`](Self::constrain),
    /// `restrict(f,c) ∧ c = f ∧ c`.
    ///
    /// ```
    /// # use langeq_bdd::BddManager;
    /// let mgr = BddManager::new();
    /// let (a, b) = (mgr.new_var(), mgr.new_var());
    /// let f = a.and(&b);
    /// assert_eq!(mgr.restrict(&f, &a), b); // on the care set a=1, f is b
    /// ```
    pub fn restrict(&self, f: &Bdd, c: &Bdd) -> Bdd {
        self.check(f);
        self.check(c);
        let raw = self.with_inner(|i| i.restrict(f.raw, c.raw));
        self.wrap(raw)
    }

    // ----- substitution -----------------------------------------------------

    /// Replaces variable `v` in `f` by the function `g`.
    pub fn compose(&self, f: &Bdd, v: VarId, g: &Bdd) -> Bdd {
        self.vec_compose(f, &[(v, g.clone())])
    }

    /// Simultaneous substitution of functions for variables.
    pub fn vec_compose(&self, f: &Bdd, subst: &[(VarId, Bdd)]) -> Bdd {
        self.check(f);
        for (_, g) in subst {
            self.check(g);
        }
        let map: HashMap<u32, Ref> = subst.iter().map(|(v, g)| (v.0, g.raw)).collect();
        let raw = self.with_inner(|i| {
            let mut memo = HashMap::new();
            i.vec_compose(f.raw, &map, &mut memo)
        });
        self.wrap(raw)
    }

    /// Renames variables of `f` according to `map` (pairs of
    /// `(from, to)`).
    ///
    /// Uses a fast structural pass when the mapping preserves the level order
    /// of `f`'s support (the common case for interleaved current/next-state
    /// renaming) and falls back to general composition otherwise. The check
    /// compares **live levels**, not variable ids, so it stays sound after
    /// dynamic reordering (a reorder that breaks the interleaving simply
    /// routes renames through the general path).
    pub fn rename(&self, f: &Bdd, map: &[(VarId, VarId)]) -> Bdd {
        self.check(f);
        let var_map: HashMap<u32, u32> = map.iter().map(|&(a, b)| (a.0, b.0)).collect();
        let raw = self.with_inner(|i| {
            // Monotonicity check on the support, in level terms: walking
            // the support by ascending live level, the mapped variables'
            // levels must ascend too.
            let mut support = i.support(f.raw);
            support.sort_unstable_by_key(|&v| i.level_of_var(v));
            let mapped: Vec<u32> = support
                .iter()
                .map(|v| i.level_of_var(var_map.get(v).copied().unwrap_or(*v)))
                .collect();
            let monotone = mapped.windows(2).all(|w| w[0] < w[1]);
            if monotone {
                let mut memo = HashMap::new();
                i.rename_monotone(f.raw, &var_map, &mut memo)
            } else {
                let subst: HashMap<u32, Ref> = var_map
                    .iter()
                    .map(|(&from, &to)| (from, i.var_ref(to)))
                    .collect();
                let mut memo = HashMap::new();
                i.vec_compose(f.raw, &subst, &mut memo)
            }
        });
        self.wrap(raw)
    }

    /// Cofactor of `f` with respect to the literal `(v, val)`.
    pub fn cofactor(&self, f: &Bdd, v: VarId, val: bool) -> Bdd {
        self.check(f);
        let raw = self.with_inner(|i| {
            let mut memo = HashMap::new();
            i.restrict_var(f.raw, v.0, val, &mut memo)
        });
        self.wrap(raw)
    }

    // ----- inspection ---------------------------------------------------------

    /// Sorted support (variables `f` actually depends on).
    pub fn support(&self, f: &Bdd) -> Vec<VarId> {
        self.check(f);
        self.with_inner_ref(|i| i.support(f.raw).into_iter().map(VarId).collect())
    }

    /// Number of BDD nodes in `f` (including the terminal).
    pub fn node_count(&self, f: &Bdd) -> usize {
        self.check(f);
        self.with_inner_ref(|i| i.node_count(f.raw))
    }

    /// Number of satisfying assignments of `f` over `nvars` variables.
    pub fn sat_count(&self, f: &Bdd, nvars: usize) -> f64 {
        self.check(f);
        self.with_inner_ref(|i| i.sat_count(f.raw, nvars as u32))
    }

    /// Evaluates `f` under a total assignment indexed by variable.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the largest variable index in
    /// `f`'s support.
    pub fn eval(&self, f: &Bdd, assignment: &[bool]) -> bool {
        self.check(f);
        self.with_inner_ref(|i| i.eval(f.raw, assignment))
    }

    /// One satisfying sparse cube, or `None` for the zero function.
    pub fn pick_cube(&self, f: &Bdd) -> Option<Vec<(VarId, bool)>> {
        self.check(f);
        self.with_inner_ref(|i| {
            i.pick_cube(f.raw)
                .map(|c| c.into_iter().map(|(v, s)| (VarId(v), s)).collect())
        })
    }

    /// Snapshot of the manager's statistics.
    pub fn stats(&self) -> BddStats {
        self.with_inner_ref(|i| BddStats {
            num_vars: i.nvars() as usize,
            live_nodes: i.live(),
            peak_live_nodes: i.counters.peak_live,
            allocated_nodes: i.counters.allocated,
            gc_runs: i.counters.gc_runs,
            cache_lookups: i.counters.cache_lookups,
            cache_hits: i.counters.cache_hits,
            cache_entries: i.cache_entries(),
            cache_capacity: i.cache_capacity(),
            cache_resizes: i.counters.cache_resizes,
            cache_puts: i.counters.cache_puts,
            cache_evictions: i.counters.cache_evictions,
            cache_swept_entries: i.counters.cache_swept,
            cache_surviving_entries: i.counters.cache_survived,
            unique_lookups: i.counters.table_lookups,
            unique_probes: i.counters.table_probes,
            reorders: i.counters.reorders,
            reorder_swaps: i.counters.reorder_swaps,
            reorder_time: std::time::Duration::from_nanos(i.counters.reorder_nanos),
            reorder_node_delta: i.counters.reorder_node_delta,
        })
    }

    /// Test support: re-derives every computed-cache entry from scratch and
    /// checks it against the memoised result (see the kernel docs on the
    /// GC-surviving cache). Returns the number of verified entries.
    ///
    /// This is `pub` for the crate's integration/property tests only; it is
    /// not part of the stable API.
    #[doc(hidden)]
    pub fn verify_cache_integrity(&self) -> Result<usize, String> {
        self.0.drain_pending();
        self.0.inner.borrow_mut().verify_cache()
    }

    // ----- resource control ----------------------------------------------------

    /// Sets (or clears) the live-node limit.
    ///
    /// When an operation would allocate past the limit, the engine aborts
    /// **cooperatively**: the operation (and every subsequent one) returns a
    /// dummy constant and the manager records an
    /// [`AbortReason::NodeLimit`](crate::AbortReason) until
    /// [`take_abort`](Self::take_abort) clears it. Nothing is unwound and the
    /// manager stays consistent; callers discard the dummy results of the
    /// aborted step. Results produced *while an abort is pending* are
    /// meaningless — always check [`abort_reason`](Self::abort_reason) before
    /// trusting the output of a long computation.
    pub fn set_node_limit(&self, limit: Option<usize>) {
        self.0.drain_pending();
        self.0.inner.borrow_mut().set_node_limit(limit);
    }

    /// The current live-node limit, if any.
    pub fn node_limit(&self) -> Option<usize> {
        self.with_inner_ref(|i| i.node_limit())
    }

    /// Installs (or removes) the abort hook: a cheap predicate polled between
    /// operations and every few thousand node allocations. Returning `true`
    /// makes the engine abort cooperatively with
    /// [`AbortReason::Hook`](crate::AbortReason), exactly like a node-limit
    /// hit. The typical hook reads a cancellation flag shared with another
    /// thread and/or compares a deadline against `Instant::now()`.
    ///
    /// Returns the previously installed hook so that scoped installers (the
    /// solver session, the CLI's Ctrl-C guard) can restore it when they are
    /// done.
    pub fn set_abort_hook(
        &self,
        hook: Option<Box<dyn Fn() -> bool>>,
    ) -> Option<Box<dyn Fn() -> bool>> {
        self.0.drain_pending();
        self.0.inner.borrow_mut().set_abort_hook(hook)
    }

    /// The pending abort, if one fired and has not been taken yet.
    pub fn abort_reason(&self) -> Option<crate::AbortReason> {
        self.0.drain_pending();
        self.0.inner.borrow().abort()
    }

    /// Takes (and clears) the pending abort, returning the manager to normal
    /// operation. Garbage left by the aborted computation is reclaimed on the
    /// next collection; call [`collect_garbage`](Self::collect_garbage) to
    /// force that immediately.
    pub fn take_abort(&self) -> Option<crate::AbortReason> {
        self.0.drain_pending();
        self.0.inner.borrow_mut().take_abort()
    }

    /// Forces a full mark-and-sweep garbage collection.
    pub fn collect_garbage(&self) {
        self.0.drain_pending();
        self.0.inner.borrow_mut().gc();
    }

    // ----- dynamic variable reordering ------------------------------------------

    /// Sets the dynamic-reordering policy, returning the previous one (so
    /// scoped installers — the solver session — can restore it).
    ///
    /// With [`ReorderPolicy::Sifting`] a sifting pass runs automatically
    /// whenever the live-node count crosses the threshold **at an operation
    /// boundary** — never mid-operation, so a threshold crossed inside a
    /// long `apply` takes effect when the next operation starts. All
    /// existing [`Bdd`] handles remain valid across reorders and keep
    /// denoting the same functions (reordering rewrites nodes in place).
    pub fn set_reorder_policy(&self, policy: ReorderPolicy) -> ReorderPolicy {
        self.0.drain_pending();
        self.0.inner.borrow_mut().set_policy(policy)
    }

    /// The current dynamic-reordering policy.
    pub fn reorder_policy(&self) -> ReorderPolicy {
        self.with_inner_ref(|i| i.policy())
    }

    /// Runs one Rudell sifting pass now, regardless of the policy, and
    /// returns the live-node delta (negative = the store shrank). The
    /// computed cache is flushed; every [`Bdd`] handle stays valid.
    pub fn reorder(&self) -> i64 {
        self.0.drain_pending();
        self.0.inner.borrow_mut().reorder()
    }

    /// Installs reorder **fences**: level positions no variable may cross
    /// while sifting. A fence at `k` makes the variable sets of levels
    /// `[0, k)` and `[k, num_vars)` invariants of reordering — the solver
    /// layers fence their alphabet block above the state block so the
    /// cofactor-class decomposition's "split above residual" precondition
    /// survives any reorder. Out-of-range positions are ignored.
    pub fn set_reorder_fences(&self, fences: &[usize]) {
        self.0.drain_pending();
        self.0
            .inner
            .borrow_mut()
            .set_fences(fences.iter().map(|&f| f as u32).collect());
    }

    /// The current level (position in the live variable order) of `v`.
    pub fn level_of(&self, v: VarId) -> usize {
        self.with_inner_ref(|i| {
            assert!(v.0 < i.nvars(), "unknown variable {v:?}");
            i.level_of_var(v.0) as usize
        })
    }

    /// The live variable order: variable ids from the top level down.
    pub fn current_order(&self) -> Vec<VarId> {
        self.with_inner_ref(|i| i.level2var.iter().map(|&v| VarId(v)).collect())
    }

    // ----- internal plumbing for sibling modules --------------------------------

    pub(crate) fn raw_expand(&self, f: &Bdd) -> Option<(u32, Ref, Ref)> {
        self.with_inner_ref(|i| i.expand(f.raw))
    }

    pub(crate) fn wrap_raw(&self, raw: Ref) -> Bdd {
        self.wrap(raw)
    }

    /// Raw edge of a handle (no borrow of the engine).
    pub(crate) fn raw_of(&self, f: &Bdd) -> Ref {
        self.check(f);
        f.raw
    }

    /// Mutable engine access for sibling modules (same entry protocol as
    /// `with_inner`).
    pub(crate) fn with_inner_pub<T>(&self, op: impl FnOnce(&mut Inner) -> T) -> T {
        self.with_inner(op)
    }
}

/// A handle to a Boolean function in a [`BddManager`].
///
/// Handles are reference counted: while a `Bdd` is alive, the nodes of its
/// function survive garbage collection. Equality (`==`) is *functional*
/// equality thanks to hash-consing.
pub struct Bdd {
    pub(crate) raw: Ref,
    pub(crate) mgr: Rc<Shared>,
}

impl Bdd {
    fn manager_handle(&self) -> BddManager {
        BddManager(Rc::clone(&self.mgr))
    }

    /// The manager this function lives in.
    pub fn manager(&self) -> BddManager {
        self.manager_handle()
    }

    /// True if this is the constant true function.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.raw == ONE
    }

    /// True if this is the constant false function.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.raw == ZERO
    }

    /// True for either constant.
    #[inline]
    pub fn is_const(&self) -> bool {
        self.raw >> 1 == 0
    }

    /// Negation (constant time).
    pub fn not(&self) -> Bdd {
        self.manager_handle().not(self)
    }

    /// Conjunction with `other`.
    pub fn and(&self, other: &Bdd) -> Bdd {
        self.manager_handle().and(self, other)
    }

    /// Disjunction with `other`.
    pub fn or(&self, other: &Bdd) -> Bdd {
        self.manager_handle().or(self, other)
    }

    /// Exclusive or with `other`.
    pub fn xor(&self, other: &Bdd) -> Bdd {
        self.manager_handle().xor(self, other)
    }

    /// Equivalence with `other`.
    pub fn xnor(&self, other: &Bdd) -> Bdd {
        self.manager_handle().xnor(self, other)
    }

    /// Implication `self -> other`.
    pub fn implies(&self, other: &Bdd) -> Bdd {
        self.manager_handle().implies(self, other)
    }

    /// If-then-else with `self` as the condition.
    pub fn ite(&self, t: &Bdd, e: &Bdd) -> Bdd {
        self.manager_handle().ite(self, t, e)
    }

    /// Existential quantification.
    pub fn exists(&self, vars: &[VarId]) -> Bdd {
        self.manager_handle().exists(self, vars)
    }

    /// Universal quantification.
    pub fn forall(&self, vars: &[VarId]) -> Bdd {
        self.manager_handle().forall(self, vars)
    }

    /// Variable renaming; see [`BddManager::rename`].
    pub fn rename(&self, map: &[(VarId, VarId)]) -> Bdd {
        self.manager_handle().rename(self, map)
    }

    /// Cofactor with respect to a literal.
    pub fn cofactor(&self, v: VarId, val: bool) -> Bdd {
        self.manager_handle().cofactor(self, v, val)
    }

    /// Generalized cofactor against a care set; see
    /// [`BddManager::constrain`].
    pub fn constrain(&self, care: &Bdd) -> Bdd {
        self.manager_handle().constrain(self, care)
    }

    /// Care-set simplification without support growth; see
    /// [`BddManager::restrict`].
    pub fn restrict(&self, care: &Bdd) -> Bdd {
        self.manager_handle().restrict(self, care)
    }

    /// Sorted support.
    pub fn support(&self) -> Vec<VarId> {
        self.manager_handle().support(self)
    }

    /// Node count including the terminal.
    pub fn node_count(&self) -> usize {
        self.manager_handle().node_count(self)
    }

    /// Satisfying-assignment count over `nvars` variables.
    pub fn sat_count(&self, nvars: usize) -> f64 {
        self.manager_handle().sat_count(self, nvars)
    }

    /// Evaluation under a total assignment; see [`BddManager::eval`].
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.manager_handle().eval(self, assignment)
    }

    /// One satisfying sparse cube, or `None` for the zero function.
    pub fn pick_cube(&self) -> Option<Vec<(VarId, bool)>> {
        self.manager_handle().pick_cube(self)
    }

    /// Iterator over the satisfying sparse cubes of this function.
    pub fn iter_cubes(&self) -> CubeIter {
        CubeIter::new(self.clone())
    }

    /// True if `self → other` is a tautology (language/set containment).
    pub fn leq(&self, other: &Bdd) -> bool {
        self.manager_handle().implies(self, other).is_one()
    }

    /// Opaque identity of the underlying node edge; stable until the manager
    /// is dropped. Useful as a hash key alongside the manager identity.
    pub fn id(&self) -> u64 {
        self.raw as u64
    }
}

impl Clone for Bdd {
    fn clone(&self) -> Self {
        self.mgr.adjust(self.raw, 1);
        Bdd {
            raw: self.raw,
            mgr: Rc::clone(&self.mgr),
        }
    }
}

impl Drop for Bdd {
    fn drop(&mut self) {
        self.mgr.adjust(self.raw, -1);
    }
}

impl PartialEq for Bdd {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw && Rc::ptr_eq(&self.mgr, &other.mgr)
    }
}

impl Eq for Bdd {}

impl std::hash::Hash for Bdd {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
        (Rc::as_ptr(&self.mgr) as usize).hash(state);
    }
}

impl std::fmt::Debug for Bdd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_one() {
            write!(f, "Bdd(true)")
        } else if self.is_zero() {
            write!(f, "Bdd(false)")
        } else {
            write!(
                f,
                "Bdd(#{}{})",
                self.raw >> 1,
                if self.raw & 1 == 1 { "'" } else { "" }
            )
        }
    }
}

impl std::ops::Not for &Bdd {
    type Output = Bdd;
    fn not(self) -> Bdd {
        Bdd::not(self)
    }
}

impl std::ops::BitAnd for &Bdd {
    type Output = Bdd;
    fn bitand(self, rhs: &Bdd) -> Bdd {
        self.and(rhs)
    }
}

impl std::ops::BitOr for &Bdd {
    type Output = Bdd;
    fn bitor(self, rhs: &Bdd) -> Bdd {
        self.or(rhs)
    }
}

impl std::ops::BitXor for &Bdd {
    type Output = Bdd;
    fn bitxor(self, rhs: &Bdd) -> Bdd {
        self.xor(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_survive_gc() {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(8);
        let mut f = mgr.one();
        for (i, v) in vars.iter().enumerate() {
            let lit = if i % 2 == 0 { v.clone() } else { v.not() };
            f = f.and(&lit);
        }
        let before = f.clone();
        mgr.collect_garbage();
        // Rebuild and compare: hash consing must give the identical node.
        let mut g = mgr.one();
        for (i, v) in vars.iter().enumerate() {
            let lit = if i % 2 == 0 { v.clone() } else { v.not() };
            g = g.and(&lit);
        }
        assert_eq!(before, g);
    }

    #[test]
    fn dead_nodes_are_collected() {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(12);
        {
            let mut junk = mgr.zero();
            for v in &vars {
                junk = junk.or(&v.xor(&vars[0]));
            }
            assert!(mgr.stats().live_nodes > 13);
        }
        mgr.collect_garbage();
        // Only terminal + 12 pinned variables should remain.
        assert_eq!(mgr.stats().live_nodes, 13);
    }

    #[test]
    fn operators_match_methods() {
        let mgr = BddManager::new();
        let x = mgr.new_var();
        let y = mgr.new_var();
        assert_eq!(&x & &y, x.and(&y));
        assert_eq!(&x | &y, x.or(&y));
        assert_eq!(&x ^ &y, x.xor(&y));
        assert_eq!(!&x, x.not());
    }

    #[test]
    fn rename_interleaved_state_vars() {
        let mgr = BddManager::new();
        // Interleave cs/ns: cs0=v0, ns0=v1, cs1=v2, ns1=v3.
        let vs = mgr.new_vars(4);
        let (cs0, ns0, cs1, ns1) = (&vs[0], &vs[1], &vs[2], &vs[3]);
        let f = ns0.and(&ns1.not()).and(cs0).and(cs1);
        let renamed = f.rename(&[
            (ns0.support()[0], cs0.support()[0]),
            (ns1.support()[0], cs1.support()[0]),
        ]);
        // ns->cs collapses: cs0 & !cs1 & cs0 & cs1 == 0? No:
        // f = cs0 & cs1 & ns0 & !ns1; renaming ns0->cs0, ns1->cs1 gives
        // cs0 & cs1 & cs0 & !cs1 == 0.
        assert!(renamed.is_zero());
        // A pure next-state function renames cleanly.
        let g = ns0.xor(ns1);
        let g2 = g.rename(&[
            (ns0.support()[0], cs0.support()[0]),
            (ns1.support()[0], cs1.support()[0]),
        ]);
        assert_eq!(g2, cs0.xor(cs1));
    }

    #[test]
    fn rename_non_monotone_falls_back() {
        let mgr = BddManager::new();
        let vs = mgr.new_vars(3);
        let (a, b, c) = (&vs[0], &vs[1], &vs[2]);
        let f = a.and(&b.not()).or(c);
        // Swap a and c: order-reversing on the support.
        let va = a.support()[0];
        let vc = c.support()[0];
        let g = f.rename(&[(va, vc), (vc, va)]);
        let expected = c.and(&b.not()).or(a);
        assert_eq!(g, expected);
    }

    #[test]
    fn quantifier_api() {
        let mgr = BddManager::new();
        let vs = mgr.new_vars(3);
        let (a, b, c) = (&vs[0], &vs[1], &vs[2]);
        let f = a.and(b).or(&b.not().and(c));
        let va = a.support()[0];
        let ex = f.exists(&[va]);
        // ∃a. f == b | (!b & c) == b | c
        assert_eq!(ex, b.or(c));
        let fa = f.forall(&[va]);
        // ∀a. f == f[a=1] & f[a=0] == (b | (!b&c)) & (!b&c) == !b & c
        assert_eq!(fa, b.not().and(c));
    }

    #[test]
    fn and_exists_is_relational_product() {
        let mgr = BddManager::new();
        let vs = mgr.new_vars(4);
        let f = vs[0].xor(&vs[1]).and(&vs[2]);
        let g = vs[1].or(&vs[3]);
        let qvars = [vs[1].support()[0], vs[2].support()[0]];
        let cube = mgr.positive_cube(&qvars);
        let fused = mgr.and_exists(&f, &g, &cube);
        let reference = f.and(&g).exists(&qvars);
        assert_eq!(fused, reference);
    }

    #[test]
    fn cofactor_and_compose() {
        let mgr = BddManager::new();
        let vs = mgr.new_vars(3);
        let (a, b, c) = (&vs[0], &vs[1], &vs[2]);
        let f = a.ite(b, c);
        let va = a.support()[0];
        assert_eq!(f.cofactor(va, true), *b);
        assert_eq!(f.cofactor(va, false), *c);
        let composed = mgr.compose(&f, va, &b.xor(c));
        let expected = b.xor(c).ite(b, c);
        assert_eq!(composed, expected);
    }

    #[test]
    #[should_panic(expected = "different BddManager")]
    fn cross_manager_ops_panic() {
        let m1 = BddManager::new();
        let m2 = BddManager::new();
        let x = m1.new_var();
        let y = m2.new_var();
        let _ = x.and(&y);
    }

    #[test]
    fn sat_count_and_eval() {
        let mgr = BddManager::new();
        let vs = mgr.new_vars(4);
        let parity = vs.iter().fold(mgr.zero(), |acc, v| acc.xor(v));
        assert_eq!(parity.sat_count(4) as u64, 8);
        assert!(parity.eval(&[true, false, false, false]));
        assert!(!parity.eval(&[true, true, false, false]));
    }
}
