//! # langeq-image
//!
//! Partitioned **image computation** for transition systems represented as a
//! conjunction of small BDDs (the "partitioned transition relation").
//!
//! Given a partition `{P_1(x), …, P_n(x)}` (for a sequential network these
//! are the per-latch constraints `ns_k ≡ T_k(i, cs)` plus per-output
//! constraints `o_j ≡ O_j(i, cs)`), a set of variables to quantify `Q`
//! (typically the inputs `i` and current states `cs`), and a *from* set
//! `ξ(cs)`, the image is
//!
//! ```text
//! Img(ξ) = ∃Q . ξ ∧ P_1 ∧ … ∧ P_n
//! ```
//!
//! Building the full conjunction first (the *monolithic* approach) is often
//! infeasible; this crate implements the standard remedy the DATE'05 paper
//! leans on:
//!
//! * **clustering** — small conjuncts are merged up to a node-count
//!   threshold,
//! * **early quantification** — clusters are ordered by a greedy
//!   benefit heuristic (à la Ranjan et al., IWLS'95) and each variable of
//!   `Q` is quantified at the *last* cluster whose support mentions it, so
//!   intermediate products stay small. The fused
//!   [`and_exists`](langeq_bdd::BddManager::and_exists) operator performs
//!   conjunction and quantification in one pass.
//!
//! ## The fused schedule
//!
//! On top of the classic per-call chain, [`ImageComputer::new`] compiles a
//! second, *fused* schedule once per relation (see `DESIGN.md` §16):
//!
//! 1. **Pre-quantification** — a quantified variable whose support touches
//!    exactly one cluster is eliminated from that cluster at compile time
//!    (`H_i = ∃V_i . C_i`), sound whenever the *from* set does not mention
//!    it (checked per call; a hit falls back to the classic chain).
//! 2. **Chunk products** — consecutive pre-quantified clusters are grouped
//!    into node-budgeted chunks, and each chunk's product (plus its
//!    chunk-internal quantifications) is computed once, in chunk order, on
//!    the caller's manager — under its node limit, abort hook and reorder
//!    policy like any other operation. A chunk whose product exceeds the
//!    blow-up cap passes through unfused.
//! 3. The per-call image then runs the ordinary early-quantification chain
//!    over the (much shorter) fused cluster list.
//!
//! The fixpoint loops of [`reachable`]/[`backward_reachable`] amortise the
//! one-time fusion over every iteration. The "quantify only at the end"
//! mode ([`QuantSchedule::Late`]) is kept as the ablation baseline for the
//! benchmark suite.
//!
//! ```
//! use langeq_bdd::BddManager;
//! use langeq_image::{ImageComputer, ImageOptions};
//!
//! // A 2-bit counter: ns0 = !cs0, ns1 = cs0 ^ cs1.
//! let mgr = BddManager::new();
//! let cs0 = mgr.new_var(); let ns0 = mgr.new_var();
//! let cs1 = mgr.new_var(); let ns1 = mgr.new_var();
//! let p0 = ns0.xnor(&cs0.not());
//! let p1 = ns1.xnor(&cs0.xor(&cs1));
//! let quantify = [cs0.support()[0], cs1.support()[0]];
//! let img = ImageComputer::new(&mgr, &[p0, p1], &quantify, ImageOptions::default());
//! // From state 00 the only successor is 10 (ns0=1, ns1=0).
//! let from = cs0.not().and(&cs1.not());
//! let succ = img.image(&from);
//! assert_eq!(succ, ns0.and(&ns1.not()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use langeq_bdd::{Bdd, BddManager, VarId};
use langeq_obs::Histogram;

/// Quantification scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantSchedule {
    /// Quantify each variable at the last cluster that mentions it
    /// (early quantification). The default, and what the paper assumes.
    #[default]
    Early,
    /// Conjoin the full relation first and quantify once at the end —
    /// the monolithic baseline used in ablation benchmarks.
    Late,
}

/// Tuning knobs for [`ImageComputer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageOptions {
    /// Scheduling policy.
    pub schedule: QuantSchedule,
    /// Maximum BDD node count of a cluster; adjacent conjuncts are merged
    /// while below this size.
    pub cluster_threshold: usize,
}

impl Default for ImageOptions {
    fn default() -> Self {
        ImageOptions {
            schedule: QuantSchedule::Early,
            cluster_threshold: 1000,
        }
    }
}

/// Chunk node budget as a multiple of the cluster threshold.
const CHUNK_SPAN: usize = 4;
/// Blow-up cap for a chunk product as a multiple of the chunk budget; a
/// product that crosses it passes through unfused.
const BLOWUP: usize = 4;

/// The per-cluster step histogram, registered lazily in the process-wide
/// registry so scrape endpoints pick it up without plumbing.
fn cluster_seconds() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        langeq_obs::registry::global().histogram(
            "langeq_image_cluster_seconds",
            "Wall-clock seconds per cluster conjoin/quantify step of partitioned image computation.",
        )
    })
}

/// Forces this crate's process-wide metric families to exist (they
/// otherwise first register when an image computation runs). Scrape
/// endpoints call this at boot so the very first `/metrics` response
/// already carries `langeq_image_cluster_seconds` with zero observations.
pub fn register_metrics() {
    let _ = cluster_seconds();
}

#[derive(Debug, Clone)]
struct Cluster {
    func: Bdd,
    support: BTreeSet<VarId>,
}

impl Cluster {
    fn of(func: Bdd) -> Cluster {
        let support = func.support().into_iter().collect();
        Cluster { func, support }
    }
}

/// An ordered cluster chain with its per-step quantification cubes.
#[derive(Debug, Clone)]
struct Schedule {
    clusters: Vec<Cluster>,
    /// Positive cube to quantify together with cluster `k` (step 0 also
    /// absorbs the from-only variables).
    ///
    /// The compiled schedule needs no refresh under **dynamic variable
    /// reordering**: cluster membership and ordering derive from supports
    /// (order-independent), and a reorder rewrites nodes in place — the
    /// manager stays canonical, so these handles *are* the current
    /// structural form of their cube functions at every instant, already
    /// ordered by the live levels the quantifier recursions walk.
    step_cubes: Vec<Bdd>,
    /// The variable sets the step cubes were compiled from, retained so the
    /// sanitizer can re-derive and compare the cubes on every call — the
    /// executable form of the "no refresh needed under reordering" claim
    /// above.
    #[cfg(feature = "sanitize")]
    step_vars: Vec<Vec<VarId>>,
}

/// The compile-time-fused variant of the schedule (DESIGN.md §16).
#[derive(Debug, Clone)]
struct Fused {
    sched: Schedule,
    /// Variables eliminated at compile time (pre-quantified or folded into
    /// a chunk product). A *from* set mentioning any of them would make the
    /// elimination unsound, so [`ImageComputer::image`] checks the
    /// intersection per call and falls back to the classic chain on a hit.
    hazard: BTreeSet<VarId>,
    /// `quantify` minus the eliminated variables — what the fused chain
    /// still quantifies at run time.
    residual: Vec<VarId>,
}

/// A compiled image computation: a clustered, ordered partition with a
/// per-cluster quantification schedule (plus, by default, the fused
/// variant compiled once and reused by every [`image`](ImageComputer::image)
/// call — the inner loop of the paper's subset construction).
#[derive(Debug, Clone)]
pub struct ImageComputer {
    mgr: BddManager,
    classic: Schedule,
    fused: Option<Fused>,
    quantify: Vec<VarId>,
    schedule: QuantSchedule,
}

/// This crate's sanitize failure funnel (same diagnostic shape as
/// [`langeq_bdd::sanitize`]).
#[cfg(feature = "sanitize")]
#[cold]
#[inline(never)]
fn sanitize_fail(invariant: &str, detail: std::fmt::Arguments<'_>) -> ! {
    panic!("[langeq-sanitize] invariant violated: {invariant}: {detail}");
}

/// Greedy benefit ordering (pick next the cluster that lets the most
/// quantified variables die and introduces the fewest fresh ones) followed
/// by adjacent merging up to `threshold`. Constant-true conjuncts are
/// dropped; zero is kept (it annihilates images).
fn order_and_cluster(
    conjuncts: Vec<Cluster>,
    qset: &BTreeSet<VarId>,
    threshold: usize,
) -> Vec<Cluster> {
    let mut conjuncts: Vec<Cluster> = conjuncts.into_iter().filter(|c| !c.func.is_one()).collect();

    // ---- ordering: greedy benefit heuristic -------------------------
    // Pick next the cluster that (a) lets the most quantified variables
    // die (no remaining cluster mentions them), (b) introduces the
    // fewest new variables.
    let mut ordered: Vec<Cluster> = Vec::with_capacity(conjuncts.len());
    let mut seen_vars: BTreeSet<VarId> = BTreeSet::new();
    while !conjuncts.is_empty() {
        let mut best = 0usize;
        let mut best_score = i64::MIN;
        for (k, c) in conjuncts.iter().enumerate() {
            let mut dying = 0i64;
            let mut fresh = 0i64;
            for v in &c.support {
                let in_others = conjuncts
                    .iter()
                    .enumerate()
                    .any(|(j, o)| j != k && o.support.contains(v));
                if qset.contains(v) && !in_others {
                    dying += 1;
                }
                if !seen_vars.contains(v) {
                    fresh += 1;
                }
            }
            let score = dying * 4 - fresh;
            if score > best_score {
                best_score = score;
                best = k;
            }
        }
        let c = conjuncts.swap_remove(best);
        seen_vars.extend(c.support.iter().copied());
        ordered.push(c);
    }

    // ---- clustering: merge adjacent conjuncts up to the threshold ----
    let mut clusters: Vec<Cluster> = Vec::new();
    for c in ordered {
        if let Some(last) = clusters
            .last_mut()
            .filter(|last| last.func.node_count() + c.func.node_count() <= threshold)
        {
            let merged = last.func.and(&c.func);
            if merged.node_count() <= threshold {
                last.support = merged.support().into_iter().collect();
                last.func = merged;
                continue;
            }
        }
        clusters.push(c);
    }
    clusters
}

/// Per-step quantification cubes: variable `v` dies after the last cluster
/// that mentions it; variables mentioned by no cluster can only occur in
/// the from-set and are quantified at step 0.
fn finish_schedule(mgr: &BddManager, clusters: Vec<Cluster>, quantify: &[VarId]) -> Schedule {
    let mut step_vars: Vec<Vec<VarId>> = vec![Vec::new(); clusters.len()];
    let mut from_only: Vec<VarId> = Vec::new();
    for &v in quantify {
        let last = clusters.iter().rposition(|c| c.support.contains(&v));
        match last {
            Some(k) => step_vars[k].push(v),
            None => from_only.push(v),
        }
    }
    if let Some(first) = step_vars.first_mut() {
        first.extend(from_only.iter().copied());
    }
    let step_cubes = step_vars.iter().map(|vs| mgr.positive_cube(vs)).collect();
    Schedule {
        clusters,
        step_cubes,
        #[cfg(feature = "sanitize")]
        step_vars,
    }
}

/// Computes one chunk's product on the caller's manager: conjoin its
/// clusters in order, then quantify the chunk-internal variables. Returns
/// `None` — "pass through unfused" — when the product crosses `cap` after
/// any step, or when the manager aborts.
fn fuse_chunk(mgr: &BddManager, chunk: &[Cluster], vars: &[VarId], cap: usize) -> Option<Bdd> {
    let fits = |f: &Bdd| mgr.abort_reason().is_none() && f.node_count() <= cap;
    let (head, rest) = chunk.split_first()?;
    let mut acc = head.func.clone();
    for c in rest {
        acc = acc.and(&c.func);
        if !fits(&acc) {
            return None;
        }
    }
    let product = mgr.exists(&acc, vars);
    fits(&product).then_some(product)
}

/// Compiles the fused schedule from the classic cluster chain, or `None`
/// when fusion is structurally pointless (fewer than two clusters, nothing
/// eliminated, nothing merged) or the manager aborted mid-compile.
fn build_fused(
    mgr: &BddManager,
    classic: &[Cluster],
    quantify: &[VarId],
    protected: &BTreeSet<VarId>,
    opts: &ImageOptions,
) -> Option<Fused> {
    if classic.len() < 2 {
        return None;
    }

    // ---- L1: pre-quantify single-cluster variables -----------------------
    // Protected variables (state variables a future `from` may mention) are
    // never eliminated at compile time: quantifying them out of a cluster
    // before the from-set is conjoined in would be unsound, and the per-call
    // hazard fallback would otherwise disable the fused schedule on every
    // image call of a reachability fixpoint.
    let mut private: Vec<Vec<VarId>> = vec![Vec::new(); classic.len()];
    let mut eliminated: BTreeSet<VarId> = BTreeSet::new();
    for &v in quantify {
        if protected.contains(&v) {
            continue;
        }
        let mut holders = classic
            .iter()
            .enumerate()
            .filter(|(_, c)| c.support.contains(&v));
        if let Some((k, _)) = holders.next() {
            if holders.next().is_none() {
                private[k].push(v);
                eliminated.insert(v);
            }
        }
    }
    let mut pre: Vec<Cluster> = Vec::with_capacity(classic.len());
    for (c, vs) in classic.iter().zip(&private) {
        let func = if vs.is_empty() {
            c.func.clone()
        } else {
            mgr.exists(&c.func, vs)
        };
        if !func.is_one() {
            pre.push(Cluster::of(func));
        }
    }
    if mgr.abort_reason().is_some() {
        return None;
    }

    // ---- L2: chunk -------------------------------------------------------
    let budget = opts.cluster_threshold.saturating_mul(CHUNK_SPAN).max(64);
    let cap = budget.saturating_mul(BLOWUP);
    let mut chunks: Vec<(usize, usize)> = Vec::new(); // (first, len)
    let mut at = 0usize;
    while at < pre.len() {
        let mut len = 1usize;
        let mut total = pre[at].func.node_count();
        while at + len < pre.len() {
            let nc = pre[at + len].func.node_count();
            if total + nc > budget {
                break;
            }
            total += nc;
            len += 1;
        }
        chunks.push((at, len));
        at += len;
    }

    // Chunk-internal quantified variables: every holder inside one
    // multi-cluster chunk. Sound to eliminate *iff* the chunk fuses (its
    // product quantifies them out); an unfused chunk leaves them to the
    // residual run-time schedule.
    let mut chunk_vars: Vec<Vec<VarId>> = vec![Vec::new(); chunks.len()];
    for &v in quantify {
        if eliminated.contains(&v) || protected.contains(&v) {
            continue;
        }
        let holders: Vec<usize> = pre
            .iter()
            .enumerate()
            .filter(|(_, c)| c.support.contains(&v))
            .map(|(i, _)| i)
            .collect();
        if holders.is_empty() {
            continue; // from-only: quantified at step 0 of the residual chain
        }
        let home = chunks
            .iter()
            .position(|&(first, len)| holders.iter().all(|&h| h >= first && h < first + len));
        if let Some(j) = home {
            if chunks[j].1 >= 2 {
                chunk_vars[j].push(v);
            }
        }
    }

    // ---- fuse, in chunk order --------------------------------------------
    let mut fused_conjuncts: Vec<Cluster> = Vec::new();
    let mut merged_any = false;
    for (j, &(first, len)) in chunks.iter().enumerate() {
        let chunk = &pre[first..first + len];
        if len < 2 {
            fused_conjuncts.push(chunk[0].clone());
            continue;
        }
        let mut sp = langeq_obs::span!("image.fuse_chunk", first = first, len = len);
        let product = fuse_chunk(mgr, chunk, &chunk_vars[j], cap);
        sp.field("fused", product.is_some());
        match product {
            Some(product) => {
                fused_conjuncts.push(Cluster::of(product));
                eliminated.extend(chunk_vars[j].iter().copied());
                merged_any = true;
            }
            None => fused_conjuncts.extend(chunk.iter().cloned()),
        }
    }
    if mgr.abort_reason().is_some() {
        return None;
    }
    if eliminated.is_empty() && !merged_any && fused_conjuncts.len() == classic.len() {
        return None;
    }

    // ---- L3: order + cluster + cube the fused chain ----------------------
    let residual: Vec<VarId> = quantify
        .iter()
        .copied()
        .filter(|v| !eliminated.contains(v))
        .collect();
    let rset: BTreeSet<VarId> = residual.iter().copied().collect();
    let clusters = order_and_cluster(fused_conjuncts, &rset, opts.cluster_threshold);
    let sched = finish_schedule(mgr, clusters, &residual);
    Some(Fused {
        sched,
        hazard: eliminated,
        residual,
    })
}

impl ImageComputer {
    /// Compiles a partitioned relation into an ordered, clustered schedule
    /// (and, under [`QuantSchedule::Early`], the fused variant).
    ///
    /// * `parts` — the conjuncts of the transition relation,
    /// * `quantify` — variables to existentially quantify (inputs and
    ///   current-state variables); they may also appear in the `from`
    ///   argument of [`image`](Self::image).
    ///
    /// Without a protect-set, any quantified variable may be eliminated at
    /// compile time by the fused schedule, and an image call whose `from`
    /// mentions one falls back (correctly) to the classic chain. Callers
    /// that will pass state-dependent from-sets should use
    /// [`with_protected`](Self::with_protected) instead.
    pub fn new(mgr: &BddManager, parts: &[Bdd], quantify: &[VarId], opts: ImageOptions) -> Self {
        Self::with_protected(mgr, parts, quantify, &[], opts)
    }

    /// [`new`](Self::new) with a **protect-set**: quantified variables that
    /// future `from` arguments may mention (typically the current-state
    /// variables of a reachability fixpoint). Protected variables are never
    /// eliminated by the fused schedule's compile-time pre-quantification —
    /// they stay in the residual run-time schedule — so the fused chain
    /// stays applicable to every image call instead of tripping the hazard
    /// fallback. The protect-set changes evaluation strategy only, never
    /// the computed image.
    pub fn with_protected(
        mgr: &BddManager,
        parts: &[Bdd],
        quantify: &[VarId],
        protected: &[VarId],
        opts: ImageOptions,
    ) -> Self {
        let quantify: Vec<VarId> = {
            let mut q: Vec<VarId> = quantify.to_vec();
            q.sort_unstable();
            q.dedup();
            q
        };
        let qset: BTreeSet<VarId> = quantify.iter().copied().collect();
        let pset: BTreeSet<VarId> = protected.iter().copied().collect();
        let conjuncts: Vec<Cluster> = parts.iter().map(|p| Cluster::of(p.clone())).collect();
        let clusters = order_and_cluster(conjuncts, &qset, opts.cluster_threshold);
        let fused = if opts.schedule == QuantSchedule::Early {
            build_fused(mgr, &clusters, &quantify, &pset, &opts)
        } else {
            None
        };
        let classic = finish_schedule(mgr, clusters, &quantify);
        ImageComputer {
            mgr: mgr.clone(),
            classic,
            fused,
            quantify,
            schedule: opts.schedule,
        }
    }

    /// Step-cube currency audit: every compiled step cube must still be
    /// *the* canonical positive cube of its variable set — under dynamic
    /// reordering this is exactly the in-place-rewrite guarantee the
    /// schedule relies on. Skipped under a pending abort (cube
    /// construction would short-circuit and report a false mismatch).
    #[cfg(feature = "sanitize")]
    fn sanitize_step_cubes(&self) {
        if !langeq_bdd::sanitize::enabled() || self.mgr.abort_reason().is_some() {
            return;
        }
        let schedules: [Option<&Schedule>; 2] =
            [Some(&self.classic), self.fused.as_ref().map(|f| &f.sched)];
        for sched in schedules.into_iter().flatten() {
            for (k, (cube, vars)) in sched.step_cubes.iter().zip(&sched.step_vars).enumerate() {
                let want = self.mgr.positive_cube(vars);
                if self.mgr.abort_reason().is_some() {
                    return;
                }
                if *cube != want {
                    sanitize_fail(
                        "image-step-cube",
                        format_args!(
                            "step {k}: compiled cube diverged from positive_cube of its {} variables",
                            vars.len()
                        ),
                    );
                }
            }
        }
    }

    /// The number of clusters after merging (classic schedule).
    pub fn num_clusters(&self) -> usize {
        self.classic.clusters.len()
    }

    /// The number of clusters in the fused schedule, when one was compiled.
    pub fn num_fused_clusters(&self) -> Option<usize> {
        self.fused.as_ref().map(|f| f.sched.clusters.len())
    }

    /// The variables this computation quantifies.
    pub fn quantified_vars(&self) -> &[VarId] {
        &self.quantify
    }

    /// The ordinary early-quantification chain over `sched`, with the
    /// per-cluster spans and the `langeq_image_cluster_seconds` samples.
    fn run_early(&self, sched: &Schedule, from: &Bdd, quantify: &[VarId]) -> Bdd {
        if sched.clusters.is_empty() {
            return self.mgr.exists(from, quantify);
        }
        let mut acc = from.clone();
        for (k, (cluster, cube)) in sched.clusters.iter().zip(&sched.step_cubes).enumerate() {
            let sp = langeq_obs::span!("image.cluster", idx = k);
            let t0 = Instant::now();
            acc = self.mgr.and_exists(&acc, &cluster.func, cube);
            cluster_seconds().observe_ns(t0.elapsed().as_nanos() as u64);
            drop(sp);
            if acc.is_zero() || self.mgr.abort_reason().is_some() {
                return acc;
            }
        }
        acc
    }

    /// Computes `∃ quantify . from ∧ P_1 ∧ … ∧ P_n`.
    ///
    /// With [`QuantSchedule::Early`] the quantifications are interleaved with
    /// the conjunctions according to the compiled schedule — the fused
    /// schedule when one exists and `from` avoids the compile-time-eliminated
    /// variables, the classic chain otherwise; with
    /// [`QuantSchedule::Late`] the full product is built first (ablation
    /// baseline).
    /// Cooperative abort: when the manager records an abort (node limit,
    /// cancellation hook) the remaining steps are skipped and the returned
    /// function is a meaningless dummy — callers polling
    /// [`BddManager::abort_reason`] discard it, exactly as for a plain
    /// aborted operation.
    pub fn image(&self, from: &Bdd) -> Bdd {
        #[cfg(feature = "sanitize")]
        self.sanitize_step_cubes();
        match self.schedule {
            QuantSchedule::Early => {
                if let Some(fused) = &self.fused {
                    let hazard = !fused.hazard.is_empty()
                        && from.support().iter().any(|v| fused.hazard.contains(v));
                    if !hazard {
                        return self.run_early(&fused.sched, from, &fused.residual);
                    }
                }
                self.run_early(&self.classic, from, &self.quantify)
            }
            QuantSchedule::Late => {
                let mut acc = from.clone();
                for cluster in &self.classic.clusters {
                    acc = acc.and(&cluster.func);
                    if self.mgr.abort_reason().is_some() {
                        return acc;
                    }
                }
                self.mgr.exists(&acc, &self.quantify)
            }
        }
    }

    /// Computes the image of the constant-true from-set (i.e. the
    /// projection of the relation onto the unquantified variables).
    pub fn image_all(&self) -> Bdd {
        self.image(&self.mgr.one())
    }
}

/// Least fixpoint of the image: all states reachable from `init`.
///
/// `ns_to_cs` maps each next-state variable back to its current-state
/// variable (the result and `init` are expressed over current-state
/// variables).
///
/// # Examples
///
/// ```
/// use langeq_bdd::BddManager;
/// use langeq_image::{reachable, ImageComputer, ImageOptions};
///
/// // 2-bit counter again; all 4 states are reachable from 00.
/// let mgr = BddManager::new();
/// let cs0 = mgr.new_var(); let ns0 = mgr.new_var();
/// let cs1 = mgr.new_var(); let ns1 = mgr.new_var();
/// let parts = [ns0.xnor(&cs0.not()), ns1.xnor(&cs0.xor(&cs1))];
/// let q = [cs0.support()[0], cs1.support()[0]];
/// let img = ImageComputer::new(&mgr, &parts, &q, ImageOptions::default());
/// let init = cs0.not().and(&cs1.not());
/// let map = [(ns0.support()[0], cs0.support()[0]), (ns1.support()[0], cs1.support()[0])];
/// let r = reachable(&img, &init, &map);
/// assert!(r.is_one());
/// ```
pub fn reachable(img: &ImageComputer, init: &Bdd, ns_to_cs: &[(VarId, VarId)]) -> Bdd {
    let mut reached = init.clone();
    let mut frontier = init.clone();
    while !frontier.is_zero() {
        let next_ns = img.image(&frontier);
        let next_cs = next_ns.rename(ns_to_cs);
        frontier = next_cs.and(&reached.not());
        reached = reached.or(&frontier);
    }
    reached
}

/// Least fixpoint of the **pre-image**: all states that can reach a state
/// in `targets` (including `targets` itself).
///
/// The [`ImageComputer`] is direction-agnostic — it evaluates
/// `∃ quantify . from ∧ P₁ ∧ … ∧ Pₙ` — so backward analysis uses the *same*
/// compiled relation with the quantification set `inputs ∪ ns` instead of
/// `inputs ∪ cs`: pass a computer built that way as `pre`. `targets` and
/// the result are expressed over current-state variables; `cs_to_ns` maps
/// each current-state variable to its next-state partner.
///
/// # Examples
///
/// ```
/// use langeq_bdd::BddManager;
/// use langeq_image::{backward_reachable, ImageComputer, ImageOptions};
///
/// // 1-bit toggle: ns = !cs. Every state can reach state 1.
/// let mgr = BddManager::new();
/// let cs = mgr.new_var(); let ns = mgr.new_var();
/// let parts = [ns.xnor(&cs.not())];
/// let pre = ImageComputer::new(&mgr, &parts, &ns.support(), ImageOptions::default());
/// let bad = cs.clone(); // target: cs = 1
/// let can_reach = backward_reachable(&pre, &bad, &[(cs.support()[0], ns.support()[0])]);
/// assert!(can_reach.is_one());
/// ```
pub fn backward_reachable(pre: &ImageComputer, targets: &Bdd, cs_to_ns: &[(VarId, VarId)]) -> Bdd {
    let mut reached = targets.clone();
    let mut frontier = targets.clone();
    while !frontier.is_zero() {
        let as_ns = frontier.rename(cs_to_ns);
        let pre_cs = pre.image(&as_ns);
        frontier = pre_cs.and(&reached.not());
        reached = reached.or(&frontier);
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference: conjoin everything, then quantify.
    fn naive_image(mgr: &BddManager, parts: &[Bdd], quantify: &[VarId], from: &Bdd) -> Bdd {
        let mut acc = from.clone();
        for p in parts {
            acc = acc.and(p);
        }
        mgr.exists(&acc, quantify)
    }

    /// Parts, quantified vars, ns->cs map, and initial-state cube.
    type CounterParts = (Vec<Bdd>, Vec<VarId>, Vec<(VarId, VarId)>, Bdd);

    /// Builds a 3-bit counter with enable input.
    /// ns_k = cs_k ^ (en & carry), carry = cs_0 & .. & cs_{k-1}.
    fn counter(mgr: &BddManager) -> CounterParts {
        let en = mgr.new_var();
        let mut parts = Vec::new();
        let mut quantify = vec![en.support()[0]];
        let mut map = Vec::new();
        let mut carry = en.clone();
        let mut init = mgr.one();
        for _ in 0..3 {
            let cs = mgr.new_var();
            let ns = mgr.new_var();
            let t = cs.xor(&carry);
            parts.push(ns.xnor(&t));
            carry = carry.and(&cs);
            quantify.push(cs.support()[0]);
            map.push((ns.support()[0], cs.support()[0]));
            init = init.and(&cs.not());
        }
        (parts, quantify, map, init)
    }

    /// A banked toggler: `banks` groups of `width` latches, each latch
    /// driven through its own **private** input (`ns = cs ^ i`), plus one
    /// shared enable gating every bank. Private inputs make the fused
    /// schedule's pre-quantification and chunk products non-trivial.
    fn banked(mgr: &BddManager, banks: usize, width: usize) -> CounterParts {
        let en = mgr.new_var();
        let mut parts = Vec::new();
        let mut quantify = vec![en.support()[0]];
        let mut map = Vec::new();
        let mut init = mgr.one();
        for _ in 0..banks {
            for _ in 0..width {
                let i = mgr.new_var();
                let cs = mgr.new_var();
                let ns = mgr.new_var();
                let t = cs.xor(&i.and(&en));
                parts.push(ns.xnor(&t));
                quantify.push(i.support()[0]);
                quantify.push(cs.support()[0]);
                map.push((ns.support()[0], cs.support()[0]));
                init = init.and(&cs.not());
            }
        }
        (parts, quantify, map, init)
    }

    #[test]
    fn image_matches_naive_on_counter() {
        let mgr = BddManager::new();
        let (parts, quantify, _, init) = counter(&mgr);
        for opts in [
            ImageOptions::default(),
            ImageOptions {
                schedule: QuantSchedule::Late,
                ..Default::default()
            },
            ImageOptions {
                cluster_threshold: 1,
                ..Default::default()
            },
        ] {
            let img = ImageComputer::new(&mgr, &parts, &quantify, opts);
            let got = img.image(&init);
            let want = naive_image(&mgr, &parts, &quantify, &init);
            assert_eq!(got, want, "options {opts:?}");
        }
    }

    #[test]
    fn fused_schedule_matches_naive_on_banked_network() {
        let mgr = BddManager::new();
        let (parts, quantify, _, init) = banked(&mgr, 3, 2);
        let opts = ImageOptions {
            cluster_threshold: 8,
            ..Default::default()
        };
        let img = ImageComputer::new(&mgr, &parts, &quantify, opts);
        assert!(
            img.fused.is_some(),
            "private inputs must produce a fused schedule"
        );
        let got = img.image(&init);
        let want = naive_image(&mgr, &parts, &quantify, &init);
        assert_eq!(got, want);
        // The fused chain must actually be shorter than the classic one.
        assert!(img.num_fused_clusters().unwrap() < img.num_clusters());
    }

    /// Chunk fusion runs on the caller's manager, so an armed sifting
    /// policy may reorder mid-compile: the schedule compiled across that
    /// reorder must compute the same image and fixpoint as a static-order
    /// computer.
    #[test]
    fn fusion_on_a_reordering_manager_matches_static_order() {
        let mgr = BddManager::new();
        let (parts, quantify, map, init) = banked(&mgr, 4, 2);
        let cs: Vec<VarId> = map.iter().map(|&(_, c)| c).collect();
        let opts = ImageOptions {
            cluster_threshold: 8,
            ..Default::default()
        };
        let fixed = ImageComputer::with_protected(&mgr, &parts, &quantify, &cs, opts);
        let want = reachable(&fixed, &init, &map);
        let reorders = mgr.stats().reorders;
        mgr.set_reorder_policy(langeq_bdd::ReorderPolicy::Sifting {
            auto_threshold: 8,
            max_growth: 1.5,
        });
        let img = ImageComputer::with_protected(&mgr, &parts, &quantify, &cs, opts);
        assert!(
            mgr.stats().reorders > reorders,
            "the compile must sift at least once"
        );
        assert!(
            img.num_fused_clusters()
                .is_some_and(|n| n < img.num_clusters()),
            "the chunk must still fuse on the reordered manager"
        );
        assert_eq!(
            img.image(&init),
            naive_image(&mgr, &parts, &quantify, &init)
        );
        let got = reachable(&img, &init, &map);
        mgr.set_reorder_policy(langeq_bdd::ReorderPolicy::None);
        assert_eq!(got, want);
    }

    #[test]
    fn hazard_from_set_falls_back_to_classic_chain() {
        let mgr = BddManager::new();
        let (parts, quantify, _, _) = banked(&mgr, 2, 2);
        let opts = ImageOptions {
            cluster_threshold: 8,
            ..Default::default()
        };
        let img = ImageComputer::new(&mgr, &parts, &quantify, opts);
        let fused = img.fused.as_ref().expect("fused schedule");
        // A from-set constraining a compile-time-eliminated variable: the
        // pre-quantified form would be unsound, so the call must detect the
        // hazard and still agree with the naive reference.
        let &v = fused.hazard.iter().next().expect("eliminated vars");
        let from = mgr.var(v);
        let got = img.image(&from);
        let want = naive_image(&mgr, &parts, &quantify, &from);
        assert_eq!(got, want);
    }

    /// The protect-set contract: with the current-state variables
    /// protected, the fused schedule never eliminates a variable a
    /// reachability from-set mentions — so the hazard fallback never
    /// fires and the fused chain serves every call of the fixpoint.
    #[test]
    fn protected_state_vars_keep_the_fused_chain_applicable() {
        let mgr = BddManager::new();
        let (parts, quantify, map, init) = banked(&mgr, 3, 2);
        let cs: Vec<VarId> = map.iter().map(|&(_, c)| c).collect();
        let opts = ImageOptions {
            cluster_threshold: 8,
            ..Default::default()
        };
        let img = ImageComputer::with_protected(&mgr, &parts, &quantify, &cs, opts);
        let fused = img.fused.as_ref().expect("fused schedule");
        assert!(
            cs.iter().all(|v| !fused.hazard.contains(v)),
            "protected vars must never enter the hazard set"
        );
        // Still correct, and still correct across the whole fixpoint.
        let got = img.image(&init);
        let want = naive_image(&mgr, &parts, &quantify, &init);
        assert_eq!(got, want);
        let unprotected = ImageComputer::new(&mgr, &parts, &quantify, opts);
        assert_eq!(
            reachable(&img, &init, &map),
            reachable(&unprotected, &init, &map),
            "protection changes strategy, never results"
        );
    }

    #[test]
    fn counter_reaches_all_states() {
        let mgr = BddManager::new();
        let (parts, quantify, map, init) = counter(&mgr);
        let img = ImageComputer::new(&mgr, &parts, &quantify, ImageOptions::default());
        let r = reachable(&img, &init, &map);
        assert!(r.is_one(), "counter with enable reaches all 8 states");
    }

    #[test]
    fn disabled_counter_stays_put() {
        let mgr = BddManager::new();
        // Same structure, but force enable=0 by adding a constraint part.
        let (mut parts, quantify, map, init) = counter(&mgr);
        let en = VarId(0);
        parts.push(mgr.var(en).not());
        let img = ImageComputer::new(&mgr, &parts, &quantify, ImageOptions::default());
        let r = reachable(&img, &init, &map);
        assert_eq!(
            r, init,
            "with enable stuck at 0 only the initial state is reachable"
        );
    }

    #[test]
    fn empty_from_set_gives_empty_image() {
        let mgr = BddManager::new();
        let (parts, quantify, _, _) = counter(&mgr);
        let img = ImageComputer::new(&mgr, &parts, &quantify, ImageOptions::default());
        assert!(img.image(&mgr.zero()).is_zero());
    }

    #[test]
    fn image_all_projects_relation() {
        let mgr = BddManager::new();
        let (parts, quantify, _, _) = counter(&mgr);
        let img = ImageComputer::new(&mgr, &parts, &quantify, ImageOptions::default());
        // Every ns combination is producible by some (en, cs).
        assert!(img.image_all().is_one());
    }

    #[test]
    fn from_only_vars_are_quantified() {
        let mgr = BddManager::new();
        let a = mgr.new_var(); // only occurs in `from`
        let cs = mgr.new_var();
        let ns = mgr.new_var();
        let parts = [ns.xnor(&cs.not())];
        let quantify = [a.support()[0], cs.support()[0]];
        let img = ImageComputer::new(&mgr, &parts, &quantify, ImageOptions::default());
        let from = a.and(&cs.not()); // constrains a, which must vanish
        let got = img.image(&from);
        assert_eq!(got, ns);
    }

    #[test]
    fn backward_reachability_on_counter() {
        let mgr = BddManager::new();
        let (parts, _, map, init) = counter(&mgr);
        // Backward computer: quantify the input (en) and the ns variables.
        let mut q = vec![VarId(0)];
        q.extend(map.iter().map(|&(ns, _)| ns));
        let pre = ImageComputer::new(&mgr, &parts, &q, ImageOptions::default());
        let cs_to_ns: Vec<(VarId, VarId)> = map.iter().map(|&(ns, cs)| (cs, ns)).collect();
        // Target: the all-ones state. With enable free, every state can
        // reach it (the counter cycles).
        let all_ones = map
            .iter()
            .fold(mgr.one(), |acc, &(_, cs)| acc.and(&mgr.var(cs)));
        let can_reach = backward_reachable(&pre, &all_ones, &cs_to_ns);
        assert!(can_reach.is_one());
        // Forward/backward duality: init reaches all states, and all states
        // reach init's successor set — check membership agreement for the
        // initial state specifically.
        assert!(can_reach.and(&init).eval(&vec![false; mgr.num_vars()]));
    }

    #[test]
    fn backward_reachability_respects_stuck_enable() {
        let mgr = BddManager::new();
        let (mut parts, _, map, init) = counter(&mgr);
        // Force enable = 0: nothing moves.
        parts.push(mgr.var(VarId(0)).not());
        let mut q = vec![VarId(0)];
        q.extend(map.iter().map(|&(ns, _)| ns));
        let pre = ImageComputer::new(&mgr, &parts, &q, ImageOptions::default());
        let cs_to_ns: Vec<(VarId, VarId)> = map.iter().map(|&(ns, cs)| (cs, ns)).collect();
        let all_ones = map
            .iter()
            .fold(mgr.one(), |acc, &(_, cs)| acc.and(&mgr.var(cs)));
        let can_reach = backward_reachable(&pre, &all_ones, &cs_to_ns);
        // Only the target itself (self-loop) reaches it.
        assert_eq!(can_reach, all_ones);
        let _ = init;
    }

    #[test]
    fn image_stays_correct_after_manager_reorder() {
        let mgr = BddManager::new();
        let (parts, quantify, map, init) = counter(&mgr);
        let img = ImageComputer::new(&mgr, &parts, &quantify, ImageOptions::default());
        let want = naive_image(&mgr, &parts, &quantify, &init);
        // A sifting pass between compile and use: the in-place reorder
        // keeps every compiled handle (clusters, step cubes) valid and
        // structurally current, so the schedule needs no recompilation.
        mgr.reorder();
        let got = img.image(&init);
        assert_eq!(got, want);
        let r = reachable(&img, &init, &map);
        assert!(r.is_one(), "counter reaches all states after a reorder");
    }

    #[test]
    fn reachability_with_auto_sifting_matches_static_order() {
        let mgr = BddManager::new();
        let (parts, quantify, map, init) = counter(&mgr);
        let img = ImageComputer::new(&mgr, &parts, &quantify, ImageOptions::default());
        let want = reachable(&img, &init, &map);
        mgr.set_reorder_policy(langeq_bdd::ReorderPolicy::Sifting {
            auto_threshold: 32,
            max_growth: 1.5,
        });
        let got = reachable(&img, &init, &map);
        mgr.set_reorder_policy(langeq_bdd::ReorderPolicy::None);
        assert_eq!(got, want);
    }

    #[test]
    fn zero_part_annihilates() {
        let mgr = BddManager::new();
        let cs = mgr.new_var();
        let ns = mgr.new_var();
        let parts = [ns.xnor(&cs), mgr.zero()];
        let quantify = [cs.support()[0]];
        let img = ImageComputer::new(&mgr, &parts, &quantify, ImageOptions::default());
        assert!(img.image(&mgr.one()).is_zero());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Random small partitioned relations: the fused schedule, and the
        /// classic chain it falls back to on a from-set naming an
        /// eliminated variable, must both agree with the naive
        /// conjoin-then-quantify reference on a random from-cube.
        #[test]
        fn random_networks_agree_across_modes(
            seed in 0u64..1u64 << 48,
            banks in 1usize..4,
            width in 1usize..3,
        ) {
            let mgr = BddManager::new();
            let (parts, quantify, _, _) = banked(&mgr, banks, width);
            // Pseudo-random from-cube over the cs variables (never the
            // private inputs, so the fused path actually runs).
            let mut x = seed | 1;
            let mut from = mgr.one();
            for &(_, cs) in banked_map(&mgr, banks, width).iter() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let lit = mgr.var(cs);
                from = from.and(&if x >> 62 & 1 == 1 { lit.not() } else { lit });
            }
            let want = naive_image(&mgr, &parts, &quantify, &from);
            let opts = ImageOptions { cluster_threshold: 6, ..Default::default() };
            let img = ImageComputer::new(&mgr, &parts, &quantify, opts);
            proptest::prop_assert_eq!(&img.image(&from), &want);
            if let Some(&v) = img.fused.as_ref().and_then(|f| f.hazard.iter().next()) {
                let hazard = from.and(&mgr.var(v));
                let want = naive_image(&mgr, &parts, &quantify, &hazard);
                proptest::prop_assert_eq!(&img.image(&hazard), &want);
            }
        }
    }

    /// The ns→cs map of [`banked`] *without* re-creating variables: banked
    /// lays vars out as `en, (i, cs, ns)*`.
    fn banked_map(mgr: &BddManager, banks: usize, width: usize) -> Vec<(VarId, VarId)> {
        let _ = mgr;
        (0..banks * width)
            .map(|k| (VarId(3 + 3 * k as u32), VarId(2 + 3 * k as u32)))
            .collect()
    }

    /// A step cube that drifted from its variable set (the corruption the
    /// currency audit guards against) must abort the next image call.
    #[cfg(feature = "sanitize")]
    #[test]
    fn stale_step_cube_aborts_under_sanitize() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mgr = BddManager::new();
        let (parts, quantify, _, init) = counter(&mgr);
        let mut img = ImageComputer::new(&mgr, &parts, &quantify, ImageOptions::default());
        assert!(!img.classic.step_cubes.is_empty());
        // A positive cube is never the zero function.
        img.classic.step_cubes[0] = mgr.zero();
        let err = catch_unwind(AssertUnwindSafe(|| img.image(&init)))
            .expect_err("step-cube audit must abort");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("[langeq-sanitize]") && msg.contains("image-step-cube"),
            "got {msg:?}"
        );
    }
}
