//! The workloads and the run loop.
//!
//! Every workload is a closed loop of one client thread. A run draws its
//! circuits from the screened pool with the seed, sets up several times
//! (the last set-up is kept), then measures rounds until `--seconds` have
//! passed. A round runs every operation once:
//!
//! * an in-process solve of each drawn circuit in each flow (fresh problem
//!   and manager per solve), in an order the seed fixes;
//! * then the daemon block: an unmeasured sync request, one fresh
//!   submission of the daemon circuit (a new signature, so the daemon
//!   solves it and appends to its journal), and `hits` resubmissions of one
//!   fixed request, answered from the cache.
//!
//! The daemon's accept loop sleeps 25 ms whenever no connection is
//! pending. After the sync every request of the block is sent right after
//! a daemon answer, so each one waits the same whole cycle instead of a
//! random part of it.
//!
//! Every timing is a median over rounds; per-circuit medians are summed.
//! The traced mode alternates untraced and traced rounds, so the tracing
//! overhead is measured inside one run, and takes every per-layer metric
//! from the traced rounds.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use langeq_core::batch::{ConfigSpec, InstanceSpec};
use langeq_core::sig::cell_signature;
use langeq_core::SolverKind;
use langeq_logic::{bench_fmt, Network};
use langeq_report::Json;

use crate::daemon::{self, Daemon};
use crate::pool::{self, Family, Member, Rng};
use crate::reference;
use crate::solve::{self, nanos, Flow};
use crate::stats::{median, sum_of_medians, tail, Tally};

/// A named workload: the family its in-process circuits come from.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub family: Family,
}

pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "fixpoint",
        family: Family::Fixpoint,
    },
    Spec {
        name: "relation",
        family: Family::Relation,
    },
];

/// Circuits solved in-process per round, each in both flows, drawn from
/// the family's `draw` set.
const CIRCUITS: usize = 3;

/// Cached resubmissions per round.
const HITS: usize = 2;

/// The pool set every workload draws its daemon circuit from: small
/// `fixpoint` members (65–68 CSF states, ~5–9 ms partitioned), so a fresh
/// solve finishes inside the accept loop's 25-ms cycle and every miss takes
/// the same number of cycles whatever the host's speed. The solvers' own
/// cost is measured in-process, where no grid blurs it.
const DAEMON_SET: &str = "daemon";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Node limit of the fixed (cached) request; fresh submissions count up
/// from it. Far above every member's peak, so only the signature changes.
const HIT_NODE_LIMIT: u64 = 50_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Solve(usize, Flow),
    Sync,
    Miss,
    Hit,
}

/// The circuits of one run, generated.
struct Circuits {
    members: Vec<Member>,
    nets: Vec<Network>,
    splits: Vec<Vec<usize>>,
    /// The circuit the daemon solves.
    served: Member,
    /// Its `.bench` text, as submitted.
    text: String,
}

fn generate(members: &[Member], served: Member) -> Result<Circuits, String> {
    let text =
        bench_fmt::write(&served.shape.network()).map_err(|e| format!("bench write: {e}"))?;
    Ok(Circuits {
        members: members.to_vec(),
        splits: members.iter().map(|m| m.shape.split()).collect(),
        nets: members.iter().map(|m| m.shape.network()).collect(),
        served,
        text,
    })
}

/// Timings of one run, in nanoseconds.
#[derive(Default)]
struct Samples {
    /// `[circuit][flow]`.
    solve: Vec<[Vec<f64>; 2]>,
    /// The reference kernel, run right before each solve.
    reference: Vec<f64>,
    miss: Vec<f64>,
    hit: Vec<f64>,
}

impl Samples {
    fn new(circuits: usize) -> Self {
        Samples {
            solve: (0..circuits).map(|_| [Vec::new(), Vec::new()]).collect(),
            ..Samples::default()
        }
    }

    /// The sum of the per-circuit medians of one flow, in seconds, as
    /// measured.
    fn raw_sum_s(&self, flow: Flow) -> f64 {
        let per: Vec<Vec<f64>> = self
            .solve
            .iter()
            .map(|f| f[flow as usize].clone())
            .collect();
        sum_of_medians(&per) / 1e9
    }

    /// The same scaled to the reference speed (see `reference`).
    fn flow_sum_s(&self, flow: Flow) -> f64 {
        self.raw_sum_s(flow) * reference::NOMINAL_NS / median(&self.reference)
    }
}

/// The per-layer values of one traced round (one pass over the
/// operations), keyed by metric name.
type Pass = BTreeMap<&'static str, f64>;

/// Per-layer metrics: name, unit, and whether the value is an exact count
/// that must repeat between traced rounds and runs.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("logic.gen_ms", "ms", false),
    ("logic.parse_ms", "ms", false),
    ("equation.build_ms", "ms", false),
    ("image.compile_ms.part", "ms", false),
    ("image.q_ms.part", "ms", false),
    ("image.q_calls.part", "count", true),
    ("image.p_ms.part", "ms", false),
    ("image.p_calls.part", "count", true),
    ("bdd.compile_ms.mono", "ms", false),
    ("bdd.image_ms.mono", "ms", false),
    ("bdd.image_calls.mono", "count", true),
    ("solver.successor_ms.part", "ms", false),
    ("solver.successor_ms.mono", "ms", false),
    ("solver.states.part", "count", true),
    ("solver.states.mono", "count", true),
    ("automata.extract_ms.part", "ms", false),
    ("automata.extract_ms.mono", "ms", false),
    ("bdd.cache_lookups.part", "count", true),
    ("bdd.cache_lookups.mono", "count", true),
    ("bdd.cache_hits.part", "count", true),
    ("bdd.cache_hits.mono", "count", true),
    ("bdd.cache_hit_rate.part", "ratio", true),
    ("bdd.cache_hit_rate.mono", "ratio", true),
    ("bdd.cache_puts.part", "count", true),
    ("bdd.cache_puts.mono", "count", true),
    ("bdd.cache_evictions.part", "count", true),
    ("bdd.cache_evictions.mono", "count", true),
    ("bdd.unique_lookups.part", "count", true),
    ("bdd.unique_lookups.mono", "count", true),
    ("bdd.unique_probes.part", "count", true),
    ("bdd.unique_probes.mono", "count", true),
    ("bdd.allocated_nodes.part", "count", true),
    ("bdd.allocated_nodes.mono", "count", true),
    ("bdd.peak_live_nodes.part", "count", true),
    ("bdd.peak_live_nodes.mono", "count", true),
    ("bdd.gc_runs.part", "count", true),
    ("bdd.gc_runs.mono", "count", true),
    ("sig.signature_ms", "ms", false),
    ("serve.ack_ms", "ms", false),
    ("serve.cell_ms", "ms", false),
    ("serve.wait_ms", "ms", false),
    ("serve.polls", "count", false),
    ("serve.cache_hits", "count", true),
    ("serve.cache_misses", "count", true),
    ("batch.journal_bytes", "bytes", false),
    ("trace.overhead_part_ms", "ms", false),
    ("trace.overhead_mono_ms", "ms", false),
    ("trace.overhead_miss_ms", "ms", false),
];

/// End-to-end metrics and their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("part_s", "s"),
    ("mono_s", "s"),
    ("miss_ms", "ms"),
    ("miss_tail_ms", "ms"),
    ("hit_ms", "ms"),
    ("hit_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn add(pass: &mut Pass, key: &'static str, value: f64) {
    *pass.entry(key).or_insert(0.0) += value;
}

/// Everything one run keeps between rounds.
struct Run {
    circuits: Circuits,
    reference: reference::Reference,
    daemon: Daemon,
    dir: PathBuf,
    hit_request: Json,
    fresh: u64,
    tally: Tally,
}

impl Run {
    fn op_label(&self, op: Op) -> String {
        match op {
            Op::Solve(c, flow) => {
                format!("{} {}", self.circuits.members[c].shape.label(), flow.tag())
            }
            Op::Sync => "daemon sync".into(),
            Op::Miss => "daemon miss".into(),
            Op::Hit => "daemon hit".into(),
        }
    }

    /// Runs every operation once. `samples` receives the timings;
    /// `pass`, when given, the traced per-layer values.
    fn round(&mut self, ops: &[Op], samples: &mut Samples, mut pass: Option<&mut Pass>) {
        let want = self.circuits.served.part;
        for &op in ops {
            let label = self.op_label(op);
            match op {
                Op::Solve(c, flow) => {
                    let pinned = self.circuits.members[c].answer(flow);
                    let reference_ns = self.reference.time_ns();
                    let rec = solve::solve(
                        &self.circuits.nets[c],
                        &self.circuits.splits[c],
                        flow,
                        pass.is_some(),
                        solve::limits(),
                    );
                    if !self.tally.check(&label, &rec.answer, pinned) {
                        continue;
                    }
                    if let (Some(pass), Some(ph)) = (pass.as_deref_mut(), rec.phases) {
                        if ph.total_ns() != rec.wall_ns {
                            self.tally.record(
                                &label,
                                Err(format!(
                                    "phases sum to {} ns, wall time {} ns",
                                    ph.total_ns(),
                                    rec.wall_ns
                                )),
                            );
                            continue;
                        }
                        add_solve(pass, flow, &ph, &rec.kernel);
                    }
                    samples.solve[c][flow as usize].push(rec.wall_ns as f64);
                    samples.reference.push(reference_ns);
                }
                Op::Sync => {
                    let synced = self.daemon.sync();
                    self.checked(&label, synced);
                }
                Op::Miss => {
                    self.fresh += 1;
                    let request = daemon::request(
                        &self.circuits.served,
                        &self.circuits.text,
                        HIT_NODE_LIMIT + self.fresh,
                    );
                    let trip = self.daemon.submit(&request, false, want);
                    if let Some(trip) = self.checked(&label, trip) {
                        samples.miss.push(trip.total_ns as f64);
                        if let Some(pass) = pass.as_deref_mut() {
                            add(pass, "serve.ack_ms", ms(trip.ack_ns));
                            add(pass, "serve.cell_ms", ms(trip.cell_ns));
                            add(pass, "serve.wait_ms", ms(trip.total_ns - trip.ack_ns));
                            add(pass, "serve.polls", trip.polls as f64);
                        }
                    }
                }
                Op::Hit => {
                    let trip = self.daemon.submit(&self.hit_request, true, want);
                    if let Some(trip) = self.checked(&label, trip) {
                        samples.hit.push(trip.total_ns as f64);
                        if let Some(pass) = pass.as_deref_mut() {
                            add(pass, "serve.ack_ms", ms(trip.ack_ns));
                        }
                    }
                }
            }
        }
    }

    /// Tallies one checked operation and passes its value on when it passed.
    fn checked<T>(&mut self, label: &str, outcome: Result<T, String>) -> Option<T> {
        match outcome {
            Ok(value) => {
                self.tally.record(label, Ok(()));
                Some(value)
            }
            Err(e) => {
                self.tally.record(label, Err(e));
                None
            }
        }
    }

    /// A traced round: the operations plus the layers measured from
    /// outside them (generation, parse and signature of every submission,
    /// the daemon's counters and journal).
    fn traced_round(&mut self, ops: &[Op], samples: &mut Samples) -> Pass {
        let mut pass = Pass::new();
        let before = self.daemon.cache_counters();
        let journal = self.daemon.journal_bytes();
        self.round(ops, samples, Some(&mut pass));
        let after = self.daemon.cache_counters();
        let counters = before.and_then(|b| after.map(|a| (a.0 - b.0, a.1 - b.1)));
        if let Some((hits, misses)) = self.checked("daemon /metrics", counters) {
            pass.insert("serve.cache_hits", hits as f64);
            pass.insert("serve.cache_misses", misses as f64);
        }
        pass.insert(
            "batch.journal_bytes",
            self.daemon.journal_bytes().saturating_sub(journal) as f64,
        );

        let t = Instant::now();
        let regenerated: Vec<Network> = self
            .circuits
            .members
            .iter()
            .map(|m| m.shape.network())
            .collect();
        let served = self.circuits.served.shape.network();
        pass.insert("logic.gen_ms", ms(nanos(t.elapsed())));
        let same = regenerated
            .iter()
            .zip(&self.circuits.nets)
            .all(|(a, b)| bench_fmt::write(a).ok() == bench_fmt::write(b).ok())
            && bench_fmt::write(&served).ok().as_deref() == Some(self.circuits.text.as_str());
        self.tally.record(
            "regenerate circuits",
            if same {
                Ok(())
            } else {
                Err("generator output changed within a run".into())
            },
        );

        // The daemon parses and signs every submission, hits included.
        let submissions = ops
            .iter()
            .filter(|op| matches!(op, Op::Miss | Op::Hit))
            .count();
        let member = self.circuits.served;
        for _ in 0..submissions {
            let t = Instant::now();
            let parsed = bench_fmt::parse(&self.circuits.text);
            add(&mut pass, "logic.parse_ms", ms(nanos(t.elapsed())));
            let Some(network) = self.checked("parse", parsed.map_err(|e| e.to_string())) else {
                continue;
            };
            let t = Instant::now();
            let instance = InstanceSpec::new(member.shape.label(), network, member.shape.split());
            let limits = langeq_core::SolverLimits {
                node_limit: Some(HIT_NODE_LIMIT as usize),
                ..langeq_core::SolverLimits::default()
            };
            let config = ConfigSpec::new("partitioned", SolverKind::Partitioned).limits(limits);
            std::hint::black_box(cell_signature(&instance, &config));
            add(&mut pass, "sig.signature_ms", ms(nanos(t.elapsed())));
        }
        pass
    }
}

/// Adds one traced solve's phases and kernel counters to the pass.
fn add_solve(pass: &mut Pass, flow: Flow, ph: &crate::phases::Phases, k: &langeq_bdd::BddStats) {
    add(pass, "equation.build_ms", ms(ph.build_ns));
    match flow {
        Flow::Part => {
            add(pass, "image.compile_ms.part", ms(ph.compile_ns));
            add(pass, "image.q_ms.part", ms(ph.q_ns));
            add(pass, "image.q_calls.part", ph.q_calls as f64);
            add(pass, "image.p_ms.part", ms(ph.p_ns));
            add(pass, "image.p_calls.part", ph.p_calls as f64);
            add(pass, "solver.successor_ms.part", ms(ph.successor_ns));
            add(pass, "solver.states.part", ph.states as f64);
            add(pass, "automata.extract_ms.part", ms(ph.extract_ns));
        }
        Flow::Mono => {
            add(pass, "bdd.compile_ms.mono", ms(ph.compile_ns));
            add(pass, "bdd.image_ms.mono", ms(ph.p_ns));
            add(pass, "bdd.image_calls.mono", ph.p_calls as f64);
            add(pass, "solver.successor_ms.mono", ms(ph.successor_ns));
            add(pass, "solver.states.mono", ph.states as f64);
            add(pass, "automata.extract_ms.mono", ms(ph.extract_ns));
        }
    }
    let counters = [
        (
            ["bdd.cache_lookups.part", "bdd.cache_lookups.mono"],
            k.cache_lookups,
        ),
        (["bdd.cache_hits.part", "bdd.cache_hits.mono"], k.cache_hits),
        (["bdd.cache_puts.part", "bdd.cache_puts.mono"], k.cache_puts),
        (
            ["bdd.cache_evictions.part", "bdd.cache_evictions.mono"],
            k.cache_evictions,
        ),
        (
            ["bdd.unique_lookups.part", "bdd.unique_lookups.mono"],
            k.unique_lookups,
        ),
        (
            ["bdd.unique_probes.part", "bdd.unique_probes.mono"],
            k.unique_probes,
        ),
        (
            ["bdd.allocated_nodes.part", "bdd.allocated_nodes.mono"],
            k.allocated_nodes,
        ),
        (["bdd.gc_runs.part", "bdd.gc_runs.mono"], k.gc_runs),
    ];
    for (keys, value) in counters {
        add(pass, keys[flow as usize], value as f64);
    }
    // A pass's peak is the largest of its solves' peaks.
    let peak = ["bdd.peak_live_nodes.part", "bdd.peak_live_nodes.mono"][flow as usize];
    let slot = pass.entry(peak).or_insert(0.0);
    *slot = slot.max(k.peak_live_nodes as f64);
}

/// Derives the pass's hit rates (base: lookups) once all its solves are in.
fn finish_pass(pass: &mut Pass) {
    for (lookups, hits, rate) in [
        (
            "bdd.cache_lookups.part",
            "bdd.cache_hits.part",
            "bdd.cache_hit_rate.part",
        ),
        (
            "bdd.cache_lookups.mono",
            "bdd.cache_hits.mono",
            "bdd.cache_hit_rate.mono",
        ),
    ] {
        let l = pass.get(lookups).copied().unwrap_or(0.0);
        let h = pass.get(hits).copied().unwrap_or(0.0);
        pass.insert(rate, if l > 0.0 { h / l } else { 0.0 });
    }
}

/// What a run prints on its result line.
pub struct RunResult {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Draws the run's circuits: [`CIRCUITS`] distinct members of the family's
/// `draw` set, balanced so the calibrated totals of both flows sit within
/// 3% of the set's mean totals, and the daemon circuit.
fn draw(spec: &Spec, rng: &mut Rng) -> (Vec<Member>, Member) {
    let set = pool::members(spec.family, "draw");
    let members = pool::balanced_draw(&set, CIRCUITS, 0.03, rng);
    let served = pool::members(Family::Fixpoint, DAEMON_SET);
    (members, served[rng.below(served.len())])
}

/// The operations of one round: the solves in the seed's order, then the
/// daemon block.
fn round_ops(circuits: usize, hits: usize, rng: &mut Rng) -> Vec<Op> {
    let mut ops: Vec<Op> = (0..circuits)
        .flat_map(|c| [Op::Solve(c, Flow::Part), Op::Solve(c, Flow::Mono)])
        .collect();
    rng.shuffle(&mut ops);
    ops.push(Op::Sync);
    ops.push(Op::Miss);
    ops.extend(std::iter::repeat_n(Op::Hit, hits));
    ops
}

pub fn run(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let mut rng = Rng::new(seed);
    let (members, served) = draw(spec, &mut rng);
    let ops = round_ops(members.len(), HITS, &mut rng);

    let base = std::env::current_dir()
        .map_err(|e| format!("cwd: {e}"))?
        .join(".bench_run");
    let mut setup_s = Vec::new();
    let mut tally = Tally::default();
    let mut kept: Option<Run> = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let circuits = generate(&members, served)?;
        for (net, split) in circuits.nets.iter().zip(&circuits.splits) {
            langeq_core::LatchSplitProblem::new(net, split)
                .map_err(|e| format!("problem build: {e}"))?;
        }
        let dir = base.join(format!("{}-{k}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let daemon = Daemon::start(&dir)?;
        let hit_request = daemon::request(&served, &circuits.text, HIT_NODE_LIMIT);
        let mut run = Run {
            circuits,
            reference: reference::Reference::new(),
            daemon,
            dir,
            hit_request,
            fresh: 0,
            tally: std::mem::take(&mut tally),
        };
        // Prime the cache with the request every hit resubmits.
        let primed = run
            .daemon
            .submit(&run.hit_request.clone(), false, served.part)
            .map(|_| ());
        run.tally.record("daemon prime", primed);
        let mut warm = Samples::new(members.len());
        run.round(&ops, &mut warm, None);
        setup_s.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            tally = std::mem::take(&mut run.tally);
            run.daemon.stop();
            let _ = std::fs::remove_dir_all(&run.dir);
        } else {
            kept = Some(run);
        }
    }
    let mut run = kept.ok_or("no set-up ran")?;

    let mut untraced = Samples::new(members.len());
    let mut traced_samples = Samples::new(members.len());
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut rounds = 0usize;
    while start.elapsed() < budget {
        if traced && rounds % 2 == 1 {
            let mut pass = run.traced_round(&ops, &mut traced_samples);
            finish_pass(&mut pass);
            passes.push(pass);
        } else {
            run.round(&ops, &mut untraced, None);
        }
        rounds += 1;
    }
    report(spec, &run, &untraced, &traced_samples, rounds, &setup_s);
    let Run {
        daemon,
        dir,
        mut tally,
        ..
    } = run;
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&base);
    let metrics = if traced {
        if passes.is_empty() {
            tally.record("traced rounds", Err("the run held no traced round".into()));
        }
        check_fingerprint(&passes, &mut tally);
        let mut out = Vec::new();
        for &(name, unit, _) in PER_LAYER {
            let value = match name {
                "trace.overhead_part_ms" => {
                    (traced_samples.flow_sum_s(Flow::Part) - untraced.flow_sum_s(Flow::Part)) * 1e3
                }
                "trace.overhead_mono_ms" => {
                    (traced_samples.flow_sum_s(Flow::Mono) - untraced.flow_sum_s(Flow::Mono)) * 1e3
                }
                "trace.overhead_miss_ms" => {
                    (median(&traced_samples.miss) - median(&untraced.miss)) / 1e6
                }
                _ => {
                    let values: Vec<f64> = passes
                        .iter()
                        .map(|p| p.get(name).copied().unwrap_or(0.0))
                        .collect();
                    median(&values)
                }
            };
            out.push((name, unit, value));
        }
        out
    } else {
        let miss_tail = tail_or_max(&untraced.miss);
        let hit_tail = tail_or_max(&untraced.hit);
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => median(&setup_s),
                    "part_s" => untraced.flow_sum_s(Flow::Part),
                    "mono_s" => untraced.flow_sum_s(Flow::Mono),
                    "miss_ms" => median(&untraced.miss) / 1e6,
                    "miss_tail_ms" => miss_tail / 1e6,
                    "hit_ms" => median(&untraced.hit) / 1e6,
                    "hit_tail_ms" => hit_tail / 1e6,
                    _ => peak_rss_mb(),
                };
                (name, unit, value)
            })
            .collect()
    };
    Ok(RunResult { tally, metrics })
}

/// Checks that every traced round's counts equal the first round's (a
/// fresh manager per solve makes them exact, so a claim may rest on them),
/// and prints their hash so two runs of one seed compare at a glance.
fn check_fingerprint(passes: &[Pass], tally: &mut Tally) {
    let counts = |p: &Pass| -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .filter(|(_, _, exact)| *exact)
            .map(|&(name, _, _)| (name, p.get(name).copied().unwrap_or(0.0)))
            .collect()
    };
    let Some(first) = passes.first().map(counts) else {
        return;
    };
    for (k, p) in passes.iter().enumerate().skip(1) {
        let differs = first
            .iter()
            .zip(counts(p))
            .find(|((_, a), (_, b))| a != b)
            .map(|((name, a), (_, b))| {
                format!("{name}: traced round {k} counted {b}, the first {a}")
            });
        tally.record("count fingerprint", differs.map_or(Ok(()), Err));
    }
    let text: String = first.iter().map(|(n, v)| format!("{n}={v};")).collect();
    eprintln!(
        "count fingerprint {:016x} over {} traced rounds",
        langeq_core::sig::fnv1a64(text.as_bytes()),
        passes.len()
    );
}

fn report(
    spec: &Spec,
    run: &Run,
    untraced: &Samples,
    traced: &Samples,
    rounds: usize,
    setup_s: &[f64],
) {
    eprintln!("workload {} — {} rounds", spec.name, rounds);
    eprintln!(
        "set-ups: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.3}s"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (label, samples) in [("untraced", untraced), ("traced", traced)] {
        for (c, member) in run.circuits.members.iter().enumerate() {
            for flow in [Flow::Part, Flow::Mono] {
                let xs = &samples.solve[c][flow as usize];
                if xs.is_empty() {
                    continue;
                }
                eprintln!(
                    "  {label:8} {:14} {}: median {:.2} ms over {} samples",
                    member.shape.label(),
                    flow.tag(),
                    median(xs) / 1e6,
                    xs.len()
                );
            }
        }
        if !samples.reference.is_empty() {
            eprintln!(
                "  {label:8} reference kernel: median {:.2} ms over {} samples; \
                 part {:.4} s, mono {:.4} s as measured",
                median(&samples.reference) / 1e6,
                samples.reference.len(),
                samples.raw_sum_s(Flow::Part),
                samples.raw_sum_s(Flow::Mono),
            );
        }
        for (what, xs) in [("miss", &samples.miss), ("hit", &samples.hit)] {
            if xs.is_empty() {
                continue;
            }
            let t = tail(xs)
                .map(|t| format!("p{:.1} {:.2} ms", t.percentile, t.value / 1e6))
                .unwrap_or_else(|| "no percentile with ten beyond: tail is the maximum".into());
            eprintln!(
                "  {label:8} daemon {what}: median {:.2} ms, {t}, {} samples",
                median(xs) / 1e6,
                xs.len()
            );
        }
    }
    eprintln!(
        "daemon circuit {}; attempted {} failed {}",
        run.circuits.served.shape.label(),
        run.tally.attempted,
        run.tally.failed
    );
    for p in &run.tally.problems {
        eprintln!("  FAILED {p}");
    }
}

/// The tail value, or the largest sample when ten samples or fewer leave no
/// percentile with ten beyond it (the report says which).
fn tail_or_max(xs: &[f64]) -> f64 {
    tail(xs).map_or_else(|| xs.iter().copied().fold(0.0, f64::max), |t| t.value)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark prints exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, ours);
    }
}
