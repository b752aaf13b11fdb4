//! Diagnostic: run the reachability fixed-point of `quant_sched`'s
//! mid-size controller and report the BDD engine's kernel statistics —
//! computed-cache hit rate, GC survival, unique-table probe length — so
//! cache/table changes can be judged by their effect on the actual
//! image-computation workload, not just wall clock.
//!
//! With `--gc-each-step` a full garbage collection is forced after every
//! fixed-point iteration — the stress case for a GC-surviving computed
//! cache (a cache cleared on collection re-derives the whole previous
//! frontier's work each iteration).
//!
//! ```text
//! cargo run --release -p langeq-bench --bin cachestats -- \
//!     [--latches N] [--seed S] [--gc-each-step]
//! ```

use langeq_bdd::{Bdd, BddManager, VarId};
use langeq_image::{ImageComputer, ImageOptions};
use langeq_logic::gen;

/// The `langeq_image::reachable` fixpoint, inlined so a collection can be
/// forced between iterations.
fn reachable_with_gc(
    mgr: &BddManager,
    img: &ImageComputer,
    init: &Bdd,
    ns_to_cs: &[(VarId, VarId)],
    gc_each_step: bool,
) -> Bdd {
    let mut reached = init.clone();
    let mut frontier = init.clone();
    while !frontier.is_zero() {
        let next_ns = img.image(&frontier);
        let next_cs = next_ns.rename(ns_to_cs);
        frontier = next_cs.and(&reached.not());
        reached = reached.or(&frontier);
        if gc_each_step {
            mgr.collect_garbage();
        }
    }
    reached
}

fn print_stats(stats: &langeq_bdd::BddStats, dt: std::time::Duration) {
    println!("  wall clock          {:.3}s", dt.as_secs_f64());
    println!("  allocated nodes     {}", stats.allocated_nodes);
    println!(
        "  live / peak         {} / {}",
        stats.live_nodes, stats.peak_live_nodes
    );
    println!("  gc runs             {}", stats.gc_runs);
    println!(
        "  cache lookups/hits  {} / {}  (hit rate {:.1}%)",
        stats.cache_lookups,
        stats.cache_hits,
        100.0 * stats.cache_hit_rate()
    );
    println!(
        "  cache entries/cap   {} / {}  (≤{:.1}% occupied, {} resizes)",
        stats.cache_entries,
        stats.cache_capacity,
        100.0 * stats.cache_occupancy(),
        stats.cache_resizes
    );
    println!(
        "  gc cache survival   {} / {}  ({:.1}%)",
        stats.cache_surviving_entries,
        stats.cache_swept_entries,
        100.0 * stats.gc_survival_rate()
    );
    // The overwrite-on-collision rate: how much work the cache throws away
    // to stay flat (a 2-way set only evicts when both ways are taken).
    let eviction_rate = if stats.cache_puts > 0 {
        100.0 * stats.cache_evictions as f64 / stats.cache_puts as f64
    } else {
        0.0
    };
    println!(
        "  cache puts/evicted  {} / {}  (overwrite rate {:.1}%)",
        stats.cache_puts, stats.cache_evictions, eviction_rate
    );
    println!(
        "  unique-table lookups {}  (avg probe length {:.2})",
        stats.unique_lookups,
        stats.avg_probe_length()
    );
}

/// The `quant_sched/solver` bench workload (sim_s298, partitioned flow),
/// with the manager's kernel stats dumped after the solve.
fn solver_mode() {
    use langeq_core::{LatchSplitProblem, SolveRequest};
    let instances = gen::table1();
    let inst = &instances[2]; // sim_s298
    let p = LatchSplitProblem::new(&inst.network, &inst.unknown_latches).unwrap();
    let t0 = std::time::Instant::now();
    let out = SolveRequest::partitioned()
        .node_limit(8_000_000)
        .time_limit(std::time::Duration::from_secs(120))
        .run(&p.equation);
    let dt = t0.elapsed();
    let stats = p.equation.manager().stats();
    println!(
        "solver fixed-point: sim_s298 partitioned, solved: {}",
        out.solution().is_some()
    );
    print_stats(&stats, dt);
}

fn main() {
    let mut latches = 14usize;
    let mut seed = 77u64;
    let mut gc_each_step = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--latches" => latches = args.next().unwrap().parse().unwrap(),
            "--seed" => seed = args.next().unwrap().parse().unwrap(),
            "--gc-each-step" => gc_each_step = true,
            "--solver" => return solver_mode(),
            other => panic!("unknown flag {other}"),
        }
    }
    let net = gen::random_controller(&gen::ControllerCfg::new("cs", seed, 4, 2, latches));
    let mgr = BddManager::new();
    let pis: Vec<_> = (0..net.num_inputs()).map(|_| mgr.new_var()).collect();
    let mut cs = Vec::new();
    let mut ns = Vec::new();
    for _ in 0..net.num_latches() {
        cs.push(mgr.new_var());
        ns.push(mgr.new_var());
    }
    let bdds = net.elaborate(&mgr, &pis, &cs).unwrap();
    let parts: Vec<_> = ns
        .iter()
        .zip(&bdds.next_state)
        .map(|(n, t)| n.xnor(t))
        .collect();
    let mut quantify: Vec<VarId> = pis.iter().map(|p| p.support()[0]).collect();
    quantify.extend(cs.iter().map(|c| c.support()[0]));
    let cs_vars: Vec<VarId> = cs.iter().map(|c| c.support()[0]).collect();
    let img =
        ImageComputer::with_protected(&mgr, &parts, &quantify, &cs_vars, ImageOptions::default());
    let init = cs.iter().fold(mgr.one(), |acc, c| acc.and(&c.not()));
    let map: Vec<_> = ns
        .iter()
        .zip(&cs)
        .map(|(n, c)| (n.support()[0], c.support()[0]))
        .collect();
    let t0 = std::time::Instant::now();
    let r = std::hint::black_box(reachable_with_gc(&mgr, &img, &init, &map, gc_each_step));
    let dt = t0.elapsed();
    let stats = mgr.stats();
    println!(
        "reachability fixed-point: {latches} latches, seed {seed}{}",
        if gc_each_step { ", GC each step" } else { "" }
    );
    println!("  reached sat-count   {}", r.sat_count(latches));
    print_stats(&stats, dt);
}
