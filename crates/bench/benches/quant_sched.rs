//! Ablation: early-quantification scheduling vs quantify-at-the-end in the
//! partitioned image computation — the image-computation technology the
//! paper credits for the partitioned flow's efficiency (§1, refs [4][5][8]).

use criterion::{criterion_group, criterion_main, Criterion};
use langeq_bdd::{Bdd, BddManager, VarId};
use langeq_core::{LatchSplitProblem, SolveRequest};
use langeq_image::{reachable, ImageComputer, ImageOptions, QuantSchedule};
use langeq_logic::gen;
use std::time::Duration;

/// Reachability fixpoint on a mid-size controller with either schedule.
fn bench_reachability(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant_sched/reachability");
    group.sample_size(10);
    let net = gen::random_controller(&gen::ControllerCfg::new("qs", 77, 4, 2, 14));
    for (label, schedule) in [
        ("early", QuantSchedule::Early),
        ("late", QuantSchedule::Late),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
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
                let img = ImageComputer::new(
                    &mgr,
                    &parts,
                    &quantify,
                    ImageOptions {
                        schedule,
                        ..Default::default()
                    },
                );
                let init = cs.iter().fold(mgr.one(), |acc, c| acc.and(&c.not()));
                let map: Vec<_> = ns
                    .iter()
                    .zip(&cs)
                    .map(|(n, c)| (n.support()[0], c.support()[0]))
                    .collect();
                std::hint::black_box(reachable(&img, &init, &map))
            })
        });
    }
    group.finish();
}

/// A banked controller: `banks` independent `width`-bit ripple counters,
/// each advanced by a bank-private input while a shared enable is up
/// (`ns_j = cs_j XOR (i AND en AND cs_0..cs_{j-1})`). Bank-private inputs
/// and per-bank clusters are exactly the structure the fused schedule
/// exploits: the private `i` is quantified once at compile time and bank
/// chunks are conjoined once, where the classic chain re-does both inside
/// every image call of the `2^width`-step fixpoint.
#[allow(clippy::type_complexity)] // (parts, quantify, ns→cs map, init)
fn banked_counters(
    mgr: &BddManager,
    banks: usize,
    width: usize,
) -> (Vec<Bdd>, Vec<VarId>, Vec<(VarId, VarId)>, Bdd) {
    let en = mgr.new_var();
    let mut parts = Vec::new();
    let mut quantify = vec![en.support()[0]];
    let mut map = Vec::new();
    let mut init = mgr.one();
    for _ in 0..banks {
        let i = mgr.new_var();
        quantify.push(i.support()[0]);
        let mut carry = i.and(&en);
        for _ in 0..width {
            let cs = mgr.new_var();
            let ns = mgr.new_var();
            parts.push(ns.xnor(&cs.xor(&carry)));
            carry = carry.and(&cs);
            quantify.push(cs.support()[0]);
            map.push((ns.support()[0], cs.support()[0]));
            init = init.and(&cs.not());
        }
    }
    (parts, quantify, map, init)
}

/// The multi-cluster reachability workload on the compile-time fused
/// schedule.
fn bench_fused(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant_sched/fused");
    group.sample_size(10);
    group.bench_function("fused", |b| {
        b.iter(|| {
            let mgr = BddManager::new();
            let (parts, quantify, map, init) = banked_counters(&mgr, 16, 8);
            let cs: Vec<VarId> = map.iter().map(|&(_, c)| c).collect();
            let img = ImageComputer::with_protected(
                &mgr,
                &parts,
                &quantify,
                &cs,
                ImageOptions::default(),
            );
            std::hint::black_box(reachable(&img, &init, &map))
        })
    });
    group.finish();
}

/// The full partitioned solve with either schedule inside its images.
fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant_sched/solver");
    group.sample_size(10);
    let instances = gen::table1();
    let inst = &instances[2]; // sim_s298
    for (label, schedule) in [
        ("early", QuantSchedule::Early),
        ("late", QuantSchedule::Late),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let p = LatchSplitProblem::new(&inst.network, &inst.unknown_latches).unwrap();
                let request = SolveRequest::partitioned()
                    .image_options(ImageOptions {
                        schedule,
                        ..Default::default()
                    })
                    .node_limit(8_000_000)
                    .time_limit(Duration::from_secs(120));
                std::hint::black_box(request.run(&p.equation))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reachability, bench_fused, bench_solver);
criterion_main!(benches);
