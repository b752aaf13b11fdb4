//! `--screen`: builds the candidate table that `pools.tsv` is cut from.
//!
//! For every (size, out_extra, generator seed) candidate of a family it
//! times each flow on fresh problems (median of three), and keeps the
//! candidate only if
//!
//! * both flows complete inside the family's cost band, with peak live
//!   nodes under a fifth of the benchmark's node limit;
//! * both flows agree: the CSFs, solved on one shared problem, are
//!   language-equivalent, and their state counts match;
//! * the paper's §4 checks (`verify_latch_split`) pass on the CSF.
//!
//! Kept candidates print as pool rows (stratum column `-`, assigned by
//! hand when the pool is cut); rejected ones print to stderr with the
//! reason.

use std::time::Duration;

use langeq_core::verify::verify_latch_split;
use langeq_core::{LatchSplitProblem, SolveRequest};

use crate::pool::{all_members, Family, Rng, Shape};
use crate::solve::{self, Flow};
use crate::stats::median;

/// Cost band of one family: (partitioned, monolithic) ms ceilings.
fn band(family: Family) -> (f64, f64) {
    match family {
        Family::Fixpoint => (600.0, 1500.0),
        Family::Relation => (700.0, 1000.0),
    }
}

pub fn run(family: Family, sizes: &[usize], extras: &[usize], seeds: &[u64]) -> i32 {
    let (part_cap, mono_cap) = band(family);
    println!(
        "# family\tstratum\tsize\tout_extra\tgen_seed\tpart_csf\tpart_subset\t\
         mono_csf\tmono_subset\tpart_ms\tmono_ms\tpart_peak\tmono_peak\tmono_gc"
    );
    for &size in sizes {
        for &out_extra in extras {
            for &gen_seed in seeds {
                let shape = Shape {
                    family,
                    size,
                    gen_seed,
                    out_extra,
                };
                match screen_one(&shape, part_cap, mono_cap) {
                    Ok(row) => println!("{row}"),
                    Err(why) => eprintln!("reject {}: {why}", shape.label()),
                }
            }
        }
    }
    0
}

fn screen_one(shape: &Shape, part_cap: f64, mono_cap: f64) -> Result<String, String> {
    let net = shape.network();
    let split = shape.split();
    let mut ms = [Vec::new(), Vec::new()];
    let mut answers = Vec::new();
    let mut peaks = Vec::new();
    let mut gc = 0;
    for (k, (flow, cap)) in [(Flow::Part, part_cap), (Flow::Mono, mono_cap)]
        .into_iter()
        .enumerate()
    {
        for rep in 0..3 {
            let mut limits = solve::limits();
            limits.time_limit = Some(Duration::from_secs_f64(cap * 1.5 / 1e3));
            let rec = solve::solve(&net, &split, flow, false, limits);
            let answer = rec.answer.map_err(|e| format!("{}: {e}", flow.tag()))?;
            let t = rec.wall_ns as f64 / 1e6;
            if t > cap * 1.5 {
                return Err(format!("{} {t:.0} ms over the band", flow.tag()));
            }
            if rec.kernel.peak_live_nodes > solve::limits().node_limit.unwrap_or(0) / 5 {
                return Err(format!(
                    "{} peak {}",
                    flow.tag(),
                    rec.kernel.peak_live_nodes
                ));
            }
            ms[k].push(t);
            if rep == 0 {
                answers.push(answer);
                peaks.push(rec.kernel.peak_live_nodes);
                gc = rec.kernel.gc_runs;
            }
        }
        let m = median(&ms[k]);
        if m > cap {
            return Err(format!("{} median {m:.0} ms over the band", flow.tag()));
        }
    }
    // Cross-check on one shared problem: automata compare only within a
    // manager.
    let problem = LatchSplitProblem::new(&net, &split).map_err(|e| e.to_string())?;
    let part = SolveRequest::partitioned()
        .run(&problem.equation)
        .into_result()
        .map_err(|e| format!("shared part: {e}"))?;
    let mono = SolveRequest::monolithic()
        .run(&problem.equation)
        .into_result()
        .map_err(|e| format!("shared mono: {e}"))?;
    if !part.csf.equivalent(&mono.csf) {
        return Err("flows disagree: CSFs are not equivalent".into());
    }
    if answers[0].csf_states != answers[1].csf_states {
        return Err("flows disagree on CSF states".into());
    }
    let report = verify_latch_split(&problem, &part.csf);
    if !report.all_passed() {
        return Err(format!("§4 checks: {report}"));
    }
    Ok(format!(
        "{}\t-\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.1}\t{:.1}\t{}\t{}\t{}",
        shape.family.name(),
        shape.size,
        shape.out_extra,
        shape.gen_seed,
        answers[0].csf_states,
        answers[0].subset_states,
        answers[1].csf_states,
        answers[1].subset_states,
        median(&ms[0]),
        median(&ms[1]),
        peaks[0],
        peaks[1],
        gc,
    ))
}

/// `--calibrate`: re-times every pool member of `family` over `rounds`
/// interleaved rounds (each round solves every member in both flows, in a
/// freshly shuffled order), so the members' costs are measured in the same
/// host phases. Prints each member's label, pinned CSF and monolithic
/// subset states, its current partitioned cost column, and the calibrated
/// partitioned and monolithic medians.
pub fn calibrate(family: Family, rounds: usize) -> i32 {
    let members = all_members(family);
    let nets: Vec<_> = members.iter().map(|m| m.shape.network()).collect();
    let mut ops: Vec<(usize, Flow)> = (0..members.len())
        .flat_map(|k| [(k, Flow::Part), (k, Flow::Mono)])
        .collect();
    let mut times = vec![[Vec::new(), Vec::new()]; members.len()];
    let mut rng = Rng::new(rounds as u64);
    for _ in 0..rounds {
        rng.shuffle(&mut ops);
        for &(k, flow) in &ops {
            let rec = solve::solve(
                &nets[k],
                &members[k].shape.split(),
                flow,
                false,
                solve::limits(),
            );
            if rec.answer != Ok(members[k].answer(flow)) {
                eprintln!(
                    "{} {}: answer {:?} differs from the pool",
                    members[k].shape.label(),
                    flow.tag(),
                    rec.answer
                );
                return 1;
            }
            times[k][flow as usize].push(rec.wall_ns as f64 / 1e6);
        }
    }
    for (m, t) in members.iter().zip(&times) {
        println!(
            "{}\t{}\t{}\t{}\t{:.1}\t{:.1}",
            m.shape.label(),
            m.part.csf_states,
            m.mono.subset_states,
            m.part_ms,
            median(&t[0]),
            median(&t[1]),
        );
    }
    0
}
