//! Circuit families, the screened pools with their pinned answers, and the
//! seed-driven draw.
//!
//! Both families are [`hybrid_controller`] shapes of Table-1 rows, kept at
//! sizes where one benchmark run holds many rounds:
//!
//! * `fixpoint` — sim_s349's shape (9 inputs, 11 outputs, window 1,
//!   depth 1, 3 shift bits); `size` is the counter width;
//! * `relation` — the sim_s444/sim_s526 shape (3 inputs, 6 outputs,
//!   5 counter bits, window 2, depth 2); `size` is the shift-chain length.
//!
//! In both, the unknown component `X` is latches 5 and up. The pool file
//! (`pools.tsv`) is cut from `--screen` output, costed by `--calibrate`,
//! and pins each member's answer per flow.

use langeq_logic::gen::{hybrid_controller, HybridCfg};
use langeq_logic::Network;

use crate::solve::Flow;

/// A generator family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// sim_s349's shape; `size` is the counter width.
    Fixpoint,
    /// sim_s444/sim_s526's shape; `size` is the shift-chain length.
    Relation,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Fixpoint => "fixpoint",
            Family::Relation => "relation",
        }
    }

    pub fn parse(s: &str) -> Option<Family> {
        match s {
            "fixpoint" => Some(Family::Fixpoint),
            "relation" => Some(Family::Relation),
            _ => None,
        }
    }
}

/// One family member: everything needed to regenerate the circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub family: Family,
    pub size: usize,
    pub gen_seed: u64,
    pub out_extra: usize,
}

impl Shape {
    pub fn label(&self) -> String {
        let short = match self.family {
            Family::Fixpoint => "fix",
            Family::Relation => "rel",
        };
        format!("{short}{}x{}s{}", self.size, self.out_extra, self.gen_seed)
    }

    pub fn network(&self) -> Network {
        let cfg = match self.family {
            Family::Fixpoint => HybridCfg {
                name: self.label(),
                seed: self.gen_seed,
                num_inputs: 9,
                num_outputs: 11,
                count_bits: self.size,
                shift_bits: 3,
                rand_bits: 0,
                window: 1,
                depth: 1,
                out_extra: self.out_extra,
                rand_first: false,
            },
            Family::Relation => HybridCfg {
                name: self.label(),
                seed: self.gen_seed,
                num_inputs: 3,
                num_outputs: 6,
                count_bits: 5,
                shift_bits: self.size,
                rand_bits: 0,
                window: 2,
                depth: 2,
                out_extra: self.out_extra,
                rand_first: false,
            },
        };
        hybrid_controller(&cfg)
    }

    /// The latches of the unknown component: 5 and up.
    pub fn split(&self) -> Vec<usize> {
        let latches = match self.family {
            Family::Fixpoint => self.size + 3,
            Family::Relation => 5 + self.size,
        };
        (5..latches).collect()
    }
}

/// The answer a solve of one flow must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub csf_states: usize,
    pub subset_states: usize,
}

/// A screened pool member with its pinned answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Member {
    pub shape: Shape,
    pub part: Answer,
    pub mono: Answer,
    /// Calibrated medians (ms) per flow, used to balance draws.
    pub part_ms: f64,
    pub mono_ms: f64,
}

impl Member {
    /// The pinned answer of one flow.
    pub fn answer(&self, flow: Flow) -> Answer {
        match flow {
            Flow::Part => self.part,
            Flow::Mono => self.mono,
        }
    }
}

/// The screened pools, compiled in so a run needs no file beside the
/// binary.
const POOLS: &str = include_str!("../pools.tsv");

/// A pool row: the sets the member belongs to, and the member.
pub type Row = (Vec<String>, Member);

/// Parses the pool table. Columns: family, sets (comma list), size,
/// out_extra, gen_seed, partitioned csf/subset states, monolithic
/// csf/subset states, partitioned ms, monolithic ms; further columns are
/// screening notes.
pub fn parse_pools(text: &str) -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 11 {
            return Err(format!("pools.tsv:{}: expected 11 columns", n + 1));
        }
        let num = |k: usize| -> Result<u64, String> {
            cols[k]
                .parse::<u64>()
                .map_err(|e| format!("pools.tsv:{}: column {}: {e}", n + 1, k + 1))
        };
        let ms = |k: usize| -> Result<f64, String> {
            cols[k]
                .parse::<f64>()
                .map_err(|e| format!("pools.tsv:{}: column {}: {e}", n + 1, k + 1))
        };
        let family = Family::parse(cols[0])
            .ok_or_else(|| format!("pools.tsv:{}: unknown family `{}`", n + 1, cols[0]))?;
        let member = Member {
            shape: Shape {
                family,
                size: num(2)? as usize,
                out_extra: num(3)? as usize,
                gen_seed: num(4)?,
            },
            part: Answer {
                csf_states: num(5)? as usize,
                subset_states: num(6)? as usize,
            },
            mono: Answer {
                csf_states: num(7)? as usize,
                subset_states: num(8)? as usize,
            },
            part_ms: ms(9)?,
            mono_ms: ms(10)?,
        };
        let sets = cols[1].split(',').map(str::to_string).collect();
        out.push((sets, member));
    }
    Ok(out)
}

/// Every member of `family` in the compiled-in pool.
pub fn all_members(family: Family) -> Vec<Member> {
    let rows = parse_pools(POOLS).expect("the compiled-in pool table parses");
    rows.into_iter()
        .filter(|(_, m)| m.shape.family == family)
        .map(|(_, m)| m)
        .collect()
}

/// The members of `family` in the named set.
pub fn members(family: Family, set: &str) -> Vec<Member> {
    let rows = parse_pools(POOLS).expect("the compiled-in pool table parses");
    rows.into_iter()
        .filter(|(sets, m)| m.shape.family == family && sets.iter().any(|s| s == set))
        .map(|(_, m)| m)
        .collect()
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes the
/// draw and the operation order on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for k in (1..items.len()).rev() {
            items.swap(k, self.below(k + 1));
        }
    }
}

/// Tries made by [`balanced_draw`] before it settles for the best found.
const DRAW_TRIES: usize = 20_000;

/// Draws `k` distinct members whose screened totals of both flows sit
/// within `tol` of `k` times the set's mean, so every seed's circuits cost
/// about the same: different seeds draw different circuits without moving
/// the run's totals. Settles for the best of [`DRAW_TRIES`] seeded tries.
pub fn balanced_draw(set: &[Member], k: usize, tol: f64, rng: &mut Rng) -> Vec<Member> {
    let k = k.min(set.len());
    let mean = |f: fn(&Member) -> f64| set.iter().map(f).sum::<f64>() / set.len() as f64;
    let target = (
        k as f64 * mean(|m| m.part_ms),
        k as f64 * mean(|m| m.mono_ms),
    );
    let deviation = |pick: &[usize]| {
        let part: f64 = pick.iter().map(|&i| set[i].part_ms).sum();
        let mono: f64 = pick.iter().map(|&i| set[i].mono_ms).sum();
        ((part - target.0) / target.0)
            .abs()
            .max(((mono - target.1) / target.1).abs())
    };
    let mut order: Vec<usize> = (0..set.len()).collect();
    let mut best: Option<(f64, Vec<usize>)> = None;
    for _ in 0..DRAW_TRIES {
        rng.shuffle(&mut order);
        let pick = &order[..k];
        let d = deviation(pick);
        if best.as_ref().is_none_or(|(b, _)| d < *b) {
            best = Some((d, pick.to_vec()));
        }
        if d <= tol {
            break;
        }
    }
    best.map(|(_, pick)| pick.iter().map(|&i| set[i]).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(seed: u64, part_ms: f64, mono_ms: f64) -> Member {
        let answer = Answer {
            csf_states: 1,
            subset_states: 1,
        };
        Member {
            shape: Shape {
                family: Family::Fixpoint,
                size: 6,
                gen_seed: seed,
                out_extra: 0,
            },
            part: answer,
            mono: answer,
            part_ms,
            mono_ms,
        }
    }

    #[test]
    fn compiled_in_sets_hold_more_members_than_one_draw() {
        for (family, set, draw) in [
            (Family::Fixpoint, "draw", 3),
            (Family::Relation, "draw", 3),
            (Family::Fixpoint, "daemon", 1),
        ] {
            let members = members(family, set);
            assert!(
                members.len() > draw,
                "{} set {set} has {} members",
                family.name(),
                members.len()
            );
        }
    }

    #[test]
    fn balanced_draws_repeat_per_seed_and_keep_totals_near_the_mean() {
        let set: Vec<Member> = (0..12)
            .map(|k| member(k, 50.0 + 10.0 * k as f64, 200.0 - 5.0 * k as f64))
            .collect();
        let a = balanced_draw(&set, 3, 0.03, &mut Rng::new(7));
        assert_eq!(a, balanced_draw(&set, 3, 0.03, &mut Rng::new(7)));
        let mut distinct = a.iter().map(|m| m.shape.gen_seed).collect::<Vec<_>>();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3);
        let part: f64 = a.iter().map(|m| m.part_ms).sum();
        let mono: f64 = a.iter().map(|m| m.mono_ms).sum();
        assert!(
            (part / (3.0 * 105.0) - 1.0).abs() <= 0.03,
            "part total {part}"
        );
        assert!(
            (mono / (3.0 * 172.5) - 1.0).abs() <= 0.03,
            "mono total {mono}"
        );
        let differs = (0..50u64).any(|s| balanced_draw(&set, 3, 0.03, &mut Rng::new(s)) != a);
        assert!(differs, "some seed must draw a different set");
    }

    #[test]
    fn malformed_pool_rows_are_rejected() {
        assert!(parse_pools("fixpoint\tdraw\t7").is_err());
        assert!(parse_pools("bogus\tdraw\t7\t0\t1\t1\t1\t1\t1\t1.0\t1.0").is_err());
        assert!(parse_pools("fixpoint\tdraw\tx\t0\t1\t1\t1\t1\t1\t1.0\t1.0").is_err());
        let rows =
            parse_pools("# c\n\nfixpoint\tdraw,serve\t7\t0\t1\t2\t3\t4\t5\t6.5\t7.5").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, vec!["draw".to_string(), "serve".to_string()]);
        assert_eq!(rows[0].1.mono.subset_states, 5);
    }
}
