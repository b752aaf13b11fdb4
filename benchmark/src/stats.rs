//! The benchmark's arithmetic: medians, per-circuit median sums, the tail
//! percentile, and the operation tally.

use crate::pool::Answer;

/// Median of `xs` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The sum over circuits of each circuit's median: the time to run every
/// circuit once. Medians are taken per circuit because circuits of one run
/// cost different amounts, and the median of the mixed population jumps
/// between their clusters.
pub fn sum_of_medians(per_circuit: &[Vec<f64>]) -> f64 {
    per_circuit.iter().map(|xs| median(xs)).sum()
}

/// The highest percentile that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Percentile of `value` within the samples (rank / count × 100).
    pub percentile: f64,
    pub samples: usize,
}

/// Ten samples must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`, or `None` with ten samples or fewer.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND; // 1-based rank of the reported sample
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Records one operation; returns true when it passed.
    pub fn record(&mut self, label: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.problems.len() < 20 {
                    self.problems.push(format!("{label}: {why}"));
                }
                false
            }
        }
    }

    /// Records one solve checked against its pinned answer.
    pub fn check(&mut self, label: &str, got: &Result<Answer, String>, want: Answer) -> bool {
        let outcome = match got {
            Ok(a) if *a == want => Ok(()),
            Ok(a) => Err(format!(
                "answer csf={} subset={}, pinned csf={} subset={}",
                a.csf_states, a.subset_states, want.csf_states, want.subset_states
            )),
            Err(e) => Err(e.clone()),
        };
        self.record(label, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn per_circuit_medians_are_summed() {
        // Circuit A is ~10, circuit B ~100: the pooled median would sit in
        // one cluster; the sum of medians is the cost of one pass.
        let a = vec![10.0, 12.0, 11.0];
        let b = vec![100.0, 90.0, 95.0, 300.0];
        assert_eq!(sum_of_medians(&[a, b]), 11.0 + 97.5);
        assert_eq!(sum_of_medians(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (30.0, 75.0, 40));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let t = tail(&[xs.clone(), vec![11.0]].concat()).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn failures_count_against_attempts() {
        let want = Answer {
            csf_states: 5,
            subset_states: 6,
        };
        let mut tally = Tally::default();
        assert!(tally.check("ok", &Ok(want), want));
        let wrong = Answer {
            csf_states: 5,
            subset_states: 7,
        };
        assert!(!tally.check("mismatch", &Ok(wrong), want));
        assert!(!tally.check("cnc", &Err("CNC: exceeded 8 live BDD nodes".into()), want));
        assert!(!tally.record("error", Err("transport".into())));
        assert!(tally.record("fine", Ok(())));
        assert_eq!((tally.attempted, tally.failed), (5, 3));
        assert_eq!(tally.problems.len(), 3);
        assert!(tally.problems[0].contains("subset=7"));
    }
}
