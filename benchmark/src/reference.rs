//! A fixed reference workload that measures the host's current speed.
//!
//! The host this benchmark was built on (a 2-vCPU KVM guest) drifts in
//! speed by 15–30% over minutes, whatever the program does: the same solves
//! run 30% slower for a quarter of an hour, then recover. Each in-process
//! solve is therefore preceded by one run of this kernel, so the kernel
//! samples the same phases as the solves, and a run's solve times are
//! scaled by `NOMINAL_NS / median kernel time`: the time the solves would
//! take on a host where the kernel takes [`NOMINAL_NS`]. The kernel is
//! benchmark code, so no change to the program can move it.

use std::time::Instant;

/// The kernel's time in a fast phase of the host above; it only sets the
/// scale of the scaled metrics.
pub const NOMINAL_NS: f64 = 10e6;

/// log2 of the table's slots (4 MB of `u64`).
const SLOTS_LOG2: u32 = 19;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The kernel's table, allocated once so a run never measures page faults.
pub struct Reference {
    table: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            table: vec![0; 1 << SLOTS_LOG2],
        }
    }

    /// One timed run of the kernel, in nanoseconds.
    pub fn time_ns(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(run(&mut self.table));
        t.elapsed().as_nanos() as f64
    }
}

/// Clears the table, fills half of it with hashed keys, then probes it
/// once for every key from a second hash: the random, dependent memory
/// traffic of the BDD kernel's unique table and op-cache. Returns a checksum.
fn run(table: &mut [u64]) -> u64 {
    table.fill(0);
    let slots = table.len();
    let mask = slots - 1;
    let mut sum = 0u64;
    for pass in 0..2u64 {
        for k in 0..(slots as u64 / 2) {
            let key = mix(k) | 1;
            let mut i = mix(k.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pass) as usize & mask;
            loop {
                match table[i] {
                    0 => {
                        if pass == 0 {
                            table[i] = key;
                        }
                        break;
                    }
                    v if v == key => {
                        sum = sum.wrapping_add(i as u64);
                        break;
                    }
                    _ => i = (i + 1) & mask,
                }
            }
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_run() {
        let mut table = vec![0; 1 << SLOTS_LOG2];
        let a = run(&mut table);
        assert_eq!(a, run(&mut table));
        assert_ne!(a, 0, "the second pass must find keys of the first");
    }
}
