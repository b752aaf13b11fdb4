//! Splits one traced solve into layer phases from the observer's event
//! stamps.
//!
//! The benchmark stamps the problem build, then every `SubsetState` and
//! `ImageComputed` event, then the return of `Solver::solve`. Consecutive
//! stamps bound each phase, so the phases telescope: they sum to the
//! operation's wall time exactly.
//!
//! * build — from the operation's start until the problem is built;
//! * compile — from there to the first `SubsetState` (relation and image
//!   set-up, the `Started` event included);
//! * within a state, every image but the last is a Qξ image; the last is
//!   Pξ, or the monolithic image;
//! * successor — from a state's last image to the next `SubsetState`
//!   (cofactor classes, rename, interning, `add_transition`);
//! * extract — from the last event until `solve` returns.

/// A stamped observer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    State,
    Image,
}

/// The phases of one solve, in nanoseconds, with their call counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phases {
    pub build_ns: u64,
    pub compile_ns: u64,
    pub q_ns: u64,
    pub q_calls: u64,
    /// Pξ images (partitioned) or monolithic images.
    pub p_ns: u64,
    pub p_calls: u64,
    pub successor_ns: u64,
    pub extract_ns: u64,
    pub states: u64,
}

impl Phases {
    pub fn total_ns(&self) -> u64 {
        self.build_ns
            + self.compile_ns
            + self.q_ns
            + self.p_ns
            + self.successor_ns
            + self.extract_ns
    }
}

/// Splits the stamps of one solve. `built` and every stamp are offsets in
/// nanoseconds from the operation's start; `end` is the offset at which
/// `solve` returned. Stamps must be non-decreasing.
pub fn split(built: u64, stamps: &[(Event, u64)], end: u64) -> Phases {
    let mut ph = Phases {
        build_ns: built,
        ..Phases::default()
    };
    let mut last = built;
    let mut seen_state = false;
    let mut k = 0;
    while k < stamps.len() {
        let (event, at) = stamps[k];
        match event {
            Event::State => {
                if seen_state {
                    ph.successor_ns += at - last;
                } else {
                    ph.compile_ns += at - last;
                    seen_state = true;
                }
                ph.states += 1;
                last = at;
                k += 1;
            }
            Event::Image => {
                // The run of images up to the next state: all but the last
                // are Qξ.
                let run_end = stamps[k..]
                    .iter()
                    .position(|(e, _)| *e == Event::State)
                    .map_or(stamps.len(), |p| k + p);
                for (j, &(_, at)) in stamps.iter().enumerate().take(run_end).skip(k) {
                    if j + 1 == run_end {
                        ph.p_ns += at - last;
                        ph.p_calls += 1;
                    } else {
                        ph.q_ns += at - last;
                        ph.q_calls += 1;
                    }
                    last = at;
                }
                k = run_end;
            }
        }
    }
    ph.extract_ns = end - last;
    ph
}

#[cfg(test)]
mod tests {
    use super::*;
    use Event::{Image, State};

    #[test]
    fn partitioned_states_split_into_q_p_and_successor() {
        // Two states with three images each (two Qξ + Pξ).
        let stamps = [
            (State, 10),
            (Image, 12),
            (Image, 15),
            (Image, 20),
            (State, 26),
            (Image, 27),
            (Image, 29),
            (Image, 33),
        ];
        let ph = split(4, &stamps, 40);
        assert_eq!(ph.build_ns, 4);
        assert_eq!(ph.compile_ns, 6);
        assert_eq!((ph.q_ns, ph.q_calls), (2 + 3 + 1 + 2, 4));
        assert_eq!((ph.p_ns, ph.p_calls), (5 + 4, 2));
        assert_eq!(ph.successor_ns, 6);
        assert_eq!(ph.extract_ns, 7);
        assert_eq!(ph.states, 2);
        assert_eq!(ph.total_ns(), 40);
    }

    #[test]
    fn early_exit_leaves_fewer_q_images_and_the_last_is_still_p() {
        // State 1 runs 11 Qξ + Pξ; state 2 exits Qξ after 3 images.
        let mut stamps = vec![(State, 100)];
        let mut t = 100;
        for _ in 0..12 {
            t += 10;
            stamps.push((Image, t));
        }
        t += 50;
        stamps.push((State, t));
        for _ in 0..4 {
            t += 10;
            stamps.push((Image, t));
        }
        let ph = split(20, &stamps, t + 5);
        assert_eq!(ph.q_calls, 11 + 3);
        assert_eq!(ph.p_calls, 2);
        assert_eq!(ph.q_ns, 140);
        assert_eq!(ph.p_ns, 20);
        assert_eq!(ph.successor_ns, 50);
        assert_eq!(ph.compile_ns, 80);
        assert_eq!(ph.extract_ns, 5);
        assert_eq!(ph.total_ns(), t + 5);
    }

    #[test]
    fn monolithic_states_have_one_image_and_no_q() {
        let stamps = [(State, 30), (Image, 35), (State, 37), (Image, 41)];
        let ph = split(10, &stamps, 50);
        assert_eq!((ph.q_calls, ph.q_ns), (0, 0));
        assert_eq!((ph.p_calls, ph.p_ns), (2, 9));
        assert_eq!(ph.compile_ns, 20);
        assert_eq!(ph.successor_ns, 2);
        assert_eq!(ph.extract_ns, 9);
        assert_eq!(ph.total_ns(), 50);
    }

    #[test]
    fn a_solve_without_states_is_all_extract() {
        let ph = split(3, &[], 9);
        assert_eq!(ph.compile_ns, 0);
        assert_eq!(ph.extract_ns, 6);
        assert_eq!(ph.total_ns(), 9);
    }
}
