//! Explicit **Mealy FSMs** and the **KISS2** exchange format.
//!
//! The paper's experiments are "derived from FSM benchmarks" — the classic
//! LGSynth/MCNC FSM benchmarks distributed in KISS2 format and consumed by
//! SIS, MVSIS and BALM. This module provides the explicit Mealy machine
//! ([`MealyFsm`]), a KISS2 [`parse`]/[`MealyFsm::to_kiss`] pair, conversion
//! to a gate-level [`Network`] (binary state encoding, so KISS benchmarks
//! can feed the latch-splitting flow of the solver), and extraction from an
//! [`Stg`] (so computed machines can be written back out as KISS2).
//!
//! KISS2 in brief:
//!
//! ```text
//! .i 2            # primary inputs
//! .o 1            # primary outputs
//! .p 4            # number of product terms (transitions)
//! .s 2            # number of states (optional)
//! .r st0          # reset state (optional; default: first source state)
//! 01 st0 st1 1    # input-cube  from  to  output-pattern
//! -- st1 st0 0    # '-' = don't care
//! .e
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::network::{Network, NetworkError};
use crate::stg::Stg;

/// One KISS2 product term: an input cube, a source and target state, and an
/// output pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KissTransition {
    /// Input cube over the FSM's inputs (`None` = don't care).
    pub input: Vec<Option<bool>>,
    /// Source state index.
    pub from: usize,
    /// Target state index.
    pub to: usize,
    /// Output pattern (`None` = don't care; realised as 0 by
    /// [`MealyFsm::to_network`]).
    pub output: Vec<Option<bool>>,
}

/// An explicit Mealy finite-state machine with symbolic state names and
/// cube-compressed transitions, as found in KISS2 benchmark files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MealyFsm {
    name: String,
    num_inputs: usize,
    num_outputs: usize,
    states: Vec<String>,
    reset: usize,
    transitions: Vec<KissTransition>,
}

/// Errors raised by KISS2 parsing and FSM construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KissError {
    /// A malformed line, with its 1-based number.
    Syntax {
        /// 1-based line number within the input text.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A declared count (`.p`, `.s`, `.i`, `.o`) disagrees with the body.
    CountMismatch {
        /// Which declaration disagreed (`"products"`, `"states"`, …).
        what: &'static str,
        /// The declared value.
        declared: usize,
        /// The value implied by the body.
        got: usize,
    },
    /// A pattern has the wrong width for the declared inputs/outputs.
    Width {
        /// Which side (`"input"` or `"output"`).
        what: &'static str,
        /// Expected width.
        expected: usize,
        /// Actual width.
        got: usize,
    },
    /// A state index passed to a builder method is out of range.
    BadState(usize),
}

impl fmt::Display for KissError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KissError::Syntax { line, msg } => write!(f, "kiss syntax error on line {line}: {msg}"),
            KissError::CountMismatch {
                what,
                declared,
                got,
            } => write!(f, "declared {declared} {what} but found {got}"),
            KissError::Width {
                what,
                expected,
                got,
            } => write!(f, "{what} pattern has width {got}, expected {expected}"),
            KissError::BadState(s) => write!(f, "state index {s} out of range"),
        }
    }
}

impl std::error::Error for KissError {}

/// Maximum input count accepted by [`MealyFsm::minimize`] (the refinement
/// enumerates input minterms).
pub const MAX_MINIMIZE_INPUTS: usize = 16;

/// Errors raised by [`MealyFsm::minimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinimizeError {
    /// Overlapping product terms disagree; the machine's behaviour is
    /// order-dependent, so the quotient is not well-defined.
    NotDeterministic,
    /// Some state lacks a move under some input; complete the machine
    /// first.
    Incomplete,
    /// More inputs than [`MAX_MINIMIZE_INPUTS`].
    TooManyInputs {
        /// Inputs of the machine.
        got: usize,
        /// The enumeration bound.
        max: usize,
    },
}

impl fmt::Display for MinimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinimizeError::NotDeterministic => write!(f, "machine is not deterministic"),
            MinimizeError::Incomplete => write!(f, "machine is not complete"),
            MinimizeError::TooManyInputs { got, max } => {
                write!(f, "{got} inputs exceed the minimization bound {max}")
            }
        }
    }
}

impl std::error::Error for MinimizeError {}

fn parse_pattern(
    tok: &str,
    what: &'static str,
    width: usize,
) -> Result<Vec<Option<bool>>, KissError> {
    if tok.len() != width {
        return Err(KissError::Width {
            what,
            expected: width,
            got: tok.len(),
        });
    }
    tok.chars()
        .map(|c| match c {
            '0' => Ok(Some(false)),
            '1' => Ok(Some(true)),
            '-' => Ok(None),
            other => Err(KissError::Syntax {
                line: 0,
                msg: format!("bad pattern character `{other}` in {what}"),
            }),
        })
        .collect()
}

fn pattern_to_string(p: &[Option<bool>]) -> String {
    p.iter()
        .map(|t| match t {
            Some(true) => '1',
            Some(false) => '0',
            None => '-',
        })
        .collect()
}

/// The bit vector of input minterm `m`.
fn minterm_bits(m: usize, width: usize) -> Vec<bool> {
    (0..width).map(|k| m >> k & 1 == 1).collect()
}

/// True if the cube `pat` contains the minterm `values`.
fn cube_matches(pat: &[Option<bool>], values: &[bool]) -> bool {
    pat.iter()
        .zip(values)
        .all(|(t, &v)| t.is_none_or(|p| p == v))
}

/// True if two cubes share at least one minterm.
fn cubes_intersect(a: &[Option<bool>], b: &[Option<bool>]) -> bool {
    a.iter().zip(b).all(|(x, y)| match (x, y) {
        (Some(p), Some(q)) => p == q,
        _ => true,
    })
}

impl MealyFsm {
    /// Creates an empty machine with the given interface widths.
    pub fn new(name: impl Into<String>, num_inputs: usize, num_outputs: usize) -> Self {
        MealyFsm {
            name: name.into(),
            num_inputs,
            num_outputs,
            states: Vec::new(),
            reset: 0,
            transitions: Vec::new(),
        }
    }

    /// The machine's name (used as the network name by
    /// [`to_network`](Self::to_network)).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// State names, in index order.
    pub fn state_names(&self) -> &[String] {
        &self.states
    }

    /// The transitions (product terms) in declaration order.
    pub fn transitions(&self) -> &[KissTransition] {
        &self.transitions
    }

    /// The reset state index.
    pub fn reset(&self) -> usize {
        self.reset
    }

    /// Adds a state (or returns the existing index for a known name).
    pub fn add_state(&mut self, name: impl Into<String>) -> usize {
        let name = name.into();
        if let Some(k) = self.states.iter().position(|s| *s == name) {
            return k;
        }
        self.states.push(name);
        self.states.len() - 1
    }

    /// Looks up a state index by name.
    pub fn state_index(&self, name: &str) -> Option<usize> {
        self.states.iter().position(|s| s == name)
    }

    /// Sets the reset state.
    ///
    /// # Errors
    ///
    /// [`KissError::BadState`] if the index is out of range.
    pub fn set_reset(&mut self, state: usize) -> Result<(), KissError> {
        if state >= self.states.len() {
            return Err(KissError::BadState(state));
        }
        self.reset = state;
        Ok(())
    }

    /// Adds a transition.
    ///
    /// # Errors
    ///
    /// [`KissError::Width`] if a pattern width disagrees with the declared
    /// interface, [`KissError::BadState`] for out-of-range state indices.
    pub fn add_transition(
        &mut self,
        input: Vec<Option<bool>>,
        from: usize,
        to: usize,
        output: Vec<Option<bool>>,
    ) -> Result<(), KissError> {
        if input.len() != self.num_inputs {
            return Err(KissError::Width {
                what: "input",
                expected: self.num_inputs,
                got: input.len(),
            });
        }
        if output.len() != self.num_outputs {
            return Err(KissError::Width {
                what: "output",
                expected: self.num_outputs,
                got: output.len(),
            });
        }
        if from >= self.states.len() {
            return Err(KissError::BadState(from));
        }
        if to >= self.states.len() {
            return Err(KissError::BadState(to));
        }
        self.transitions.push(KissTransition {
            input,
            from,
            to,
            output,
        });
        Ok(())
    }

    // ----- semantics -----------------------------------------------------------

    /// Executes one step from `state` under the input minterm `inputs`,
    /// using the first matching product term (the KISS2 priority
    /// convention). Returns `None` when no term matches (the machine is
    /// incomplete there). Output don't-cares are realised as `false`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range or `inputs` has the wrong width.
    pub fn step(&self, state: usize, inputs: &[bool]) -> Option<(usize, Vec<bool>)> {
        assert!(state < self.states.len(), "state out of range");
        assert_eq!(inputs.len(), self.num_inputs, "bad input width");
        self.transitions
            .iter()
            .find(|t| t.from == state && cube_matches(&t.input, inputs))
            .map(|t| {
                let outs = t.output.iter().map(|o| o.unwrap_or(false)).collect();
                (t.to, outs)
            })
    }

    /// Runs the machine from reset on a sequence of input minterms,
    /// returning the output sequence, or `None` if some step is undefined.
    pub fn run(&self, word: &[Vec<bool>]) -> Option<Vec<Vec<bool>>> {
        let mut state = self.reset;
        let mut outs = Vec::with_capacity(word.len());
        for inputs in word {
            let (next, o) = self.step(state, inputs)?;
            outs.push(o);
            state = next;
        }
        Some(outs)
    }

    /// True if no state has two product terms with intersecting input cubes
    /// that disagree on target or outputs (first-match priority would hide
    /// the conflict, but the machine is then order-sensitive).
    pub fn is_deterministic(&self) -> bool {
        for (i, a) in self.transitions.iter().enumerate() {
            for b in &self.transitions[i + 1..] {
                if a.from == b.from
                    && cubes_intersect(&a.input, &b.input)
                    && (a.to != b.to || a.output != b.output)
                {
                    return false;
                }
            }
        }
        true
    }

    /// True if every state's input cubes cover the whole input space.
    pub fn is_complete(&self) -> bool {
        // Exact cover check via a scratch BDD over the input variables.
        let mgr = langeq_bdd::BddManager::new();
        let vars = mgr.new_vars(self.num_inputs);
        (0..self.states.len()).all(|s| {
            let mut cover = mgr.zero();
            for t in self.transitions.iter().filter(|t| t.from == s) {
                let mut cube = mgr.one();
                for (k, trit) in t.input.iter().enumerate() {
                    if let Some(v) = trit {
                        let lit = if *v { vars[k].clone() } else { vars[k].not() };
                        cube = cube.and(&lit);
                    }
                }
                cover = cover.or(&cube);
            }
            cover.is_one()
        })
    }

    /// Classic Mealy **state minimization** by partition refinement over the
    /// input minterms: states are equivalent iff they produce the same
    /// outputs and equivalent successors for every input. Returns the
    /// quotient machine restricted to the states reachable from reset, with
    /// one fully specified product term per (state, input-minterm) pair.
    ///
    /// # Errors
    ///
    /// Requires a complete, deterministic machine with at most
    /// [`MAX_MINIMIZE_INPUTS`] inputs (the refinement enumerates input
    /// minterms); see [`MinimizeError`].
    pub fn minimize(&self) -> Result<MealyFsm, MinimizeError> {
        if self.num_inputs > MAX_MINIMIZE_INPUTS {
            return Err(MinimizeError::TooManyInputs {
                got: self.num_inputs,
                max: MAX_MINIMIZE_INPUTS,
            });
        }
        if !self.is_deterministic() {
            return Err(MinimizeError::NotDeterministic);
        }
        if !self.is_complete() {
            return Err(MinimizeError::Incomplete);
        }
        let n = self.states.len();
        if n == 0 {
            return Ok(self.clone());
        }
        let minterms = 1usize << self.num_inputs;
        // Dense transition/output tables.
        let mut next = vec![vec![0usize; minterms]; n];
        let mut outs = vec![vec![Vec::new(); minterms]; n];
        for s in 0..n {
            for m in 0..minterms {
                let bits: Vec<bool> = (0..self.num_inputs).map(|k| m >> k & 1 == 1).collect();
                let (t, o) = self
                    .step(s, &bits)
                    .expect("complete machine has a move everywhere");
                next[s][m] = t;
                outs[s][m] = o;
            }
        }
        // Initial partition: by the full output signature.
        let mut class = vec![0usize; n];
        {
            let mut sig: HashMap<&Vec<Vec<bool>>, usize> = HashMap::new();
            for s in 0..n {
                let k = sig.len();
                class[s] = *sig.entry(&outs[s]).or_insert(k);
            }
        }
        // Refine until stable.
        loop {
            let mut sig: HashMap<(usize, Vec<usize>), usize> = HashMap::new();
            let mut fresh = vec![0usize; n];
            for s in 0..n {
                let succ: Vec<usize> = (0..minterms).map(|m| class[next[s][m]]).collect();
                let k = sig.len();
                fresh[s] = *sig.entry((class[s], succ)).or_insert(k);
            }
            if fresh == class {
                break;
            }
            class = fresh;
        }
        // Quotient machine over the classes reachable from reset.
        let mut fsm = MealyFsm::new(
            format!("{}_min", self.name),
            self.num_inputs,
            self.num_outputs,
        );
        let mut rep_of: HashMap<usize, usize> = HashMap::new(); // class -> new index
        let mut work = vec![self.reset];
        let c0 = class[self.reset];
        rep_of.insert(c0, fsm.add_state(self.states[self.reset].clone()));
        fsm.set_reset(0).expect("state 0 exists");
        while let Some(s) = work.pop() {
            let from_idx = rep_of[&class[s]];
            for m in 0..minterms {
                let t = next[s][m];
                let to_idx = match rep_of.get(&class[t]) {
                    Some(&k) => k,
                    None => {
                        let k = fsm.add_state(self.states[t].clone());
                        rep_of.insert(class[t], k);
                        work.push(t);
                        k
                    }
                };
                fsm.transitions.push(KissTransition {
                    input: minterm_bits(m, self.num_inputs)
                        .into_iter()
                        .map(Some)
                        .collect(),
                    from: from_idx,
                    to: to_idx,
                    output: outs[s][m].iter().copied().map(Some).collect(),
                });
            }
        }
        Ok(fsm)
    }

    // ----- conversions ---------------------------------------------------------

    /// Renders the machine in KISS2 format.
    pub fn to_kiss(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.name);
        let _ = writeln!(out, ".i {}", self.num_inputs);
        let _ = writeln!(out, ".o {}", self.num_outputs);
        let _ = writeln!(out, ".p {}", self.transitions.len());
        let _ = writeln!(out, ".s {}", self.states.len());
        if !self.states.is_empty() {
            let _ = writeln!(out, ".r {}", self.states[self.reset]);
        }
        for t in &self.transitions {
            let _ = writeln!(
                out,
                "{} {} {} {}",
                pattern_to_string(&t.input),
                self.states[t.from],
                self.states[t.to],
                pattern_to_string(&t.output),
            );
        }
        let _ = writeln!(out, ".e");
        out
    }

    /// Synthesizes the machine into a gate-level [`Network`] with a binary
    /// state encoding (`⌈log₂ |S|⌉` latches; state *k* is encoded as the
    /// binary code of *k*; the latch power-up values encode the reset
    /// state). Next-state and output functions are realised as sum-of-cubes
    /// covers, one product term per KISS2 line.
    ///
    /// The construction preserves the machine's behaviour exactly when the
    /// machine [`is_deterministic`](Self::is_deterministic). Where the
    /// machine is incomplete, the network (which is a total function)
    /// produces all-zero next-state code and all-zero outputs; output
    /// don't-cares are likewise realised as 0.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if internal net names collide (cannot happen
    /// for machines built through this API).
    pub fn to_network(&self) -> Result<Network, NetworkError> {
        let nstates = self.states.len().max(1);
        let nbits = usize::max(1, nstates.next_power_of_two().trailing_zeros() as usize);
        let mut n = Network::new(&self.name);
        let inputs: Vec<_> = (0..self.num_inputs)
            .map(|k| n.add_input(&format!("i{k}")))
            .collect();
        let mut qs = Vec::new();
        let mut latch_idx = Vec::new();
        for k in 0..nbits {
            let init = self.reset >> k & 1 == 1;
            let (idx, q) = n.add_latch(&format!("q{k}"), init);
            qs.push(q);
            latch_idx.push(idx);
        }
        // One cube over (inputs ++ state bits) per product term.
        let fanins: Vec<_> = inputs.iter().chain(qs.iter()).copied().collect();
        let term_cube = |t: &KissTransition| -> Vec<Option<bool>> {
            let mut cube = t.input.clone();
            cube.extend((0..nbits).map(|k| Some(t.from >> k & 1 == 1)));
            cube
        };
        for (k, &idx) in latch_idx.iter().enumerate() {
            let cubes: Vec<Vec<Option<bool>>> = self
                .transitions
                .iter()
                .filter(|t| t.to >> k & 1 == 1)
                .map(&term_cube)
                .collect();
            let d = n.add_cover(&format!("d{k}"), &fanins, cubes, true)?;
            n.set_latch_data(idx, d);
        }
        for j in 0..self.num_outputs {
            let cubes: Vec<Vec<Option<bool>>> = self
                .transitions
                .iter()
                .filter(|t| t.output[j] == Some(true))
                .map(&term_cube)
                .collect();
            let z = n.add_cover(&format!("z{j}"), &fanins, cubes, true)?;
            n.add_output(z);
        }
        Ok(n)
    }

    /// Builds an explicit machine from an extracted [`Stg`] (one fully
    /// specified product term per state/input-minterm pair). States are
    /// named after the STG's latch-value vectors; the STG's state 0 (the
    /// network's initial state) becomes the reset state.
    pub fn from_stg(name: impl Into<String>, stg: &Stg) -> MealyFsm {
        let mut fsm = MealyFsm::new(name, stg.num_inputs, stg.num_outputs);
        for s in &stg.states {
            let label: String = s.iter().map(|&b| if b { '1' } else { '0' }).collect();
            fsm.add_state(format!("s{label}"));
        }
        for (s, edges) in stg.edges.iter().enumerate() {
            for e in edges {
                let input = (0..stg.num_inputs)
                    .map(|k| Some(e.input >> k & 1 == 1))
                    .collect();
                let output = (0..stg.num_outputs)
                    .map(|k| Some(e.output >> k & 1 == 1))
                    .collect();
                fsm.transitions.push(KissTransition {
                    input,
                    from: s,
                    to: e.target,
                    output,
                });
            }
        }
        fsm
    }
}

/// Parses a KISS2 description.
///
/// States are created on first mention; the reset state is `.r` when given,
/// otherwise the source state of the first product term. Lines starting
/// with `#` and inline `#` comments are ignored.
///
/// # Errors
///
/// [`KissError::Syntax`] for malformed lines or a text without product
/// terms, [`KissError::Width`] for pattern-width violations, and
/// [`KissError::CountMismatch`] when `.p` or `.s` disagree with the body.
pub fn parse(text: &str) -> Result<MealyFsm, KissError> {
    let mut ni: Option<usize> = None;
    let mut no: Option<usize> = None;
    let mut declared_p: Option<usize> = None;
    let mut declared_s: Option<usize> = None;
    let mut reset_name: Option<String> = None;
    let mut fsm: Option<MealyFsm> = None;
    let mut index: HashMap<String, usize> = HashMap::new();

    let syntax = |line: usize, msg: &str| KissError::Syntax {
        line,
        msg: msg.to_string(),
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut toks = body.split_whitespace();
        let head = toks.next().expect("nonempty line has a token");
        match head {
            ".i" => {
                ni = Some(
                    toks.next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| syntax(line, ".i needs a count"))?,
                );
            }
            ".o" => {
                no = Some(
                    toks.next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| syntax(line, ".o needs a count"))?,
                );
            }
            ".p" => {
                declared_p = Some(
                    toks.next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| syntax(line, ".p needs a count"))?,
                );
            }
            ".s" => {
                declared_s = Some(
                    toks.next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| syntax(line, ".s needs a count"))?,
                );
            }
            ".r" => {
                reset_name = Some(
                    toks.next()
                        .ok_or_else(|| syntax(line, ".r needs a state name"))?
                        .to_string(),
                );
            }
            ".e" => break,
            _ => {
                // A product term: INPUT FROM TO OUTPUT.
                let (ni, no) = match (ni, no) {
                    (Some(ni), Some(no)) => (ni, no),
                    _ => return Err(syntax(line, "product term before .i/.o")),
                };
                let f = fsm.get_or_insert_with(|| MealyFsm::new("kiss", ni, no));
                let from_tok = toks
                    .next()
                    .ok_or_else(|| syntax(line, "missing source state"))?;
                let to_tok = toks
                    .next()
                    .ok_or_else(|| syntax(line, "missing target state"))?;
                let out_tok = toks
                    .next()
                    .ok_or_else(|| syntax(line, "missing output pattern"))?;
                if toks.next().is_some() {
                    return Err(syntax(line, "trailing tokens on product term"));
                }
                let input = parse_pattern(head, "input", ni).map_err(|e| match e {
                    KissError::Syntax { msg, .. } => KissError::Syntax { line, msg },
                    other => other,
                })?;
                let output = parse_pattern(out_tok, "output", no).map_err(|e| match e {
                    KissError::Syntax { msg, .. } => KissError::Syntax { line, msg },
                    other => other,
                })?;
                let from = *index
                    .entry(from_tok.to_string())
                    .or_insert_with(|| f.add_state(from_tok));
                let to = *index
                    .entry(to_tok.to_string())
                    .or_insert_with(|| f.add_state(to_tok));
                f.add_transition(input, from, to, output)?;
            }
        }
    }

    if ni.is_none() || no.is_none() {
        return Err(syntax(0, "missing .i/.o declaration"));
    }
    // Every product pattern has exactly the declared width, so a machine
    // with at least one product is never wider than its own text.
    let Some(mut fsm) = fsm else {
        return Err(syntax(0, "no product terms"));
    };
    if let Some(name) = reset_name {
        let r = fsm
            .state_index(&name)
            .unwrap_or_else(|| fsm.add_state(name));
        fsm.set_reset(r).expect("reset state exists");
    }
    if let Some(p) = declared_p {
        if p != fsm.transitions.len() {
            return Err(KissError::CountMismatch {
                what: "products",
                declared: p,
                got: fsm.transitions.len(),
            });
        }
    }
    if let Some(s) = declared_s {
        if s != fsm.states.len() {
            return Err(KissError::CountMismatch {
                what: "states",
                declared: s,
                got: fsm.states.len(),
            });
        }
    }
    Ok(fsm)
}

/// Generates a random *complete, deterministic* Mealy machine (one fully
/// specified product term per state/input-minterm pair), for property
/// tests. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `num_inputs > 8` (the generator enumerates input minterms).
pub fn random_fsm(seed: u64, num_inputs: usize, num_outputs: usize, num_states: usize) -> MealyFsm {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    assert!(num_inputs <= 8, "random_fsm enumerates input minterms");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fsm = MealyFsm::new(format!("rand{seed}"), num_inputs, num_outputs);
    for s in 0..num_states.max(1) {
        fsm.add_state(format!("st{s}"));
    }
    for s in 0..fsm.num_states() {
        for m in 0..(1u32 << num_inputs) {
            let input = (0..num_inputs).map(|k| Some(m >> k & 1 == 1)).collect();
            let to = rng.random_range(0..fsm.num_states());
            let output = (0..num_outputs).map(|_| Some(rng.random())).collect();
            fsm.add_transition(input, s, to, output)
                .expect("widths match by construction");
        }
    }
    fsm
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEACON: &str = "\
# a 2-state beacon
.i 1
.o 1
.p 4
.s 2
.r off
0 off off 0
1 off on  0
0 on  off 1
1 on  on  1
.e
";

    #[test]
    fn parse_beacon() {
        let fsm = parse(BEACON).unwrap();
        assert_eq!(fsm.num_inputs(), 1);
        assert_eq!(fsm.num_outputs(), 1);
        assert_eq!(fsm.num_states(), 2);
        assert_eq!(fsm.state_names(), &["off".to_string(), "on".to_string()]);
        assert_eq!(fsm.reset(), 0);
        assert!(fsm.is_deterministic());
        assert!(fsm.is_complete());
    }

    #[test]
    fn step_and_run() {
        let fsm = parse(BEACON).unwrap();
        let (next, out) = fsm.step(0, &[true]).unwrap();
        assert_eq!((next, out), (1, vec![false]));
        let outs = fsm.run(&[vec![true], vec![true], vec![false]]).unwrap();
        assert_eq!(outs, vec![vec![false], vec![true], vec![true]]);
    }

    #[test]
    fn kiss_round_trip() {
        let fsm = parse(BEACON).unwrap();
        let again = parse(&fsm.to_kiss()).unwrap();
        assert_eq!(fsm.num_states(), again.num_states());
        assert_eq!(fsm.transitions(), again.transitions());
        assert_eq!(fsm.reset(), again.reset());
    }

    #[test]
    fn dont_care_inputs_match() {
        let fsm = parse(".i 2\n.o 1\n-1 a b 1\n-0 a a 0\n-- b b 1\n").unwrap();
        assert!(fsm.is_complete());
        assert!(fsm.is_deterministic());
        let (next, out) = fsm.step(0, &[true, true]).unwrap();
        assert_eq!((next, out), (1, vec![true]));
    }

    #[test]
    fn nondeterminism_detected() {
        let fsm = parse(".i 1\n.o 1\n- a a 0\n1 a b 1\n").unwrap();
        assert!(!fsm.is_deterministic());
    }

    #[test]
    fn incompleteness_detected() {
        let fsm = parse(".i 1\n.o 1\n0 a a 0\n").unwrap();
        assert!(!fsm.is_complete());
        assert!(fsm.step(0, &[true]).is_none());
    }

    #[test]
    fn reset_defaults_to_first_source() {
        let fsm = parse(".i 1\n.o 1\n- b b 1\n- a a 0\n").unwrap();
        assert_eq!(fsm.state_names()[fsm.reset()], "b");
    }

    #[test]
    fn parse_errors_carry_position() {
        match parse(".i 1\n.o 1\nbogus a b\n") {
            Err(KissError::Syntax { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected syntax error, got {other:?}"),
        }
        assert!(matches!(
            parse(".i 2\n.o 1\n0 a a 0\n"),
            Err(KissError::Width { what: "input", .. })
        ));
        assert!(matches!(
            parse(".i 1\n.o 1\n.p 5\n0 a a 0\n"),
            Err(KissError::CountMismatch {
                what: "products",
                ..
            })
        ));
    }

    #[test]
    fn texts_without_product_terms_are_rejected() {
        // Without a product nothing ties the declared widths to the text:
        // these tiny inputs would declare machines billions of bits wide,
        // or a machine with no state to reset into.
        for text in [
            ".i 1\n.o 1\n.e\n",
            ".i 4000000000\n.o 1\n.e\n",
            ".i 1\n.o 4000000000\n.e\n",
        ] {
            assert!(
                matches!(parse(text), Err(KissError::Syntax { .. })),
                "{text:?} must be rejected"
            );
        }
    }

    #[test]
    fn to_network_matches_fsm_semantics() {
        let fsm = parse(BEACON).unwrap();
        let net = fsm.to_network().unwrap();
        assert_eq!(net.num_inputs(), 1);
        assert_eq!(net.num_outputs(), 1);
        assert_eq!(net.num_latches(), 1);
        // Simulate both for a few steps.
        let mut state = fsm.reset();
        let mut cs = net.initial_state();
        for step in 0..16u32 {
            let inputs = vec![step % 3 == 0];
            let (fsm_next, fsm_out) = fsm.step(state, &inputs).unwrap();
            let (net_out, net_ns) = net.eval_step(&inputs, &cs);
            assert_eq!(net_out, fsm_out, "outputs diverge at step {step}");
            state = fsm_next;
            cs = net_ns;
            // The network state encodes the FSM state index.
            let code = cs
                .iter()
                .enumerate()
                .fold(0usize, |acc, (k, &b)| acc | usize::from(b) << k);
            assert_eq!(code, state, "state codes diverge at step {step}");
        }
    }

    #[test]
    fn random_fsm_network_equivalence() {
        for seed in 0..6 {
            let fsm = random_fsm(seed, 2, 2, 5);
            assert!(fsm.is_deterministic());
            assert!(fsm.is_complete());
            let net = fsm.to_network().unwrap();
            let mut state = fsm.reset();
            let mut cs = net.initial_state();
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let inputs = vec![x & 1 == 1, x & 2 == 2];
                let (fsm_next, fsm_out) = fsm.step(state, &inputs).unwrap();
                let (net_out, net_ns) = net.eval_step(&inputs, &cs);
                assert_eq!(net_out, fsm_out);
                state = fsm_next;
                cs = net_ns;
            }
        }
    }

    /// Equivalence oracle: co-simulate two machines on pseudo-random words.
    fn co_simulate(a: &MealyFsm, b: &MealyFsm, seed: u64, steps: usize) {
        assert_eq!(a.num_inputs(), b.num_inputs());
        let mut sa = a.reset();
        let mut sb = b.reset();
        let mut x = seed | 1;
        for step in 0..steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let inputs: Vec<bool> = (0..a.num_inputs()).map(|k| x >> k & 1 == 1).collect();
            let (na, oa) = a.step(sa, &inputs).expect("a complete");
            let (nb, ob) = b.step(sb, &inputs).expect("b complete");
            assert_eq!(oa, ob, "outputs diverge at step {step}");
            sa = na;
            sb = nb;
        }
    }

    #[test]
    fn minimize_collapses_duplicated_states() {
        // Two copies of the beacon glued together: 4 states, minimal is 2.
        let fsm = parse(
            ".i 1\n.o 1\n.r off\n\
             0 off off 0\n1 off on  0\n0 on  off2 1\n1 on  on2  1\n\
             0 off2 off 0\n1 off2 on2 0\n0 on2 off2 1\n1 on2 on 1\n",
        )
        .unwrap();
        assert_eq!(fsm.num_states(), 4);
        let min = fsm.minimize().unwrap();
        assert_eq!(min.num_states(), 2);
        assert!(min.is_deterministic() && min.is_complete());
        co_simulate(&fsm, &min, 0xB0B, 256);
    }

    #[test]
    fn minimize_is_idempotent_and_preserves_behaviour() {
        for seed in 0..8 {
            let fsm = random_fsm(seed, 2, 1, 7);
            let min = fsm.minimize().unwrap();
            assert!(min.num_states() <= fsm.num_states());
            co_simulate(&fsm, &min, seed.wrapping_mul(77) + 5, 256);
            let again = min.minimize().unwrap();
            assert_eq!(again.num_states(), min.num_states(), "idempotence");
        }
    }

    #[test]
    fn minimize_rejects_bad_machines() {
        let nondet = parse(".i 1\n.o 1\n- a a 0\n1 a b 1\n- b b 0\n").unwrap();
        assert_eq!(nondet.minimize(), Err(MinimizeError::NotDeterministic));
        let incomplete = parse(".i 1\n.o 1\n0 a a 0\n").unwrap();
        assert_eq!(incomplete.minimize(), Err(MinimizeError::Incomplete));
    }

    #[test]
    fn minimize_drops_unreachable_states() {
        let fsm = parse(".i 1\n.o 1\n.r a\n- a a 0\n- zombie zombie 1\n").unwrap();
        let min = fsm.minimize().unwrap();
        assert_eq!(min.num_states(), 1);
        assert_eq!(min.state_names()[min.reset()], "a");
    }

    #[test]
    fn stg_round_trip_preserves_behaviour() {
        // network -> STG -> MealyFsm -> network' must produce identical
        // I/O traces.
        let n = crate::gen::figure3();
        let stg = crate::stg::extract(&n);
        let fsm = MealyFsm::from_stg("fig3", &stg);
        assert_eq!(fsm.num_states(), stg.num_states());
        let n2 = fsm.to_network().unwrap();
        let mut cs1 = n.initial_state();
        let mut cs2 = n2.initial_state();
        let mut x = 0xDEAD_BEEFu64;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let inputs = vec![x & 1 == 1];
            let (o1, ns1) = n.eval_step(&inputs, &cs1);
            let (o2, ns2) = n2.eval_step(&inputs, &cs2);
            assert_eq!(o1, o2);
            cs1 = ns1;
            cs2 = ns2;
        }
    }
}
