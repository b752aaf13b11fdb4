//! A plain-text exchange format for automata, so computed flexibilities can
//! be saved, diffed and reloaded (the role BLIF-MV files played for BALM).
//!
//! ```text
//! .aut
//! .alphabet a b c        # variable names, in label-column order
//! .states 3
//! .initial 0
//! .accepting 0 2
//! .name 0 start          # optional
//! .trans 0 1-0 1         # from, positional cube over the alphabet, to
//! .trans 1 --1 2
//! .end
//! ```
//!
//! Each `.trans` line contributes one cube; multiple lines between the same
//! state pair union their cubes into one transition. Writing enumerates the
//! label BDDs as disjoint cubes, so `write` → `parse` reproduces the
//! language exactly.

use std::collections::HashMap;

use langeq_bdd::{Bdd, BddManager, VarId};

use crate::{Automaton, StateId};

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "automaton format error at line {}: {}",
            self.line, self.msg
        )
    }
}

impl std::error::Error for FormatError {}

/// Writes an automaton in the `.aut` text format. `names` supplies the
/// alphabet column names (defaults to `v<k>`).
pub fn write(aut: &Automaton, names: &HashMap<VarId, String>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, ".aut");
    let cols: Vec<String> = aut
        .alphabet()
        .iter()
        .map(|v| names.get(v).cloned().unwrap_or_else(|| v.to_string()))
        .collect();
    let _ = writeln!(out, ".alphabet {}", cols.join(" "));
    let _ = writeln!(out, ".states {}", aut.num_states());
    if let Some(init) = aut.initial() {
        let _ = writeln!(out, ".initial {}", init.0);
    }
    let accepting: Vec<String> = (0..aut.num_states())
        .filter(|&s| aut.is_accepting(StateId(s as u32)))
        .map(|s| s.to_string())
        .collect();
    let _ = writeln!(out, ".accepting {}", accepting.join(" "));
    for s in 0..aut.num_states() {
        let sid = StateId(s as u32);
        let name = aut.state_name(sid);
        if name != format!("s{s}") {
            let _ = writeln!(
                out,
                ".name {} {}",
                s,
                name.replace(char::is_whitespace, "_")
            );
        }
    }
    for s in 0..aut.num_states() {
        let sid = StateId(s as u32);
        for (label, to) in aut.transitions_from(sid) {
            for cube in label.iter_cubes() {
                let _ = writeln!(
                    out,
                    ".trans {} {} {}",
                    s,
                    if aut.alphabet().is_empty() {
                        "-".to_string()
                    } else {
                        cube.to_positional(aut.alphabet())
                    },
                    to.0
                );
            }
        }
    }
    let _ = writeln!(out, ".end");
    out
}

/// Parses the `.aut` format, creating one fresh manager variable per
/// alphabet column. Returns the automaton together with the name → variable
/// mapping.
///
/// # Errors
///
/// [`FormatError`] with a line number on malformed input.
pub fn parse(
    mgr: &BddManager,
    text: &str,
) -> Result<(Automaton, HashMap<String, VarId>), FormatError> {
    let mut cols: Vec<(String, VarId)> = Vec::new();
    let mut num_states = 0usize;
    let mut initial: Option<u32> = None;
    let mut accepting: Vec<u32> = Vec::new();
    let mut names: Vec<(u32, String)> = Vec::new();
    // (from, cube, to)
    let mut trans: Vec<(u32, String, u32)> = Vec::new();
    let mut seen_header = false;

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        let cmd = toks.next().unwrap_or("");
        let err = |msg: String| FormatError { line: lineno, msg };
        match cmd {
            ".aut" => seen_header = true,
            ".alphabet" => {
                for name in toks {
                    let var = mgr.new_var().support()[0];
                    cols.push((name.to_string(), var));
                }
            }
            ".states" => {
                num_states = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(".states needs a count".into()))?;
            }
            ".initial" => {
                initial = Some(
                    toks.next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(".initial needs a state".into()))?,
                );
            }
            ".accepting" => {
                for t in toks {
                    accepting.push(t.parse().map_err(|_| err(format!("bad state `{t}`")))?);
                }
            }
            ".name" => {
                let s: u32 = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(".name needs a state".into()))?;
                let n = toks
                    .next()
                    .ok_or_else(|| err(".name needs a name".into()))?;
                names.push((s, n.to_string()));
            }
            ".trans" => {
                let from: u32 = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(".trans needs a source".into()))?;
                let cube = toks
                    .next()
                    .ok_or_else(|| err(".trans needs a cube".into()))?
                    .to_string();
                let to: u32 = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(".trans needs a target".into()))?;
                trans.push((from, cube, to));
            }
            ".end" => break,
            other => return Err(err(format!("unknown directive `{other}`"))),
        }
    }
    if !seen_header {
        return Err(FormatError {
            line: 1,
            msg: "missing .aut header".into(),
        });
    }
    let alphabet: Vec<VarId> = cols.iter().map(|(_, v)| *v).collect();
    let mut aut = Automaton::new(mgr, &alphabet);
    for _ in 0..num_states {
        aut.add_state(false);
    }
    for s in accepting {
        if s as usize >= num_states {
            return Err(FormatError {
                line: 0,
                msg: format!("accepting state {s} out of range"),
            });
        }
        aut.set_accepting(StateId(s), true);
    }
    for (s, n) in names {
        aut.set_state_name(StateId(s), n);
    }
    // The cubes of one (from, to) pair become one transition, in order of
    // first appearance, so a written guard reloads as one label.
    let mut pairs: Vec<(u32, u32, Bdd)> = Vec::new();
    let mut slot: HashMap<(u32, u32), usize> = HashMap::new();
    for (from, cube_text, to) in trans {
        if from as usize >= num_states || to as usize >= num_states {
            return Err(FormatError {
                line: 0,
                msg: format!("transition {from}->{to} out of range"),
            });
        }
        let label = cube_from_positional(mgr, &cube_text, &alphabet).ok_or(FormatError {
            line: 0,
            msg: format!("bad cube `{cube_text}`"),
        })?;
        match slot.get(&(from, to)) {
            Some(&k) => pairs[k].2 = pairs[k].2.or(&label),
            None => {
                slot.insert((from, to), pairs.len());
                pairs.push((from, to, label));
            }
        }
    }
    for (from, to, label) in pairs {
        aut.add_transition(StateId(from), label, StateId(to));
    }
    if let Some(i) = initial {
        if i as usize >= num_states {
            return Err(FormatError {
                line: 0,
                msg: format!("initial state {i} out of range"),
            });
        }
        aut.set_initial(StateId(i));
    }
    let map = cols.into_iter().collect();
    Ok((aut, map))
}

fn cube_from_positional(mgr: &BddManager, text: &str, alphabet: &[VarId]) -> Option<Bdd> {
    if alphabet.is_empty() {
        return if text == "-" { Some(mgr.one()) } else { None };
    }
    if text.len() != alphabet.len() {
        return None;
    }
    let mut lits = Vec::new();
    for (c, &v) in text.chars().zip(alphabet) {
        match c {
            '1' => lits.push((v, true)),
            '0' => lits.push((v, false)),
            '-' => {}
            _ => return None,
        }
    }
    Some(mgr.cube(&lits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{generate, random_word, RandomAutomaton};

    #[test]
    fn round_trip_preserves_language() {
        let mgr = BddManager::new();
        let (aut, vars) = generate(
            &mgr,
            RandomAutomaton {
                seed: 42,
                num_states: 5,
                num_vars: 2,
                density: 3,
                accepting_pct: 60,
            },
        );
        let text = write(&aut, &HashMap::new());
        let mgr2 = BddManager::new();
        let (back, _) = parse(&mgr2, &text).expect("round trip parses");
        assert_eq!(back.num_states(), aut.num_states());
        for w in 0..40u64 {
            let word = random_word(w, 4, vars.len());
            assert_eq!(aut.accepts(&word), back.accepts(&word), "word seed {w}");
        }
    }

    #[test]
    fn multi_cube_guards_reload_as_one_transition() {
        let mgr = BddManager::new();
        let (raw, vars) = generate(
            &mgr,
            RandomAutomaton {
                seed: 7,
                num_states: 6,
                num_vars: 3,
                density: 6,
                accepting_pct: 50,
            },
        );
        // One transition per (from, to) pair, its guard the union of the
        // generated labels.
        let mut aut = Automaton::new(&mgr, raw.alphabet());
        for s in 0..raw.num_states() {
            aut.add_state(raw.is_accepting(StateId(s as u32)));
        }
        aut.set_initial(StateId(0));
        for s in 0..raw.num_states() {
            let mut guards: Vec<(StateId, Bdd)> = Vec::new();
            for (label, to) in raw.transitions_from(StateId(s as u32)) {
                match guards.iter_mut().find(|(t, _)| t == to) {
                    Some((_, guard)) => *guard = guard.or(label),
                    None => guards.push((*to, label.clone())),
                }
            }
            for (to, guard) in guards {
                aut.add_transition(StateId(s as u32), guard, to);
            }
        }
        let text = write(&aut, &HashMap::new());
        assert!(
            text.matches(".trans").count() > aut.num_transitions(),
            "some guard must span several cubes"
        );
        let mgr2 = BddManager::new();
        let (back, _) = parse(&mgr2, &text).expect("round trip parses");
        assert_eq!(back.num_transitions(), aut.num_transitions());
        for w in 0..200u64 {
            let word = random_word(w, 1 + (w % 6) as usize, vars.len());
            assert_eq!(aut.accepts(&word), back.accepts(&word), "word seed {w}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        let mgr = BddManager::new();
        assert!(parse(&mgr, "nonsense").is_err());
        assert!(parse(&mgr, ".aut\n.bogus\n").is_err());
        assert!(parse(&mgr, ".aut\n.states 1\n.trans 0 11 0\n.end\n").is_err());
        assert!(parse(&mgr, ".aut\n.states 1\n.initial 3\n.end\n").is_err());
    }

    #[test]
    fn empty_automaton_round_trip() {
        let mgr = BddManager::new();
        let a = mgr.new_var();
        let aut = Automaton::new(&mgr, &a.support());
        let text = write(&aut, &HashMap::new());
        let mgr2 = BddManager::new();
        let (back, _) = parse(&mgr2, &text).unwrap();
        assert_eq!(back.num_states(), 0);
        assert!(back.initial().is_none());
    }

    #[test]
    fn named_states_survive() {
        let mgr = BddManager::new();
        let a = mgr.new_var();
        let mut aut = Automaton::new(&mgr, &a.support());
        let s0 = aut.add_named_state(true, "DCA");
        aut.set_initial(s0);
        aut.add_transition(s0, mgr.one(), s0);
        let text = write(&aut, &HashMap::new());
        let mgr2 = BddManager::new();
        let (back, _) = parse(&mgr2, &text).unwrap();
        assert_eq!(back.state_name(StateId(0)), "DCA");
        assert!(back.accepts(&[vec![true], vec![false]]));
    }
}
