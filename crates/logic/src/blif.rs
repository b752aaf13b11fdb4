//! Berkeley Logic Interchange Format (BLIF) — the subset used by SIS/MVSIS
//! sequential benchmarks: `.model`, `.inputs`, `.outputs`, `.latch`,
//! `.names`, `.end`.

use crate::network::{Network, NetworkError};

/// Parses BLIF text into a [`Network`].
///
/// Supported constructs:
/// * `.model <name>`, `.inputs`, `.outputs` (with `\` line continuation),
/// * `.latch <input> <output> [<type> <control>] [<init>]` — init values
///   `0`, `1` (default `0`; `2`/`3` i.e. don't-care/unknown map to `0`),
/// * `.names <in...> <out>` followed by cover lines; single-output covers
///   with `1`/`0`/`-` input columns and a constant output column,
/// * `.end`, comments (`#`) and blank lines.
///
/// # Errors
///
/// [`NetworkError::Parse`] with line information on anything malformed.
pub fn parse(text: &str) -> Result<Network, NetworkError> {
    // Join continuation lines, remembering original line numbers.
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let no_comment = raw.split('#').next().unwrap_or("");
        let (content, continued) = match no_comment.trim_end().strip_suffix('\\') {
            Some(body) => (body.to_string(), true),
            None => (no_comment.to_string(), false),
        };
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(&content);
                if continued {
                    pending = Some((start, acc));
                } else {
                    lines.push((start, acc));
                }
            }
            None => {
                if continued {
                    pending = Some((lineno, content));
                } else {
                    lines.push((lineno, content));
                }
            }
        }
    }
    if let Some((start, acc)) = pending {
        lines.push((start, acc));
    }

    let mut n = Network::new("blif");
    let mut outputs: Vec<String> = Vec::new();
    // Deferred latches: (line, data_name, out_name, init).
    let mut latches: Vec<(usize, String, String, bool)> = Vec::new();
    // Deferred covers: (line, fanin names, out name, cube lines).
    let mut covers: Vec<(usize, Vec<String>, String, Vec<String>)> = Vec::new();
    let mut current_cover: Option<usize> = None;

    for (lineno, line) in &lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('.') {
            current_cover = None;
            let mut toks = rest.split_whitespace();
            let cmd = toks.next().unwrap_or("");
            let args: Vec<&str> = toks.collect();
            match cmd {
                "model" => {
                    if let Some(name) = args.first() {
                        n.set_name(*name);
                    }
                }
                "inputs" => {
                    for a in args {
                        n.check_undriven(a, *lineno)?;
                        n.add_input(a);
                    }
                }
                "outputs" => {
                    outputs.extend(args.iter().map(|s| s.to_string()));
                }
                "latch" => {
                    if args.len() < 2 {
                        return Err(NetworkError::Parse {
                            line: *lineno,
                            msg: ".latch needs at least <input> <output>".into(),
                        });
                    }
                    // Optional: <type> <control> before init.
                    let init_tok = match args.len() {
                        2 => None,
                        3 => Some(args[2]),
                        4 => None, // <type> <control>, default init
                        5 => Some(args[4]),
                        _ => {
                            return Err(NetworkError::Parse {
                                line: *lineno,
                                msg: format!(".latch with {} fields", args.len()),
                            })
                        }
                    };
                    let init = match init_tok {
                        Some("1") => true,
                        Some("0") | Some("2") | Some("3") | None => false,
                        Some(other) => {
                            return Err(NetworkError::Parse {
                                line: *lineno,
                                msg: format!("bad latch init `{other}`"),
                            })
                        }
                    };
                    latches.push((*lineno, args[0].to_string(), args[1].to_string(), init));
                }
                "names" => {
                    let Some((out, ins)) = args.split_last() else {
                        return Err(NetworkError::Parse {
                            line: *lineno,
                            msg: ".names needs an output".into(),
                        });
                    };
                    let out = out.to_string();
                    let ins: Vec<String> = ins.iter().map(|s| s.to_string()).collect();
                    covers.push((*lineno, ins, out, Vec::new()));
                    current_cover = Some(covers.len() - 1);
                }
                "end" => break,
                "exdc" | "wire_load_slope" | "gate" | "mlatch" => {
                    return Err(NetworkError::Parse {
                        line: *lineno,
                        msg: format!("unsupported BLIF construct `.{cmd}`"),
                    });
                }
                _ => {
                    // Ignore unknown dot-commands (e.g. .default_input_arrival).
                }
            }
        } else {
            match current_cover {
                Some(k) => covers[k].3.push(line.to_string()),
                None => {
                    return Err(NetworkError::Parse {
                        line: *lineno,
                        msg: format!("cover line `{line}` outside .names"),
                    })
                }
            }
        }
    }

    // Latches first (so their outputs are driven before covers reference them).
    for (lineno, data, out, init) in &latches {
        n.check_undriven(out, *lineno)?;
        let (idx, _) = n.add_latch(out, *init);
        let d = n.net(data);
        n.set_latch_data(idx, d);
    }
    // Covers.
    for (lineno, ins, out, cube_lines) in &covers {
        let fanins: Vec<_> = ins.iter().map(|a| n.net(a)).collect();
        if cube_lines.is_empty() {
            // `.names x` with no cubes is the constant 0 (the ON-set is
            // empty); with inputs it is also constant 0.
            n.add_cover(out, &fanins, Vec::new(), true)?;
            continue;
        }
        let mut cubes = Vec::new();
        let mut value: Option<bool> = None;
        for cl in cube_lines {
            let toks: Vec<&str> = cl.split_whitespace().collect();
            let (in_part, out_part) = match (toks.len(), ins.is_empty()) {
                (1, true) => ("", toks[0]),
                (2, false) => (toks[0], toks[1]),
                _ => {
                    return Err(NetworkError::Parse {
                        line: *lineno,
                        msg: format!("bad cover line `{cl}`"),
                    })
                }
            };
            if in_part.len() != ins.len() {
                return Err(NetworkError::Parse {
                    line: *lineno,
                    msg: format!(
                        "cover line `{cl}` has {} columns, expected {}",
                        in_part.len(),
                        ins.len()
                    ),
                });
            }
            let v = match out_part {
                "1" => true,
                "0" => false,
                other => {
                    return Err(NetworkError::Parse {
                        line: *lineno,
                        msg: format!("bad cover output `{other}`"),
                    })
                }
            };
            if let Some(prev) = value {
                if prev != v {
                    return Err(NetworkError::Parse {
                        line: *lineno,
                        msg: "mixed ON/OFF-set cover".into(),
                    });
                }
            }
            value = Some(v);
            let cube: Result<Vec<Option<bool>>, _> = in_part
                .chars()
                .map(|c| match c {
                    '1' => Ok(Some(true)),
                    '0' => Ok(Some(false)),
                    '-' => Ok(None),
                    other => Err(NetworkError::Parse {
                        line: *lineno,
                        msg: format!("bad cover column `{other}`"),
                    }),
                })
                .collect();
            cubes.push(cube?);
        }
        n.add_cover(out, &fanins, cubes, value.unwrap_or(true))?;
    }
    for name in outputs {
        let id = n.net(&name);
        n.add_output(id);
    }
    n.validate()?;
    Ok(n)
}

/// Writes a [`Network`] as BLIF. All driver kinds are expressible (gates are
/// emitted as covers).
pub fn write(n: &Network) -> String {
    use crate::network::{Driver, GateKind};
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, ".model {}", n.name());
    let ins: Vec<&str> = n.inputs().iter().map(|&i| n.net_name(i)).collect();
    let _ = writeln!(out, ".inputs {}", ins.join(" "));
    let outs: Vec<&str> = n.outputs().iter().map(|&o| n.net_name(o)).collect();
    let _ = writeln!(out, ".outputs {}", outs.join(" "));
    for l in n.latches() {
        let _ = writeln!(
            out,
            ".latch {} {} {}",
            n.net_name(l.data),
            n.net_name(l.output),
            if l.init { 1 } else { 0 }
        );
    }
    for id in (0..n.num_nets()).map(|k| crate::network::NetId(k as u32)) {
        match n.driver(id) {
            Some(Driver::Gate(g)) => {
                let names: Vec<&str> = g.fanins.iter().map(|&f| n.net_name(f)).collect();
                let _ = writeln!(out, ".names {} {}", names.join(" "), n.net_name(id));
                let k = g.fanins.len();
                match g.kind {
                    GateKind::And => {
                        let _ = writeln!(out, "{} 1", "1".repeat(k));
                    }
                    GateKind::Nand => {
                        for j in 0..k {
                            let mut row = vec!['-'; k];
                            row[j] = '0';
                            let _ = writeln!(out, "{} 1", row.iter().collect::<String>());
                        }
                    }
                    GateKind::Or => {
                        for j in 0..k {
                            let mut row = vec!['-'; k];
                            row[j] = '1';
                            let _ = writeln!(out, "{} 1", row.iter().collect::<String>());
                        }
                    }
                    GateKind::Nor => {
                        let _ = writeln!(out, "{} 1", "0".repeat(k));
                    }
                    GateKind::Xor | GateKind::Xnor => {
                        let want_odd = g.kind == GateKind::Xor;
                        for m in 0..(1u32 << k) {
                            let ones = m.count_ones() as usize;
                            if (ones % 2 == 1) == want_odd {
                                let row: String = (0..k)
                                    .map(|j| if m >> j & 1 == 1 { '1' } else { '0' })
                                    .collect();
                                let _ = writeln!(out, "{row} 1");
                            }
                        }
                    }
                    GateKind::Not => {
                        let _ = writeln!(out, "0 1");
                    }
                    GateKind::Buf => {
                        let _ = writeln!(out, "1 1");
                    }
                    GateKind::Mux => {
                        let _ = writeln!(out, "11- 1");
                        let _ = writeln!(out, "0-1 1");
                    }
                }
            }
            Some(Driver::Cover {
                fanins,
                cubes,
                value,
            }) => {
                let names: Vec<&str> = fanins.iter().map(|&f| n.net_name(f)).collect();
                if names.is_empty() {
                    let _ = writeln!(out, ".names {}", n.net_name(id));
                } else {
                    let _ = writeln!(out, ".names {} {}", names.join(" "), n.net_name(id));
                }
                for cube in cubes {
                    let row: String = cube
                        .iter()
                        .map(|c| match c {
                            Some(true) => '1',
                            Some(false) => '0',
                            None => '-',
                        })
                        .collect();
                    if row.is_empty() {
                        let _ = writeln!(out, "{}", if *value { "1" } else { "0" });
                    } else {
                        let _ = writeln!(out, "{} {}", row, if *value { "1" } else { "0" });
                    }
                }
            }
            Some(Driver::Const(v)) => {
                let _ = writeln!(out, ".names {}", n.net_name(id));
                if *v {
                    let _ = writeln!(out, "1");
                }
            }
            _ => {}
        }
    }
    let _ = writeln!(out, ".end");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOGGLE: &str = "\
.model toggle
.inputs en
.outputs q
.latch d q 0
.names en q d
10 1
01 1
.end
";

    #[test]
    fn parse_toggle() {
        let n = parse(TOGGLE).unwrap();
        assert_eq!(n.name(), "toggle");
        assert_eq!(
            (n.num_inputs(), n.num_outputs(), n.num_latches()),
            (1, 1, 1)
        );
        // XOR behaviour: toggles when enabled.
        let (_, ns) = n.eval_step(&[true], &[false]);
        assert_eq!(ns, vec![true]);
        let (_, ns) = n.eval_step(&[false], &[true]);
        assert_eq!(ns, vec![true]);
        let (_, ns) = n.eval_step(&[true], &[true]);
        assert_eq!(ns, vec![false]);
    }

    #[test]
    fn blif_round_trip_preserves_behaviour() {
        let n = parse(TOGGLE).unwrap();
        let text = write(&n);
        let n2 = parse(&text).unwrap();
        let mut s1 = n.initial_state();
        let mut s2 = n2.initial_state();
        for step in 0..32 {
            let en = step % 3 != 0;
            let (o1, ns1) = n.eval_step(&[en], &s1);
            let (o2, ns2) = n2.eval_step(&[en], &s2);
            assert_eq!(o1, o2, "step {step}");
            s1 = ns1;
            s2 = ns2;
        }
    }

    #[test]
    fn bench_to_blif_round_trip() {
        let n = crate::bench_fmt::parse(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(a, q)\ny = NAND(b, q)\n",
        )
        .unwrap();
        let text = write(&n);
        let n2 = parse(&text).unwrap();
        let mut s1 = n.initial_state();
        let mut s2 = n2.initial_state();
        for step in 0..64u32 {
            let a = step % 2 == 0;
            let b = step % 5 < 2;
            let (o1, ns1) = n.eval_step(&[a, b], &s1);
            let (o2, ns2) = n2.eval_step(&[a, b], &s2);
            assert_eq!(o1, o2, "step {step}");
            s1 = ns1;
            s2 = ns2;
        }
    }

    #[test]
    fn off_set_cover() {
        // y is 0 exactly when a=1,b=1 → y = NAND.
        let text = ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n";
        let n = parse(text).unwrap();
        let (po, _) = n.eval_step(&[true, true], &[]);
        assert_eq!(po, vec![false]);
        let (po, _) = n.eval_step(&[true, false], &[]);
        assert_eq!(po, vec![true]);
    }

    #[test]
    fn constant_covers() {
        let text = ".model m\n.inputs a\n.outputs y z\n.names y\n1\n.names z\n.end\n";
        let n = parse(text).unwrap();
        let (po, _) = n.eval_step(&[false], &[]);
        assert_eq!(po, vec![true, false]);
    }

    #[test]
    fn continuation_lines() {
        let text = ".model m\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n";
        let n = parse(text).unwrap();
        assert_eq!(n.num_inputs(), 2);
    }

    #[test]
    fn latch_with_type_and_control() {
        let text = ".model m\n.inputs d\n.outputs q\n.latch d q re clk 1\n.end\n";
        let n = parse(text).unwrap();
        assert_eq!(n.initial_state(), vec![true]);
    }

    #[test]
    fn redeclared_nets_are_errors_not_panics() {
        for (text, line) in [
            (".model m\n.inputs a a\n.end\n", 2),
            (".model m\n.inputs a\n.latch a a\n.end\n", 3),
            (".model m\n.inputs a\n.latch a q\n.latch a q\n.end\n", 4),
        ] {
            match parse(text) {
                Err(NetworkError::Parse { line: got, .. }) => assert_eq!(got, line, "{text:?}"),
                other => panic!("{text:?}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn mixed_cover_phase_rejected() {
        let text = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.end\n";
        assert!(matches!(parse(text), Err(NetworkError::Parse { .. })));
    }
}
