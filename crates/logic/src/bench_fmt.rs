//! ISCAS'89 `.bench` format parsing and writing.
//!
//! The format used by the sequential benchmark suites (`s27`, `s208`, …,
//! `s526`) the paper's Table 1 is built from:
//!
//! ```text
//! # comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G5 = DFF(G10)
//! G10 = NAND(G0, G5)
//! G17 = NOT(G10)
//! ```
//!
//! Latches power up at `0` (the `.bench` convention).

use crate::network::{GateKind, Network, NetworkError};

/// Parses `.bench` text into a [`Network`].
///
/// # Errors
///
/// [`NetworkError::Parse`] with a line number on malformed input;
/// validation errors (undriven nets, cycles) are also reported.
pub fn parse(text: &str) -> Result<Network, NetworkError> {
    let mut n = Network::new("bench");
    // (line_no, target, func, args)
    let mut assigns: Vec<(usize, String, String, Vec<String>)> = Vec::new();
    let mut outputs: Vec<(usize, String)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let upper = line.to_ascii_uppercase();
        if upper.starts_with("INPUT(") {
            let name = inner_arg(line, lineno)?;
            n.check_undriven(&name, lineno)?;
            n.add_input(&name);
        } else if upper.starts_with("OUTPUT(") {
            let name = inner_arg(line, lineno)?;
            outputs.push((lineno, name));
        } else if let Some(eq) = line.find('=') {
            let target = line[..eq].trim().to_string();
            let rhs = line[eq + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| NetworkError::Parse {
                line: lineno,
                msg: format!("expected `func(args)` after `=`, got `{rhs}`"),
            })?;
            let close = rhs
                .rfind(')')
                .filter(|&close| close > open)
                .ok_or_else(|| NetworkError::Parse {
                    line: lineno,
                    msg: "missing `)` after `(`".into(),
                })?;
            let func = rhs[..open].trim().to_ascii_uppercase();
            let args: Vec<String> = rhs[open + 1..close]
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            assigns.push((lineno, target, func, args));
        } else {
            return Err(NetworkError::Parse {
                line: lineno,
                msg: format!("unrecognised line `{line}`"),
            });
        }
    }

    // First pass: declare latches so their outputs exist as drivers.
    for (lineno, target, func, args) in &assigns {
        if func == "DFF" {
            if args.len() != 1 {
                return Err(NetworkError::Parse {
                    line: *lineno,
                    msg: format!("DFF takes one argument, got {}", args.len()),
                });
            }
            n.check_undriven(target, *lineno)?;
            let (idx, _) = n.add_latch(target, false);
            let data = n.net(&args[0]);
            n.set_latch_data(idx, data);
        }
    }
    // Second pass: gates.
    for (lineno, target, func, args) in &assigns {
        if func == "DFF" {
            continue;
        }
        let kind = match func.as_str() {
            "AND" => GateKind::And,
            "OR" => GateKind::Or,
            "NAND" => GateKind::Nand,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "NOT" => GateKind::Not,
            "BUF" | "BUFF" => GateKind::Buf,
            "MUX" => GateKind::Mux,
            other => {
                return Err(NetworkError::Parse {
                    line: *lineno,
                    msg: format!("unknown gate `{other}`"),
                })
            }
        };
        let fanins: Vec<_> = args.iter().map(|a| n.net(a)).collect();
        n.add_gate(target, kind, &fanins).map_err(|e| match e {
            NetworkError::BadArity { net, got } => NetworkError::Parse {
                line: *lineno,
                msg: format!("gate `{net}`: bad fan-in count {got}"),
            },
            other => other,
        })?;
    }
    for (_, name) in outputs {
        let id = n.net(&name);
        n.add_output(id);
    }
    n.validate()?;
    Ok(n)
}

fn inner_arg(line: &str, lineno: usize) -> Result<String, NetworkError> {
    let open = line.find('(').ok_or(NetworkError::Parse {
        line: lineno,
        msg: "missing `(`".into(),
    })?;
    let close = line.rfind(')').ok_or(NetworkError::Parse {
        line: lineno,
        msg: "missing `)`".into(),
    })?;
    Ok(line[open + 1..close].trim().to_string())
}

/// Writes a [`Network`] in `.bench` syntax.
///
/// Cover drivers (from BLIF) and constants have no `.bench` equivalent and
/// are rejected.
///
/// # Errors
///
/// [`NetworkError::Parse`] (line 0) when the network uses drivers the format
/// cannot express.
pub fn write(n: &Network) -> Result<String, NetworkError> {
    use crate::network::Driver;
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, "# {} (written by langeq-logic)", n.name());
    for &i in n.inputs() {
        let _ = writeln!(out, "INPUT({})", n.net_name(i));
    }
    for &o in n.outputs() {
        let _ = writeln!(out, "OUTPUT({})", n.net_name(o));
    }
    for l in n.latches() {
        let _ = writeln!(
            out,
            "{} = DFF({})",
            n.net_name(l.output),
            n.net_name(l.data)
        );
    }
    for id in (0..n.num_nets()).map(|k| crate::network::NetId(k as u32)) {
        match n.driver(id) {
            Some(Driver::Gate(g)) => {
                let name = match g.kind {
                    GateKind::And => "AND",
                    GateKind::Or => "OR",
                    GateKind::Nand => "NAND",
                    GateKind::Nor => "NOR",
                    GateKind::Xor => "XOR",
                    GateKind::Xnor => "XNOR",
                    GateKind::Not => "NOT",
                    GateKind::Buf => "BUFF",
                    GateKind::Mux => "MUX",
                };
                let args: Vec<&str> = g.fanins.iter().map(|&f| n.net_name(f)).collect();
                let _ = writeln!(out, "{} = {}({})", n.net_name(id), name, args.join(", "));
            }
            Some(Driver::Cover { .. }) | Some(Driver::Const(_)) => {
                return Err(NetworkError::Parse {
                    line: 0,
                    msg: format!(
                        "net `{}`: covers/constants cannot be expressed in .bench",
                        n.net_name(id)
                    ),
                });
            }
            _ => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 3 circuit in `.bench` syntax.
    pub(crate) const FIGURE3_BENCH: &str = "\
# Figure 3 of the DATE'05 paper
INPUT(i)
OUTPUT(o)
cs1 = DFF(t1)
cs2 = DFF(t2)
ni = NOT(i)
t1 = AND(i, cs2)
t2 = OR(ni, cs1)
o = XOR(cs1, cs2)
";

    #[test]
    fn parse_figure3() {
        let n = parse(FIGURE3_BENCH).unwrap();
        assert_eq!(n.num_inputs(), 1);
        assert_eq!(n.num_outputs(), 1);
        assert_eq!(n.num_latches(), 2);
        let (po, ns) = n.eval_step(&[false], &[false, false]);
        assert_eq!(po, vec![false]);
        assert_eq!(ns, vec![false, true]);
    }

    #[test]
    fn round_trip() {
        let n = parse(FIGURE3_BENCH).unwrap();
        let text = write(&n).unwrap();
        let n2 = parse(&text).unwrap();
        assert_eq!(n2.num_inputs(), n.num_inputs());
        assert_eq!(n2.num_outputs(), n.num_outputs());
        assert_eq!(n2.num_latches(), n.num_latches());
        // Behavioural equality over a bounded run.
        let mut s1 = n.initial_state();
        let mut s2 = n2.initial_state();
        for step in 0..64 {
            let i = (step * 7) % 3 == 0;
            let (o1, ns1) = n.eval_step(&[i], &s1);
            let (o2, ns2) = n2.eval_step(&[i], &s2);
            assert_eq!(o1, o2);
            s1 = ns1;
            s2 = ns2;
        }
    }

    #[test]
    fn forward_reference_to_latch_and_gate() {
        // DFF data defined after the latch; output defined after use.
        let text = "\
INPUT(a)
OUTPUT(y)
q = DFF(d)
d = XOR(a, q)
y = BUFF(q)
";
        let n = parse(text).unwrap();
        assert_eq!(n.num_latches(), 1);
        // Toggle flip-flop on a=1.
        let (_, ns) = n.eval_step(&[true], &[false]);
        assert_eq!(ns, vec![true]);
        let (_, ns) = n.eval_step(&[true], &[true]);
        assert_eq!(ns, vec![false]);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        for (text, line) in [
            ("INPUT(a)\nbogus line\n", 2),
            ("INPUT(a)\ny = FROB(a)\n", 2),
            ("INPUT(a)\nq = DFF(a, a)\n", 2),
            // Redeclared nets and a `)` before its `(`: errors, not panics.
            ("INPUT(i)\nINPUT(i)\n", 2),
            ("INPUT(i)\nOUTPUT(i)\ni = DFF(i)\n", 3),
            ("INPUT(i)\nq = DFF(i)\nq = DFF(i)\n", 3),
            ("INPUT(i)\nns = )AND(i, cs\n", 2),
        ] {
            match parse(text) {
                Err(NetworkError::Parse { line: got, .. }) => assert_eq!(got, line, "{text:?}"),
                other => panic!("{text:?}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nINPUT(a)  # trailing comment\nOUTPUT(y)\ny = NOT(a)\n";
        let n = parse(text).unwrap();
        assert_eq!(n.num_inputs(), 1);
        let (po, _) = n.eval_step(&[false], &[]);
        assert_eq!(po, vec![true]);
    }
}
