//! End-to-end tests of the `langeq` binary: every command is exercised
//! against real files in a scratch directory, checking outputs, round trips
//! and exit codes.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn langeq(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_langeq"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch directory unique to this test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("langeq-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The paper's Figure-3 circuit in `.bench` format.
const FIGURE3: &str = "\
INPUT(i)
OUTPUT(o)
cs1 = DFF(ns1)
cs2 = DFF(ns2)
ns1 = AND(i, cs2)
ni = NOT(i)
ns2 = OR(ni, cs1)
o = XOR(cs1, cs2)
";

const BEACON_KISS: &str = "\
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
fn help_and_unknown_command() {
    let dir = scratch("help");
    let out = langeq(&dir, &["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
    let out = langeq(&dir, &["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command"));
    // No arguments at all prints usage on stderr.
    let out = langeq(&dir, &[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn info_reports_network_shape() {
    let dir = scratch("info");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    let out = langeq(&dir, &["info", "fig3.bench"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("inputs         1"));
    assert!(text.contains("outputs        1"));
    assert!(text.contains("latches        2"));
}

#[test]
fn convert_bench_blif_round_trip() {
    let dir = scratch("convert");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    assert!(langeq(&dir, &["convert", "fig3.bench", "fig3.blif"])
        .status
        .success());
    assert!(langeq(&dir, &["convert", "fig3.blif", "back.bench"])
        .status
        .success());
    // The round-tripped network still has the same interface.
    let out = langeq(&dir, &["info", "back.bench"]);
    let text = stdout(&out);
    assert!(text.contains("latches        2"), "{text}");
}

#[test]
fn stg_emits_figure3_automaton() {
    let dir = scratch("stg");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    let out = langeq(&dir, &["stg", "fig3.bench", "-o", "fig3.aut"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(dir.join("fig3.aut")).unwrap();
    // Figure 3: three reachable states before completion.
    assert!(text.contains(".states 3"), "{text}");
    let out = langeq(&dir, &["info", "fig3.aut"]);
    let info = stdout(&out);
    assert!(info.contains("deterministic  true"), "{info}");
    assert!(info.contains("complete       false"), "{info}");
}

#[test]
fn info_ends_quietly_when_stdout_closes() {
    let dir = scratch("epipe");
    // One state with 2,048 disjoint guards: `info` prints its first lines,
    // then spends about a second on the pairwise determinism check, so
    // the reader below is gone before the remaining lines are written.
    let mut text =
        String::from(".aut\n.alphabet a b c d e f g h i j k\n.states 2049\n.initial 0\n");
    for k in 0..2048 {
        text.push_str(&format!(".trans 0 {k:011b} {}\n", k + 1));
    }
    text.push_str(".end\n");
    std::fs::write(dir.join("star.aut"), text).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_langeq"))
        .current_dir(&dir)
        .args(["info", "star.aut"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("automaton"), "{first}");
    // The reader is dropped: stdout is closed.
    let out = child.wait_with_output().expect("langeq exits");
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
}

#[test]
fn completion_adds_the_dc_state() {
    let dir = scratch("complete");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    assert!(langeq(&dir, &["stg", "fig3.bench", "-o", "fig3.aut"])
        .status
        .success());
    let out = langeq(&dir, &["complete", "fig3.aut", "-o", "done.aut"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let info = stdout(&langeq(&dir, &["info", "done.aut"]));
    assert!(info.contains("states         4"), "{info}");
    assert!(info.contains("complete       true"), "{info}");
    // Completion preserves the language: the original is contained both
    // ways on accepting runs — check equivalence via the checker command.
    let out = langeq(&dir, &["equivalent", "fig3.aut", "done.aut"]);
    assert!(
        out.status.success(),
        "completion must preserve the language"
    );
}

#[test]
fn complement_flips_and_checks_fail_with_exit_1() {
    let dir = scratch("complement");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    assert!(langeq(&dir, &["stg", "fig3.bench", "-o", "a.aut"])
        .status
        .success());
    assert!(langeq(&dir, &["complement", "a.aut", "-o", "na.aut"])
        .status
        .success());
    let out = langeq(&dir, &["equivalent", "a.aut", "na.aut"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("false"));
    // Everything contains the empty intersection: a ∩ ¬a ⊆ a.
    assert!(
        langeq(&dir, &["product", "a.aut", "na.aut", "-o", "empty.aut"])
            .status
            .success()
    );
    let out = langeq(&dir, &["contains", "a.aut", "empty.aut"]);
    assert!(out.status.success());
}

#[test]
fn minimize_and_determinize_preserve_language() {
    let dir = scratch("minimize");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    assert!(langeq(&dir, &["stg", "fig3.bench", "-o", "a.aut"])
        .status
        .success());
    assert!(langeq(&dir, &["determinize", "a.aut", "-o", "d.aut"])
        .status
        .success());
    assert!(langeq(&dir, &["minimize", "d.aut", "-o", "m.aut"])
        .status
        .success());
    let out = langeq(&dir, &["equivalent", "a.aut", "m.aut"]);
    assert!(out.status.success(), "{}", stdout(&out));
}

#[test]
fn support_hides_variables() {
    let dir = scratch("support");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    assert!(langeq(&dir, &["stg", "fig3.bench", "-o", "a.aut"])
        .status
        .success());
    // Hide the output column, keeping only the input.
    let out = langeq(&dir, &["support", "a.aut", "--vars", "i", "-o", "h.aut"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(dir.join("h.aut")).unwrap();
    assert!(text.contains(".alphabet i\n"), "{text}");
}

#[test]
fn dot_renders_both_kinds() {
    let dir = scratch("dot");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    assert!(langeq(&dir, &["stg", "fig3.bench", "-o", "a.aut"])
        .status
        .success());
    let out = langeq(&dir, &["dot", "a.aut"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("digraph"));
    let out = langeq(&dir, &["dot", "fig3.bench"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("digraph"));
}

#[test]
fn kiss_machines_load_convert_and_report() {
    let dir = scratch("kiss");
    std::fs::write(dir.join("beacon.kiss"), BEACON_KISS).unwrap();
    let info = stdout(&langeq(&dir, &["info", "beacon.kiss"]));
    assert!(info.contains("states         2"), "{info}");
    assert!(info.contains("deterministic  true"), "{info}");
    // KISS → BLIF synthesis, then back to a KISS via STG extraction.
    assert!(langeq(&dir, &["convert", "beacon.kiss", "beacon.blif"])
        .status
        .success());
    let out = langeq(&dir, &["convert", "beacon.blif", "back.kiss"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let info = stdout(&langeq(&dir, &["info", "back.kiss"]));
    assert!(info.contains("complete       true"), "{info}");
    // A machine without product terms has no state to report: a clean
    // input error, not a crash.
    std::fs::write(dir.join("empty.kiss"), ".i 1\n.o 1\n.e\n").unwrap();
    let out = langeq(&dir, &["info", "empty.kiss"]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("no product terms"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn latch_split_writes_parts() {
    let dir = scratch("split");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    let out = langeq(
        &dir,
        &[
            "latch-split",
            "fig3.bench",
            "--split",
            "1",
            "--fixed",
            "f.blif",
            "--xp",
            "xp.blif",
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("X_P (1 latches)"));
    let f_info = stdout(&langeq(&dir, &["info", "f.blif"]));
    // F gains a v input and a u output: 2 inputs, 2 outputs, 1 latch.
    assert!(f_info.contains("inputs         2"), "{f_info}");
    assert!(f_info.contains("outputs        2"), "{f_info}");
    assert!(f_info.contains("latches        1"), "{f_info}");
}

#[test]
fn solve_computes_and_verifies_the_csf() {
    let dir = scratch("solve");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    let out = langeq(
        &dir,
        &[
            "solve",
            "--spec",
            "fig3.bench",
            "--split",
            "1",
            "--verify",
            "--stats",
            "-o",
            "csf.aut",
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("CSF:"), "{text}");
    assert!(text.contains("X_P ⊆ X: ok"), "{text}");
    assert!(text.contains("F∘X ⊆ S: ok"), "{text}");
    assert!(dir.join("csf.aut").exists());
    // The CSF automaton round-trips through info.
    let info = stdout(&langeq(&dir, &["info", "csf.aut"]));
    assert!(info.contains("automaton"), "{info}");

    // A gen: builtin needs no file and brings its own split.
    let out = langeq(&dir, &["solve", "--spec", "gen:figure3", "--verify"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("verify: X_P ⊆ X: ok; F∘X ⊆ S: ok"), "{text}");
    let out = langeq(&dir, &["solve", "--spec", "gen:nope"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    // counter4's own split (latches 2,3) is the default; --split overrides.
    let csf = |split: &[&str]| {
        let out = langeq(
            &dir,
            &[&["solve", "--spec", "gen:counter4"], split].concat(),
        );
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
    };
    assert_eq!(csf(&[]), csf(&["--split", "2,3"]));
    assert_ne!(csf(&[]), csf(&["--split", "3"]));
}

#[test]
fn solve_reorder_flag_arms_sifting_and_rejects_garbage() {
    let dir = scratch("solvereorder");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    // A sifting solve succeeds and reports the reorder counters via
    // --stats (figure 3 is tiny, so 0 passes is a legitimate count — the
    // line must be there either way).
    let out = langeq(
        &dir,
        &[
            "solve",
            "--spec",
            "fig3.bench",
            "--split",
            "1",
            "--reorder",
            "sifting:64",
            "--stats",
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("CSF:"), "{text}");
    assert!(text.contains("reorders"), "{text}");
    // An unknown policy is a usage error, not a solve.
    let bad = langeq(
        &dir,
        &[
            "solve",
            "--spec",
            "fig3.bench",
            "--split",
            "1",
            "--reorder",
            "warp",
        ],
    );
    assert!(!bad.status.success());
    assert!(
        stderr(&bad).contains("unknown reorder policy"),
        "{}",
        stderr(&bad)
    );
}

#[test]
fn solve_mono_agrees_with_partitioned() {
    let dir = scratch("solvemono");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    assert!(langeq(
        &dir,
        &[
            "solve",
            "--spec",
            "fig3.bench",
            "--split",
            "0",
            "-o",
            "part.aut"
        ],
    )
    .status
    .success());
    assert!(langeq(
        &dir,
        &[
            "solve",
            "--spec",
            "fig3.bench",
            "--split",
            "0",
            "--mono",
            "-o",
            "mono.aut"
        ],
    )
    .status
    .success());
    let out = langeq(&dir, &["equivalent", "part.aut", "mono.aut"]);
    assert!(
        out.status.success(),
        "Corollary 1 violated: {}",
        stdout(&out)
    );
}

#[test]
fn solve_streams_progress_to_stderr() {
    let dir = scratch("progress");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    let out = langeq(
        &dir,
        &[
            "solve",
            "--spec",
            "fig3.bench",
            "--split",
            "1",
            "--progress",
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("partitioned flow started"), "{err}");
    assert!(err.contains("states"), "{err}");
    // Progress goes to stderr only; stdout keeps the machine-readable shape.
    assert!(stdout(&out).contains("CSF:"));
}

#[test]
fn solve_max_states_budget_reports_cnc() {
    let dir = scratch("maxstates");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    let out = langeq(
        &dir,
        &[
            "solve",
            "--spec",
            "fig3.bench",
            "--split",
            "1",
            "--max-states",
            "1",
        ],
    );
    assert_eq!(out.status.code(), Some(3), "{}", stdout(&out));
    let err = stderr(&out);
    assert!(err.contains("could not complete"), "{err}");
    assert!(err.contains("1 subset states"), "{err}");
}

#[test]
fn solve_flow_selects_the_solver() {
    let dir = scratch("flow");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    for (flow, file) in [("algorithm1", "a1.aut"), ("partitioned", "part.aut")] {
        let out = langeq(
            &dir,
            &[
                "solve",
                "--spec",
                "fig3.bench",
                "--split",
                "1",
                "--flow",
                flow,
                "-o",
                file,
            ],
        );
        assert!(out.status.success(), "{flow}: {}", stderr(&out));
    }
    // Algorithm 1 (explicit automata) agrees with the symbolic flow.
    let out = langeq(&dir, &["equivalent", "a1.aut", "part.aut"]);
    assert!(out.status.success(), "{}", stdout(&out));
    // --flow and --mono are mutually exclusive.
    let out = langeq(
        &dir,
        &[
            "solve",
            "--spec",
            "fig3.bench",
            "--split",
            "1",
            "--flow",
            "mono",
            "--mono",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn solve_reports_cnc_on_tiny_budget() {
    let dir = scratch("cnc");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    let out = langeq(
        &dir,
        &[
            "solve",
            "--spec",
            "fig3.bench",
            "--split",
            "1",
            "--node-limit",
            "8",
        ],
    );
    assert_eq!(out.status.code(), Some(3), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("could not complete"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn extract_emits_verified_kiss_submachine() {
    let dir = scratch("extract");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    for strategy in ["lexmin", "first", "selfloop"] {
        let out = langeq(
            &dir,
            &[
                "extract",
                "--spec",
                "fig3.bench",
                "--split",
                "1",
                "--strategy",
                strategy,
                "--verify",
                "-o",
                "sub.kiss",
            ],
        );
        assert!(out.status.success(), "{strategy}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("sub ⊆ CSF: ok"), "{strategy}: {text}");
        assert!(text.contains("F∘sub ⊆ S: ok"), "{strategy}: {text}");
        // The written machine is well-formed KISS2.
        let info = stdout(&langeq(&dir, &["info", "sub.kiss"]));
        assert!(info.contains("deterministic  true"), "{strategy}: {info}");
        assert!(info.contains("complete       true"), "{strategy}: {info}");
    }
}

#[test]
fn kiss_minimize_collapses_duplicates() {
    let dir = scratch("kissmin");
    // Two behaviourally identical copies of each beacon state.
    let bloated = "\
.i 1
.o 1
.r off
0 off off 0
1 off on  0
0 on  off2 1
1 on  on2  1
0 off2 off 0
1 off2 on2 0
0 on2 off2 1
1 on2 on 1
";
    std::fs::write(dir.join("bloated.kiss"), bloated).unwrap();
    let out = langeq(&dir, &["minimize", "bloated.kiss", "-o", "min.kiss"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("minimized 4 states to 2"));
    let info = stdout(&langeq(&dir, &["info", "min.kiss"]));
    assert!(info.contains("states         2"), "{info}");
}

#[test]
fn extract_with_minimize_flag() {
    let dir = scratch("extractmin");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    let out = langeq(
        &dir,
        &[
            "extract",
            "--spec",
            "fig3.bench",
            "--split",
            "1",
            "--minimize",
            "--verify",
            "-o",
            "sub.kiss",
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("sub ⊆ CSF: ok"));
}

#[test]
fn usage_errors_exit_2() {
    let dir = scratch("usage");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    // Missing required option.
    let out = langeq(&dir, &["solve", "--spec", "fig3.bench"]);
    assert_eq!(out.status.code(), Some(2));
    // Unknown option, including removed ones.
    for args in [
        "info fig3.bench --bogus",
        "solve --spec fig3.bench --split 1 --image-restrict",
        "solve --spec fig3.bench --split 1 --image-jobs 4",
        "sweep fig3.bench --split 1 --image-jobs 4",
    ] {
        let out = langeq(&dir, &args.split(' ').collect::<Vec<_>>());
        assert_eq!(out.status.code(), Some(2), "{args}: {}", stderr(&out));
    }
    // Wrong arity.
    let out = langeq(&dir, &["equivalent", "one.aut"]);
    assert_eq!(out.status.code(), Some(2));
    // Unknown extension.
    let out = langeq(&dir, &["info", "file.xyz"]);
    assert_eq!(out.status.code(), Some(2));
    // Missing file is a run error (3), and so is a malformed one.
    let out = langeq(&dir, &["info", "missing.bench"]);
    assert_eq!(out.status.code(), Some(3));
    std::fs::write(dir.join("dup.bench"), "INPUT(i)\nINPUT(i)\n").unwrap();
    let out = langeq(&dir, &["info", "dup.bench"]);
    assert_eq!(out.status.code(), Some(3));
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
}

const MINI_SWEEP: &str = "\
# tiny 2x2 sweep over the bundled generators
instance fig3 gen:figure3
instance c4   gen:counter4
config part flow=partitioned
config mono flow=monolithic timeout=60
";

/// Journal lines with the timing field blanked — the determinism contract
/// is \"byte-identical modulo timing fields\".
fn strip_timing(journal: &str) -> Vec<String> {
    let mut lines: Vec<String> = journal
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let cut = l.find("\"duration_ns\"").unwrap_or(l.len());
            l[..cut].to_string()
        })
        .collect();
    lines.sort();
    lines
}

#[test]
fn sweep_runs_a_manifest_and_resumes() {
    let dir = scratch("sweep");
    std::fs::write(dir.join("mini.sweep"), MINI_SWEEP).unwrap();

    let out = langeq(&dir, &["sweep", "mini.sweep", "--jobs", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let table = stdout(&out);
    assert!(table.contains("4 solved"), "table:\n{table}");
    let journal = std::fs::read_to_string(dir.join("mini.journal.jsonl")).unwrap();
    assert_eq!(journal.lines().count(), 4, "journal:\n{journal}");

    // Resume: nothing re-runs, the journal stays as it is, and --json
    // replays all four cells in deterministic plan order.
    let out = langeq(
        &dir,
        &["sweep", "mini.sweep", "--jobs", "2", "--resume", "--json"],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let replay = stdout(&out);
    let cells: Vec<&str> = replay.lines().collect();
    assert_eq!(cells.len(), 4, "replay:\n{replay}");
    assert!(cells[0].contains("\"cell\":0"), "replay:\n{replay}");
    assert!(cells[3].contains("\"cell\":3"), "replay:\n{replay}");
    let journal_after = std::fs::read_to_string(dir.join("mini.journal.jsonl")).unwrap();
    assert_eq!(journal, journal_after, "resume must not re-journal");

    // A time limit or budget past the clock's range means "no limit".
    std::fs::write(
        dir.join("huge.sweep"),
        "instance fig3 gen:figure3\n\
         config part flow=partitioned timeout=18446744073709551615\n",
    )
    .unwrap();
    let out = langeq(&dir, &["sweep", "huge.sweep"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("1 solved"), "{}", stdout(&out));
    let out = langeq(
        &dir,
        &["sweep", "huge.sweep", "--budget", "18446744073709551615"],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("1 solved"), "{}", stdout(&out));
}

#[test]
fn sweep_journals_identically_for_one_and_four_workers() {
    let dir = scratch("sweepdet");
    std::fs::write(dir.join("mini.sweep"), MINI_SWEEP).unwrap();

    let out = langeq(
        &dir,
        &[
            "sweep",
            "mini.sweep",
            "--jobs",
            "1",
            "--journal",
            "j1.jsonl",
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let out = langeq(
        &dir,
        &[
            "sweep",
            "mini.sweep",
            "--jobs",
            "4",
            "--journal",
            "j4.jsonl",
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));

    let j1 = std::fs::read_to_string(dir.join("j1.jsonl")).unwrap();
    let j4 = std::fs::read_to_string(dir.join("j4.jsonl")).unwrap();
    assert_eq!(strip_timing(&j1), strip_timing(&j4));
}

#[test]
fn sweep_over_network_files_uses_flows_and_split() {
    let dir = scratch("sweepfiles");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    let out = langeq(
        &dir,
        &[
            "sweep",
            "fig3.bench",
            "--split",
            "1",
            "--flows",
            "partitioned,monolithic,algorithm1",
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let table = stdout(&out);
    assert!(table.contains("3 solved"), "table:\n{table}");
    assert!(dir.join("sweep.journal.jsonl").exists());
}

#[test]
fn serve_and_submit_round_trip_with_cache() {
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Stdio};

    let dir = scratch("serve");
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();

    // A guard so a failing assertion cannot leak the daemon.
    struct KillOnDrop(Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let mut daemon = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_langeq"))
            .current_dir(&dir)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                "2",
                "--cache-journal",
                "cache.jsonl",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon starts"),
    );
    // The daemon prints `listening on http://ADDR` once bound.
    let mut line = String::new();
    BufReader::new(daemon.0.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("address line");
    let addr = line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap()
        .to_string();

    // First submission solves; the repeat is answered from the cache.
    let out = langeq(
        &dir,
        &["submit", "fig3.bench", "--split", "1", "--addr", &addr],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("solved"), "{}", stdout(&out));
    let out = langeq(
        &dir,
        &[
            "submit",
            "fig3.bench",
            "--split",
            "1",
            "--addr",
            &addr,
            "--json",
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("cache hit"), "{}", stderr(&out));
    assert!(stdout(&out).contains("\"cached\":true"), "{}", stdout(&out));

    // A manifest submission runs as one sweep job.
    std::fs::write(dir.join("mini.sweep"), MINI_SWEEP).unwrap();
    let out = langeq(&dir, &["submit", "mini.sweep", "--addr", &addr]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out).lines().count(), 4, "{}", stdout(&out));

    // The cache journal persisted the fair results.
    let journal = std::fs::read_to_string(dir.join("cache.jsonl")).unwrap();
    assert!(journal.lines().count() >= 5, "journal:\n{journal}");
    // `--cancel` on a finished job answers idempotently (job 1 is the
    // first submission, long done by now); `--cancel` + a source is a
    // usage error.
    let out = langeq(&dir, &["submit", "--cancel", "1", "--addr", &addr]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("\"cancelled\":false"),
        "{}",
        stdout(&out)
    );
    let out = langeq(
        &dir,
        &["submit", "fig3.bench", "--cancel", "1", "--addr", &addr],
    );
    assert_eq!(out.status.code(), Some(2));

    drop(daemon);

    // Submitting against a dead daemon is a run error, not a hang.
    let out = langeq(
        &dir,
        &["submit", "fig3.bench", "--split", "1", "--addr", &addr],
    );
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn sweep_usage_errors() {
    let dir = scratch("sweepusage");
    std::fs::write(dir.join("mini.sweep"), MINI_SWEEP).unwrap();
    std::fs::write(dir.join("fig3.bench"), FIGURE3).unwrap();
    // No positionals.
    let out = langeq(&dir, &["sweep"]);
    assert_eq!(out.status.code(), Some(2));
    // Network files without --split.
    let out = langeq(&dir, &["sweep", "fig3.bench"]);
    assert_eq!(out.status.code(), Some(2));
    // Manifest options conflict with per-run flags.
    let out = langeq(&dir, &["sweep", "mini.sweep", "--flows", "mono"]);
    assert_eq!(out.status.code(), Some(2));
    // Malformed manifest is a run error with a line number.
    std::fs::write(dir.join("bad.sweep"), "widget x\n").unwrap();
    let out = langeq(&dir, &["sweep", "bad.sweep"]);
    assert_eq!(out.status.code(), Some(3));
    assert!(stderr(&out).contains("line 1"), "{}", stderr(&out));
}
