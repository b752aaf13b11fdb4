//! End-to-end rule tests: each builds a throwaway workspace on disk,
//! runs [`langeq_xtask::run_lint`] over it, and asserts the exact
//! findings. Every rule gets a positive case (the defect is caught) and
//! a negative case (the idiomatic form stays clean), so a rule that goes
//! vacuous — matching nothing ever — fails its positive test here.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use langeq_xtask::{run_lint, Violation};

static COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A scratch workspace under the OS temp dir, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new() -> Fixture {
        let k = COUNTER.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("langeq-lint-fixture-{}-{k}", std::process::id()));
        // A stale dir from a crashed prior run must not leak files in.
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Fixture { root }
    }

    fn file(self, rel: &str, content: &str) -> Self {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, content).unwrap();
        self
    }

    fn lint(&self) -> Vec<Violation> {
        run_lint(&self.root).unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn rules(violations: &[Violation]) -> Vec<&str> {
    violations.iter().map(|v| v.rule).collect()
}

#[test]
fn clean_workspace_reports_nothing() {
    let fx = Fixture::new().file(
        "crates/demo/src/lib.rs",
        "pub fn ok(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
    );
    assert!(fx.lint().is_empty());
}

#[test]
fn banned_calls_are_caught_in_lib_code() {
    let fx = Fixture::new().file(
        "crates/demo/src/lib.rs",
        concat!(
            "pub fn a(x: Option<u32>) -> u32 { x.unwrap() }\n",
            "pub fn b(x: Option<u32>) -> u32 { x.expect(\"msg\") }\n",
            "pub fn c() { panic!(\"boom\") }\n",
            "pub fn d() { todo!() }\n",
            "pub fn e() { unimplemented!() }\n",
            "pub fn f(v: u32) -> u32 { dbg!(v) }\n",
        ),
    );
    let out = fx.lint();
    let got = rules(&out);
    for want in ["no-unwrap", "no-expect", "no-panic", "no-dbg"] {
        assert_eq!(
            got.iter().filter(|r| **r == want).count(),
            1,
            "{want}: {out:?}"
        );
    }
    // `todo!` and `unimplemented!` both map to no-todo.
    assert_eq!(
        got.iter().filter(|r| **r == "no-todo").count(),
        2,
        "{out:?}"
    );
    assert_eq!(out.len(), 6, "{out:?}");
    // Findings carry the 1-based line of the call site.
    assert_eq!(out.iter().find(|v| v.rule == "no-panic").unwrap().line, 3);
}

#[test]
fn banned_calls_are_legal_in_test_code() {
    let fx = Fixture::new()
        .file(
            "crates/demo/src/lib.rs",
            concat!(
                "pub fn ok() {}\n",
                "#[cfg(test)]\nmod tests {\n",
                "    #[test]\n    fn t() { None::<u32>.unwrap(); panic!(\"fine\"); }\n",
                "}\n",
            ),
        )
        .file(
            "crates/demo/tests/integration.rs",
            "#[test]\nfn t() { None::<u32>.unwrap(); }\n",
        );
    assert!(fx.lint().is_empty());
}

#[test]
fn banned_calls_inside_string_literals_do_not_count() {
    let fx = Fixture::new().file(
        "crates/demo/src/lib.rs",
        "pub fn msg() -> &'static str { \"never call .unwrap() or panic!(here)\" }\n",
    );
    assert!(fx.lint().is_empty());
}

#[test]
fn unsafe_requires_a_safety_comment() {
    let caught = Fixture::new().file(
        "crates/demo/src/lib.rs",
        "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    let out = caught.lint();
    assert_eq!(rules(&out), ["safety-comment"], "{out:?}");

    let ok = Fixture::new().file(
        "crates/demo/src/lib.rs",
        concat!(
            "pub fn f(p: *const u8) -> u8 {\n",
            "    // SAFETY: caller guarantees `p` is valid for reads.\n",
            "    unsafe { *p }\n",
            "}\n",
        ),
    );
    assert!(ok.lint().is_empty());
}

#[test]
fn safety_comment_block_must_be_contiguous() {
    // A blank line between the comment and the `unsafe` breaks the block.
    let fx = Fixture::new().file(
        "crates/demo/src/lib.rs",
        concat!(
            "// SAFETY: too far away.\n",
            "\n",
            "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        ),
    );
    assert_eq!(rules(&fx.lint()), ["safety-comment"]);
}

#[test]
fn metric_drift_is_caught_in_both_directions() {
    let fx = Fixture::new()
        .file(
            "crates/serve/src/lib.rs",
            concat!(
                "pub fn metrics() -> String {\n",
                "    format!(\"langeq_good_total 1\\nlangeq_rogue_total 2\\n\")\n",
                "}\n",
            ),
        )
        .file(
            "DESIGN.md",
            "Metrics: `langeq_good_total` counts good things; `langeq_ghost_total` was removed.\n",
        );
    let out = fx.lint();
    assert_eq!(rules(&out), ["metrics-docs", "metrics-docs"], "{out:?}");
    let emitted_undocumented = out
        .iter()
        .find(|v| v.msg.contains("langeq_rogue_total"))
        .unwrap();
    assert_eq!(emitted_undocumented.path, "crates/serve/src/lib.rs");
    let documented_gone = out
        .iter()
        .find(|v| v.msg.contains("langeq_ghost_total"))
        .unwrap();
    assert_eq!(documented_gone.path, "DESIGN.md");
}

#[test]
fn histogram_series_suffixes_normalize_to_one_family() {
    // Code registers the bare family name; DESIGN.md quotes the
    // exposition-level series (`_bucket`, labelled, `_sum`, `_count`).
    // Both sides describe the one metric — no drift either way.
    let fx = Fixture::new()
        .file(
            "crates/serve/src/lib.rs",
            concat!(
                "pub fn families() -> [&'static str; 2] {\n",
                "    [\"langeq_lat_seconds\", \"langeq_wait_seconds_count\"]\n",
                "}\n",
            ),
        )
        .file(
            "DESIGN.md",
            concat!(
                "Scrape `langeq_lat_seconds_bucket{le=\"+Inf\"}` for the cumulative\n",
                "histogram, `langeq_lat_seconds_sum` for totals, and the family\n",
                "`langeq_wait_seconds` for queue waits.\n",
            ),
        );
    assert!(fx.lint().is_empty(), "{:?}", fx.lint());
}

#[test]
fn histogram_family_drift_reports_the_family_once() {
    // An undocumented histogram mentioned via two series suffixes is one
    // finding (named by its family), not one per suffix — and a
    // documented-but-gone family is caught through its suffixed doc form.
    let fx = Fixture::new()
        .file(
            "crates/serve/src/lib.rs",
            concat!(
                "pub fn rogue() -> [&'static str; 2] {\n",
                "    [\"langeq_rogue_seconds_bucket\", \"langeq_rogue_seconds_sum\"]\n",
                "}\n",
            ),
        )
        .file(
            "DESIGN.md",
            "The daemon exposes `langeq_ghost_seconds_count`.\n",
        );
    let out = fx.lint();
    assert_eq!(rules(&out), ["metrics-docs", "metrics-docs"], "{out:?}");
    assert!(
        out.iter().any(|v| {
            v.msg.contains("`langeq_rogue_seconds`") && v.path == "crates/serve/src/lib.rs"
        }),
        "{out:?}"
    );
    assert!(
        out.iter()
            .any(|v| v.msg.contains("`langeq_ghost_seconds`") && v.path == "DESIGN.md"),
        "{out:?}"
    );
}

#[test]
fn crate_idents_are_not_metrics() {
    // `langeq_serve` is a workspace crate ident, reserved — mentioning it
    // in a serve string must not demand DESIGN.md documentation.
    let fx = Fixture::new().file(
        "crates/serve/src/lib.rs",
        "pub fn banner() -> &'static str { \"langeq_serve starting\" }\n",
    );
    assert!(fx.lint().is_empty());
}

#[test]
fn endpoint_drift_is_caught_in_both_directions() {
    let fx = Fixture::new()
        .file(
            "crates/serve/src/lib.rs",
            concat!(
                "pub fn route(p: &str) -> bool {\n",
                "    p == \"/v1/jobs\" || p == \"/v1/secret\"\n",
                "}\n",
            ),
        )
        .file(
            "README.md",
            "The daemon serves `/v1/jobs` and `/v1/ghost`.\n",
        );
    let out = fx.lint();
    assert_eq!(rules(&out), ["endpoints-docs", "endpoints-docs"], "{out:?}");
    assert!(out
        .iter()
        .any(|v| v.msg.contains("/v1/secret") && v.path == "crates/serve/src/lib.rs"));
    assert!(out
        .iter()
        .any(|v| v.msg.contains("/v1/ghost") && v.path == "README.md"));
}

#[test]
fn endpoint_path_parameters_normalize() {
    // `/v1/jobs/{job}` in code matches `/v1/jobs/{id}` in docs: both
    // normalize to `/v1/jobs/{}`.
    let fx = Fixture::new()
        .file(
            "crates/serve/src/lib.rs",
            "pub const R: &str = \"/v1/jobs/{job}\";\n",
        )
        .file("README.md", "Poll `/v1/jobs/{id}` for status.\n");
    assert!(fx.lint().is_empty());
}

#[test]
fn undocumented_cli_flags_are_caught() {
    let fx = Fixture::new().file(
        "crates/cli/src/main.rs",
        concat!(
            "pub fn usage() -> &'static str { \"demo --alpha  enable alpha mode\" }\n",
            "pub fn parse(p: &mut Parser) { p.reject_unknown(&[\"alpha\", \"beta\"]); }\n",
        ),
    );
    let out = fx.lint();
    assert_eq!(rules(&out), ["flags-docs"], "{out:?}");
    assert!(out[0].msg.contains("--beta"), "{out:?}");
}

#[test]
fn const_flag_lists_are_extracted() {
    // The `KNOWN: &[&str] = &[...]` shape the real CLI uses: the list
    // after the type annotation must be scanned, not the type's own
    // brackets (regression test for the bracket search starting inside
    // the `&[&str]` anchor token itself).
    let fx = Fixture::new().file(
        "crates/cli/src/sweep.rs",
        "const KNOWN: &[&str] = &[\"gamma\", \"delta\"];\n",
    );
    let out = fx.lint();
    let mut flags: Vec<&str> = out.iter().map(|v| v.msg.as_str()).collect();
    flags.sort();
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(out.iter().all(|v| v.rule == "flags-docs"));
    assert!(
        flags[0].contains("--delta") && flags[1].contains("--gamma"),
        "{out:?}"
    );
}

#[test]
fn flags_documented_in_readme_or_design_are_clean() {
    let fx = Fixture::new()
        .file(
            "crates/cli/src/main.rs",
            "pub fn parse(p: &mut Parser) { p.reject_unknown(&[\"alpha\"]); }\n",
        )
        .file("README.md", "Pass `--alpha` to enable alpha mode.\n");
    assert!(fx.lint().is_empty());
}

#[test]
fn flag_documentation_must_match_exactly() {
    // `--no` in the docs is not documentation for `--no-wait`.
    let fx = Fixture::new()
        .file(
            "crates/cli/src/main.rs",
            "pub fn parse(p: &mut Parser) { known.extend([\"no-wait\"]); }\n",
        )
        .file("README.md", "Pass `--no` to disable.\n");
    let out = fx.lint();
    assert_eq!(rules(&out), ["flags-docs"], "{out:?}");
    assert!(out[0].msg.contains("--no-wait"));
}

#[test]
fn cli_text_naming_an_unaccepted_flag_is_caught() {
    // The usage string still advertises `--gamma` after the parser dropped it.
    let fx = Fixture::new().file(
        "crates/cli/src/main.rs",
        concat!(
            "pub fn usage() -> &'static str { \"demo --alpha [--gamma] [--help]\" }\n",
            "pub fn parse(p: &mut Parser) { p.reject_unknown(&[\"alpha\"]); }\n",
        ),
    );
    let out = fx.lint();
    assert_eq!(rules(&out), ["flags-docs"], "{out:?}");
    assert!(out[0].msg.contains("--gamma"), "{out:?}");
}

#[test]
fn cli_test_code_may_name_unaccepted_flags() {
    let fx = Fixture::new().file(
        "crates/cli/src/main.rs",
        concat!(
            "pub fn usage() -> &'static str { \"demo --alpha [--help]\" }\n",
            "pub fn parse(p: &mut Parser) { p.reject_unknown(&[\"alpha\"]); }\n",
            "#[cfg(test)]\nmod tests {\n    const GONE: &str = \"--gamma\";\n}\n",
        ),
    );
    assert!(fx.lint().is_empty());
}

#[test]
fn fault_gated_names_need_guards() {
    let fx = Fixture::new().file(
        "crates/demo/src/lib.rs",
        concat!(
            "#[cfg(feature = \"fault-inject\")]\n",
            "pub fn fault_boom() {}\n",
            "pub fn run() { fault_boom(); }\n",
        ),
    );
    let out = fx.lint();
    assert_eq!(rules(&out), ["fault-gate"], "{out:?}");
    assert!(out[0].msg.contains("fault_boom"));
}

#[test]
fn guarded_and_test_references_to_gated_names_are_clean() {
    let fx = Fixture::new().file(
        "crates/demo/src/lib.rs",
        concat!(
            "#[cfg(feature = \"fault-inject\")]\n",
            "pub fn fault_boom() {}\n",
            "#[cfg(feature = \"fault-inject\")]\n",
            "pub fn run() { fault_boom(); }\n",
            "#[cfg(test)]\nmod tests {\n",
            "    #[test]\n    fn t() { super::run(); }\n",
            "}\n",
        ),
    );
    assert!(fx.lint().is_empty());
}

#[test]
fn allow_entries_suppress_and_stale_entries_report() {
    let suppressed = Fixture::new()
        .file(
            "crates/demo/src/lib.rs",
            "pub fn a(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )
        .file(
            "lint.allow",
            "allow no-unwrap crates/demo/src/lib.rs count=1 -- fixture invariant\n",
        );
    assert!(suppressed.lint().is_empty());

    let stale = Fixture::new()
        .file("crates/demo/src/lib.rs", "pub fn ok() {}\n")
        .file(
            "lint.allow",
            "allow no-unwrap crates/demo/src/lib.rs count=1 -- nothing left\n",
        );
    let out = stale.lint();
    assert_eq!(rules(&out), ["allow-stale"], "{out:?}");
    assert_eq!(out[0].path, "lint.allow");
}

#[test]
fn exempt_crate_covers_hygiene_only() {
    let fx = Fixture::new()
        .file(
            "crates/demo/src/lib.rs",
            concat!(
                "pub fn a(x: Option<u32>) -> u32 { x.unwrap() }\n",
                "#[cfg(feature = \"fault-inject\")]\n",
                "pub fn fault_boom() {}\n",
                "pub fn run() { fault_boom(); }\n",
            ),
        )
        .file("lint.allow", "exempt-crate crates/demo -- dev tooling\n");
    let out = fx.lint();
    // The unwrap is exempted; the consistency rule still fires.
    assert_eq!(rules(&out), ["fault-gate"], "{out:?}");
}

#[test]
fn malformed_allowlist_is_a_hard_error() {
    let fx = Fixture::new()
        .file("crates/demo/src/lib.rs", "pub fn ok() {}\n")
        .file(
            "lint.allow",
            "allow no-unwrap crates/demo/src/lib.rs count=1\n",
        );
    let err = run_lint(&fx.root).unwrap_err();
    assert!(err.contains("justification"), "{err}");
}
