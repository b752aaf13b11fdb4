//! Integration tests for the `Suite` batch-sweep engine: deterministic
//! report order across worker counts, journal round-trips, resume
//! semantics, and mid-suite cancellation draining the worker pool.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use langeq::core::batch::journal::load_journal;
use langeq::core::batch::manifest::load_manifest;
use langeq::prelude::*;
use langeq_logic::gen;

/// A fast 2×2 plan: two small instances × the two symbolic flows.
fn small_plan() -> SuitePlan {
    SuitePlan::new()
        .instance(InstanceSpec::new("fig3", gen::figure3(), vec![1]))
        .instance(InstanceSpec::new("c4", gen::counter("c4", 4), vec![2, 3]))
        .config(ConfigSpec::new("part", SolverKind::Partitioned))
        .config(ConfigSpec::new("mono", SolverKind::Monolithic))
}

/// A slower 3×2 plan (counters with enough subset states that several
/// cancellation checkpoints fire per cell).
fn midsize_plan() -> SuitePlan {
    let mut plan = SuitePlan::new();
    for bits in [5usize, 6, 7] {
        let name = format!("c{bits}");
        let split: Vec<usize> = (bits / 2..bits).collect();
        plan = plan.instance(InstanceSpec::new(&name, gen::counter(&name, bits), split));
    }
    plan.config(ConfigSpec::new("part", SolverKind::Partitioned))
        .config(ConfigSpec::new("mono", SolverKind::Monolithic))
}

fn scratch_journal(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("langeq-suite-{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The deterministic projection of a report: everything except timing.
fn fingerprint(report: &SuiteReport) -> Vec<String> {
    report
        .cells
        .iter()
        .map(|c| c.to_json().set("duration_ns", 0i64).to_string())
        .collect()
}

#[test]
fn report_order_is_deterministic_across_worker_counts() {
    let plan = small_plan();
    let one = plan.execute(SuiteOptions::new().jobs(1)).unwrap();
    let four = plan.execute(SuiteOptions::new().jobs(4)).unwrap();

    assert_eq!(one.cells.len(), 4);
    assert!(one.cells.iter().all(|c| c.solved()));
    // Plan order: instance-major, independent of how workers interleaved.
    let keys: Vec<(usize, &str, &str)> = four
        .cells
        .iter()
        .map(|c| (c.cell, c.instance.as_str(), c.config.as_str()))
        .collect();
    assert_eq!(
        keys,
        vec![
            (0, "fig3", "part"),
            (1, "fig3", "mono"),
            (2, "c4", "part"),
            (3, "c4", "mono"),
        ]
    );
    // Cell results are identical modulo timing fields.
    assert_eq!(fingerprint(&one), fingerprint(&four));
    // And each cell reports what a direct solve of its instance and flow
    // computes.
    for report in &one.cells {
        let cell = plan
            .cell(report.cell)
            .expect("reported cells are plan cells");
        let problem =
            LatchSplitProblem::new(&cell.instance.network, &cell.instance.unknown_latches).unwrap();
        let direct = SolveRequest::new(cell.config.kind)
            .run(&problem.equation)
            .into_result()
            .expect("direct solve");
        let stats = report.stats().expect("solved");
        let key = format!("{}/{}", report.instance, report.config);
        assert_eq!(stats.csf_states, direct.csf.num_states(), "{key}");
        assert_eq!(stats.subset_states, direct.stats.subset_states, "{key}");
    }
}

#[test]
fn budget_past_the_clock_range_means_no_budget() {
    // `Instant + Duration::MAX` overflows; the suite must run unbudgeted.
    let report = small_plan()
        .execute(SuiteOptions::new().jobs(2).budget(Duration::MAX))
        .unwrap();
    assert_eq!(report.solved(), 4);
    assert!(!report.cancelled);
}

#[test]
fn table1_manifest_is_the_paper_plan() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("manifests/table1.sweep");
    let plan = load_manifest(&path).unwrap();
    assert_eq!(plan.num_cells(), 12);
    let got: Vec<(&str, &[usize])> = plan
        .instances()
        .iter()
        .map(|i| (i.name.as_str(), i.unknown_latches.as_slice()))
        .collect();
    let table1 = gen::table1();
    let want: Vec<(&str, &[usize])> = table1
        .iter()
        .map(|i| (i.name, i.unknown_latches.as_slice()))
        .collect();
    assert_eq!(got, want);
    let configs: Vec<(&str, SolverKind)> = plan
        .configs()
        .iter()
        .map(|c| (c.name.as_str(), c.kind))
        .collect();
    assert_eq!(
        configs,
        [
            ("part", SolverKind::Partitioned),
            ("mono", SolverKind::Monolithic)
        ]
    );
    for config in plan.configs() {
        assert_eq!(config.limits.time_limit, Some(Duration::from_secs(120)));
        assert_eq!(config.limits.node_limit, Some(8_000_000));
    }
}

#[test]
fn events_stream_in_a_sane_order() {
    let events: Arc<std::sync::Mutex<Vec<String>>> = Arc::default();
    let sink = Arc::clone(&events);
    let report = small_plan()
        .execute(SuiteOptions::new().jobs(2).on_event(move |e| {
            let tag = match e {
                SuiteEvent::Started { .. } => "started",
                SuiteEvent::CellSkipped { .. } => "skipped",
                SuiteEvent::CellStarted { .. } => "cell-started",
                SuiteEvent::CellSample { .. } => "cell-sample",
                SuiteEvent::CellFinished { .. } => "cell-finished",
                SuiteEvent::Finished { .. } => "finished",
            };
            sink.lock().unwrap().push(tag.to_string());
        }))
        .unwrap();
    assert_eq!(report.solved(), 4);
    let events = events.lock().unwrap();
    assert_eq!(events.first().map(String::as_str), Some("started"));
    assert_eq!(events.last().map(String::as_str), Some("finished"));
    assert_eq!(events.iter().filter(|e| *e == "cell-finished").count(), 4);
    assert_eq!(events.iter().filter(|e| *e == "cell-started").count(), 4);
}

#[test]
fn journal_round_trips_and_resume_skips_exactly_the_completed_cells() {
    let path = scratch_journal("roundtrip");
    let plan = small_plan();

    let first = plan
        .execute(SuiteOptions::new().jobs(2).journal(&path))
        .unwrap();
    assert_eq!(first.solved(), 4);

    // The journal holds exactly the finished cells (completion order), and
    // parses back to the same reports.
    let journaled = load_journal(&path).unwrap();
    assert_eq!(journaled.len(), 4);
    for loaded in &journaled {
        let original = first
            .get(&loaded.instance, &loaded.config)
            .expect("journaled cell is in the report");
        assert_eq!(loaded, original, "journal round trip");
    }

    // Resume: every cell is skipped, nothing is appended to the journal,
    // and the resumed flag marks the provenance.
    let before = std::fs::read_to_string(&path).unwrap();
    let second = plan
        .execute(SuiteOptions::new().jobs(2).journal(&path).resume(true))
        .unwrap();
    assert_eq!(second.resumed(), 4);
    assert_eq!(second.solved(), 4);
    assert!(second.cells.iter().all(|c| c.resumed));
    assert_eq!(before, std::fs::read_to_string(&path).unwrap());

    // Without --resume the journal is ignored for skipping (cells re-run)
    // and the journal grows.
    let third = plan
        .execute(SuiteOptions::new().jobs(1).journal(&path))
        .unwrap();
    assert_eq!(third.resumed(), 0);
    assert_eq!(load_journal(&path).unwrap().len(), 8);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mid_suite_cancellation_drains_workers_and_journals_partial_results() {
    let path = scratch_journal("cancel");
    let plan = midsize_plan();
    let token = CancelToken::new();

    // Cancel as soon as the first cell finishes: in-flight cells abort
    // cooperatively, queued cells drain without being attempted.
    let trigger = token.clone();
    let finishes = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&finishes);
    let first = plan
        .execute(
            SuiteOptions::new()
                .jobs(2)
                .journal(&path)
                .cancel_token(token)
                .on_event(move |e| {
                    if matches!(e, SuiteEvent::CellFinished { .. })
                        && count.fetch_add(1, Ordering::Relaxed) == 0
                    {
                        trigger.cancel();
                    }
                }),
        )
        .unwrap();
    assert_eq!(first.cells.len(), 6, "drain must report every cell");
    assert!(first.cancelled, "the suite must observe the cancellation");
    assert!(first.cancelled_cells() >= 1);
    assert!(first.solved() >= 1, "the finished cell is kept");

    // Partial results are journaled; cancelled cells are not.
    let journaled = load_journal(&path).unwrap();
    assert_eq!(journaled.len(), first.solved());
    let solved_keys: Vec<(String, String)> = first
        .cells
        .iter()
        .filter(|c| c.solved())
        .map(|c| (c.instance.clone(), c.config.clone()))
        .collect();
    for j in &journaled {
        assert!(solved_keys.contains(&(j.instance.clone(), j.config.clone())));
    }

    // Resume finishes the sweep: exactly the journaled cells are skipped,
    // the cancelled ones are re-solved.
    let second = plan
        .execute(SuiteOptions::new().jobs(2).journal(&path).resume(true))
        .unwrap();
    assert!(!second.cancelled);
    assert_eq!(second.resumed(), journaled.len());
    assert_eq!(second.solved(), 6, "every cell ends up solved");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_ignores_journal_entries_whose_parameters_changed() {
    let path = scratch_journal("sig");
    // Journal a cell, then change the split behind the same names: the
    // record's parameter signature no longer matches, so the cell must be
    // re-solved rather than replayed as a stale result.
    let plan_a = SuitePlan::new()
        .instance(InstanceSpec::new("c4", gen::counter("c4", 4), vec![2, 3]))
        .config(ConfigSpec::new("part", SolverKind::Partitioned));
    plan_a.execute(SuiteOptions::new().journal(&path)).unwrap();

    let plan_b = SuitePlan::new()
        .instance(InstanceSpec::new("c4", gen::counter("c4", 4), vec![3]))
        .config(ConfigSpec::new("part", SolverKind::Partitioned));
    let changed = plan_b
        .execute(SuiteOptions::new().journal(&path).resume(true))
        .unwrap();
    assert_eq!(changed.resumed(), 0, "changed split must not replay");
    assert!(changed.cells[0].solved());

    // An unchanged rerun resumes from the fresh (file-order-last) record.
    let again = plan_b
        .execute(SuiteOptions::new().journal(&path).resume(true))
        .unwrap();
    assert_eq!(again.resumed(), 1);
    assert_eq!(again.cells[0].outcome, changed.cells[0].outcome);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resumed_sweep_matches_an_uninterrupted_one_modulo_timing() {
    let path = scratch_journal("resume-det");
    let plan = small_plan();

    // Journal only the first half by pre-seeding the journal from a plan
    // with a single config, then resume the full plan.
    let half = SuitePlan::new()
        .instance(InstanceSpec::new("fig3", gen::figure3(), vec![1]))
        .instance(InstanceSpec::new("c4", gen::counter("c4", 4), vec![2, 3]))
        .config(ConfigSpec::new("part", SolverKind::Partitioned));
    half.execute(SuiteOptions::new().journal(&path)).unwrap();

    let resumed = plan
        .execute(SuiteOptions::new().jobs(2).journal(&path).resume(true))
        .unwrap();
    assert_eq!(resumed.resumed(), 2, "the two `part` cells come back");

    let fresh = plan.execute(SuiteOptions::new().jobs(1)).unwrap();
    // `resumed` flags differ, but the solver results agree cell by cell.
    for (a, b) in resumed.cells.iter().zip(&fresh.cells) {
        assert_eq!(a.outcome, b.outcome, "{}/{}", a.instance, a.config);
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.kind, b.kind);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reorder_configs_solve_and_resume_on_their_own_signature() {
    let path = scratch_journal("reorder");
    // One instance, two configs differing only in the reorder policy: both
    // must solve to the same answer, journal under *different* signatures,
    // and resume onto exactly their own records.
    let plan = SuitePlan::new()
        .instance(InstanceSpec::new(
            "c6",
            gen::counter("c6", 6),
            vec![3, 4, 5],
        ))
        .config(ConfigSpec::new("static", SolverKind::Partitioned))
        .config(ConfigSpec::new("sift", SolverKind::Partitioned).reorder(
            langeq::core::ReorderPolicy::Sifting {
                auto_threshold: 256,
                max_growth: 1.3,
            },
        ));
    let report = plan
        .execute(SuiteOptions::new().jobs(2).journal(&path))
        .unwrap();
    assert_eq!(report.cells.len(), 2);
    assert!(report.cells.iter().all(CellReport::solved));
    let (a, b) = (&report.cells[0], &report.cells[1]);
    assert_eq!(
        a.stats().unwrap().csf_states,
        b.stats().unwrap().csf_states,
        "reordering changed the answer"
    );
    assert_ne!(a.sig, b.sig, "reorder must be part of the signature");
    assert!(b.sig.contains("reorder=Sifting"), "{}", b.sig);

    // Resume replays both — each matched by its own signature.
    let resumed = plan
        .execute(SuiteOptions::new().journal(&path).resume(true))
        .unwrap();
    assert_eq!(resumed.resumed(), 2);
    let _ = std::fs::remove_file(&path);
}
