//! The `sweep` command: a batch (instance × config) sweep over the
//! [`SuitePlan`] engine, with a work-stealing worker pool, a JSONL journal,
//! and `--resume`.
//!
//! Two invocation shapes:
//!
//! * `langeq sweep table1.sweep` — a declarative manifest (see
//!   [`langeq_core::batch::manifest`] for the format);
//! * `langeq sweep a.bench b.blif --split 2,3` — network files crossed with
//!   `--flows` (default `partitioned,monolithic`).
//!
//! Ctrl-C cancels cooperatively: the shared token fans out to every cell,
//! workers drain, finished cells stay journaled, and a rerun with
//! `--resume` continues where the sweep stopped.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use langeq_core::batch::manifest::load_manifest;
use langeq_core::{
    ConfigSpec, InstanceSpec, JournalStore, ReorderPolicy, SharedDirStore, SolverKind,
    SolverLimits, SuiteEvent, SuiteOptions, SuitePlan,
};

use crate::cliargs::{scan, Parsed};
use crate::commands::CliError;
use crate::io;

const VALUE_KEYS: &[&str] = &[
    "split",
    "flows",
    "timeout",
    "node-limit",
    "max-states",
    "reorder",
    "jobs",
    "budget",
    "journal",
    "store",
];

const KNOWN: &[&str] = &[
    "split",
    "flows",
    "timeout",
    "node-limit",
    "max-states",
    "reorder",
    "jobs",
    "budget",
    "journal",
    "store",
    "resume",
    "json",
    "progress",
];

/// True when the positional names a sweep manifest rather than a network.
fn is_manifest(path: &str) -> bool {
    matches!(
        Path::new(path)
            .extension()
            .and_then(|e| e.to_str())
            .map(str::to_ascii_lowercase)
            .as_deref(),
        Some("sweep" | "manifest")
    )
}

/// Builds the plan from a manifest positional.
fn plan_from_manifest(p: &Parsed, path: &str) -> Result<SuitePlan, CliError> {
    for opt in [
        "split",
        "flows",
        "timeout",
        "node-limit",
        "max-states",
        "reorder",
    ] {
        if p.value(opt).is_some() {
            return Err(CliError::Usage(format!(
                "--{opt} conflicts with a manifest; declare it in `{path}` instead"
            )));
        }
    }
    load_manifest(Path::new(path)).map_err(|e| CliError::Run(format!("{path}: {e}")))
}

/// Builds the plan from network-file positionals plus `--split`/`--flows`.
fn plan_from_files(p: &Parsed, files: &[String]) -> Result<SuitePlan, CliError> {
    let split = p
        .usize_list("split")?
        .ok_or_else(|| CliError::Usage("--split K,K,... is required with network files".into()))?;
    let defaults = SolverLimits::default();
    let limits = SolverLimits {
        node_limit: p.number::<usize>("node-limit")?,
        time_limit: p.number::<u64>("timeout")?.map(Duration::from_secs),
        max_states: p.number::<usize>("max-states")?.or(defaults.max_states),
    };
    let flows = p.value("flows").unwrap_or("partitioned,monolithic");
    let reorder: ReorderPolicy = match p.value("reorder") {
        None => ReorderPolicy::None,
        Some(text) => text
            .parse()
            .map_err(|e| CliError::Usage(format!("--reorder: {e}")))?,
    };

    let mut plan = SuitePlan::new();
    for file in files {
        let network = io::load_network(file)?;
        let name = Path::new(file)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(file)
            .to_string();
        plan = plan.instance(InstanceSpec::new(name, network, split.clone()));
    }
    for flow in flows.split(',').filter(|f| !f.is_empty()) {
        let kind: SolverKind = flow
            .trim()
            .parse()
            .map_err(|e| CliError::Usage(format!("--flows: {e}")))?;
        plan = plan.config(
            ConfigSpec::new(kind.to_string(), kind)
                .limits(limits)
                .reorder(reorder),
        );
    }
    Ok(plan)
}

/// The journal path: `--journal`, or derived from the first positional
/// (`table1.sweep` → `table1.journal.jsonl`, networks → `sweep.journal.jsonl`).
fn journal_path(p: &Parsed, first: &str) -> PathBuf {
    if let Some(path) = p.value("journal") {
        return PathBuf::from(path);
    }
    let path = Path::new(first);
    if is_manifest(first) {
        path.with_extension("journal.jsonl")
    } else {
        path.with_file_name("sweep.journal.jsonl")
    }
}

/// Builds the stderr progress printer registered with `--progress`.
fn progress_printer() -> impl FnMut(&SuiteEvent) {
    move |event| match event {
        SuiteEvent::Started {
            cells,
            pending,
            jobs,
        } => {
            eprintln!("[sweep] {cells} cells ({pending} to run) on {jobs} worker(s)");
        }
        SuiteEvent::CellSkipped {
            instance, config, ..
        } => {
            eprintln!("[sweep] {instance} × {config}: already journaled, skipped");
        }
        SuiteEvent::CellStarted {
            instance,
            config,
            worker,
            ..
        } => {
            eprintln!("[sweep] {instance} × {config}: started on worker {worker}");
        }
        // Live kernel snapshots are for long-lived consumers (the serve
        // layer's job progress); the line-oriented printer stays quiet.
        SuiteEvent::CellSample { .. } => {}
        SuiteEvent::CellFinished { report } => {
            let detail = match report.stats() {
                Some(stats) => format!("csf {} states", stats.csf_states),
                None => "-".into(),
            };
            eprintln!(
                "[sweep] {} × {}: {} ({detail}, {:.2}s)",
                report.instance,
                report.config,
                report.status(),
                report.duration.as_secs_f64()
            );
        }
        SuiteEvent::Finished {
            solved,
            cnc,
            failed,
            retryable,
            resumed,
        } => {
            eprintln!(
                "[sweep] done: {solved} solved, {cnc} cnc, {failed} failed, \
                 {retryable} retryable, {resumed} resumed"
            );
        }
    }
}

/// `langeq sweep <manifest.sweep | net...> [--split K,...] [--flows f,f]
/// [--timeout S] [--node-limit N] [--max-states N]
/// [--reorder none|sifting|sifting:N]
/// [--jobs N] [--budget S]
/// [--journal PATH | --store DIR] [--resume] [--json] [--progress]`.
///
/// `--store DIR` journals into a shared multi-writer directory (the same
/// backend `langeq serve --store` uses), so several sweeps — or a sweep
/// and a daemon fleet — pool one content-addressed result set; `--resume`
/// then skips cells *any* writer already finished.
pub fn sweep(args: &[String]) -> Result<ExitCode, CliError> {
    let p = scan(args, VALUE_KEYS)?;
    p.reject_unknown(KNOWN)?;
    let positionals = p.positionals();
    let Some(first) = positionals.first() else {
        return Err(CliError::Usage(
            "sweep needs a manifest file or network files".into(),
        ));
    };

    let plan = if is_manifest(first) {
        if positionals.len() > 1 {
            return Err(CliError::Usage(
                "a manifest sweep takes exactly one positional".into(),
            ));
        }
        plan_from_manifest(&p, first)?
    } else {
        plan_from_files(&p, positionals)?
    };
    if plan.num_cells() == 0 {
        return Err(CliError::Usage(
            "the plan has no cells (it needs at least one instance and one config)".into(),
        ));
    }

    if p.value("store").is_some() && p.value("journal").is_some() {
        return Err(CliError::Usage(
            "--store (shared directory) and --journal (private file) conflict; pick one".into(),
        ));
    }
    let mut opts = SuiteOptions::new()
        .jobs(p.number::<usize>("jobs")?.unwrap_or(1))
        .budget(p.number::<u64>("budget")?.map(Duration::from_secs))
        .resume(p.flag("resume"))
        .cancel_token(crate::sigint::install());
    if let Some(dir) = p.value("store") {
        let store = SharedDirStore::open(Path::new(dir))
            .map_err(|e| CliError::Run(format!("opening store {dir}: {e}")))?;
        eprintln!("[sweep] store: {}", store.describe());
        opts = opts.store(store);
    } else {
        let journal = journal_path(&p, first);
        eprintln!("[sweep] journal: {}", journal.display());
        opts = opts.journal(&journal);
    }
    if p.flag("progress") {
        opts = opts.on_event(progress_printer());
    }

    let report = plan
        .execute(opts)
        .map_err(|e| CliError::Run(e.to_string()))?;

    if p.flag("json") {
        // Machine-readable: the journal records of every cell, in
        // deterministic plan order (including resumed cells).
        for cell in &report.cells {
            println!("{}", cell.to_json());
        }
    } else {
        print!("{}", report.format_table());
    }
    Ok(if report.cancelled {
        // Interrupted: some cells never got their fair chance; rerun with
        // --resume to finish them.
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
