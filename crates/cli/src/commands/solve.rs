//! The solver commands: `solve` (CSF of a latch split) and `extract`
//! (CSF → deterministic Mealy sub-solution).

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use langeq_core::batch::manifest::resolve_source;
use langeq_core::extract::{extract_submachine, submachine_to_automaton, SelectionStrategy};
use langeq_core::verify::verify_latch_split;
use langeq_core::{
    LatchSplitProblem, ReorderPolicy, Solution, SolveEvent, SolveRequest, SolverKind, SolverLimits,
};

use crate::cliargs::{scan, Parsed};
use crate::commands::{check_cancelled, CancelGuard, CliError};
use crate::io;

fn build_problem(p: &Parsed) -> Result<LatchSplitProblem, CliError> {
    let spec = p
        .value("spec")
        .ok_or_else(|| CliError::Usage("--spec <network file|gen:NAME> is required".into()))?;
    // A `gen:` builtin resolves as in manifests and the daemon, and brings
    // its own split; an explicit `--split` overrides it.
    let (net, own_split) = if spec.starts_with("gen:") {
        resolve_source(spec, Path::new(".")).map_err(CliError::Usage)?
    } else {
        (io::load_network(spec)?, None)
    };
    let split = p
        .usize_list("split")?
        .or(own_split)
        .ok_or_else(|| CliError::Usage("--split K,K,... is required".into()))?;
    LatchSplitProblem::new(&net, &split)
        .map_err(|e| CliError::Run(format!("latch split failed: {e}")))
}

fn limits(p: &Parsed) -> Result<SolverLimits, CliError> {
    let defaults = SolverLimits::default();
    Ok(SolverLimits {
        node_limit: p.number::<usize>("node-limit")?,
        time_limit: p.number::<u64>("timeout")?.map(Duration::from_secs),
        max_states: p.number::<usize>("max-states")?.or(defaults.max_states),
    })
}

fn reorder(p: &Parsed) -> Result<ReorderPolicy, CliError> {
    match p.value("reorder") {
        None => Ok(ReorderPolicy::None),
        Some(text) => text
            .parse()
            .map_err(|e| CliError::Usage(format!("--reorder: {e}"))),
    }
}

fn flow(p: &Parsed) -> Result<SolverKind, CliError> {
    match (p.value("flow"), p.flag("mono")) {
        (None, false) => Ok(SolverKind::Partitioned),
        (None, true) => Ok(SolverKind::Monolithic),
        (Some(name), false) => name
            .parse()
            .map_err(|e| CliError::Usage(format!("--flow: {e}"))),
        (Some(_), true) => Err(CliError::Usage(
            "--mono and --flow are mutually exclusive".into(),
        )),
    }
}

/// Builds the stderr progress line printer registered with `--progress`.
fn progress_printer() -> impl FnMut(&SolveEvent) {
    const REDRAW: Duration = Duration::from_millis(100);
    let start = Instant::now();
    let mut last_draw: Option<Instant> = None;
    let (mut states, mut frontier, mut images) = (0usize, 0usize, 0usize);
    move |event| match event {
        SolveEvent::Started { kind } => {
            eprintln!("[solve] {kind} flow started");
        }
        SolveEvent::SubsetState {
            discovered,
            frontier: f,
        } => {
            states = *discovered;
            frontier = *f;
        }
        SolveEvent::ImageComputed { total } => images = *total,
        // Each checkpoint ends with a kernel snapshot, so drawing here
        // prints one internally consistent line per checkpoint.
        SolveEvent::Kernel(k) => {
            if last_draw.is_none_or(|t| t.elapsed() >= REDRAW) {
                last_draw = Some(Instant::now());
                eprintln!(
                    "[solve] states {states}  frontier {frontier}  images {images}  \
                     live nodes {} (peak {})  gc {}  cache {:.0}%  t {:.1}s",
                    k.live_nodes,
                    k.peak_live_nodes,
                    k.gc_runs,
                    100.0 * k.cache_hit_rate(),
                    start.elapsed().as_secs_f64()
                );
            }
        }
    }
}

fn run_solver(problem: &LatchSplitProblem, p: &Parsed) -> Result<Solution, CliError> {
    let mut request = SolveRequest::new(flow(p)?)
        .limits(limits(p)?)
        .reorder(reorder(p)?)
        .cancel_token(crate::sigint::install());
    if p.flag("progress") {
        request = request.on_progress(progress_printer());
    }
    request
        .run(&problem.equation)
        .into_result()
        .map_err(|reason| CliError::Run(format!("could not complete: {reason}")))
}

/// `langeq solve --spec <net|gen:NAME> [--split K,...]
/// [--flow partitioned|monolithic|algorithm1]
/// [--mono] [--reorder none|sifting|sifting:N] [--timeout S] [--node-limit N]
/// [--max-states N] [--progress]
/// [--verify] [--stats] [-o csf.aut]`.
pub fn solve(args: &[String]) -> Result<ExitCode, CliError> {
    let p = scan(
        args,
        &[
            "spec",
            "split",
            "timeout",
            "node-limit",
            "max-states",
            "flow",
            "reorder",
        ],
    )?;
    p.reject_unknown(&[
        "spec",
        "split",
        "timeout",
        "node-limit",
        "max-states",
        "flow",
        "reorder",
        "mono",
        "progress",
        "verify",
        "stats",
        "o",
    ])?;
    let problem = build_problem(&p)?;
    let sol = run_solver(&problem, &p)?;
    println!(
        "CSF: {} states, {} transitions",
        sol.csf.num_states(),
        sol.csf.num_transitions()
    );
    if p.flag("stats") {
        println!(
            "subset states {}  images {}  peak live nodes {}  time {:.2}s",
            sol.stats.subset_states,
            sol.stats.images,
            sol.stats.kernel.peak_live_nodes,
            sol.stats.duration.as_secs_f64()
        );
        println!(
            "bdd kernel: cache hit rate {:.1}%  gc survival {:.1}%  avg probe length {:.2}  \
             reorders {} (node delta {})",
            100.0 * sol.stats.kernel.cache_hit_rate(),
            100.0 * sol.stats.kernel.gc_survival_rate(),
            sol.stats.kernel.avg_probe_length(),
            sol.stats.kernel.reorders,
            sol.stats.kernel.reorder_node_delta
        );
    }
    let mut ok = true;
    if p.flag("verify") {
        // Verification does BDD-heavy automaton work of its own; keep it
        // under the Ctrl-C guard too.
        let mgr = problem.equation.manager();
        let _guard = CancelGuard::arm(mgr);
        let report = verify_latch_split(&problem, &sol.csf);
        check_cancelled(mgr)?;
        println!("verify: {report}");
        ok = report.all_passed();
    }
    if let Some(out) = p.value("o") {
        let text = langeq_automata::format::write(&sol.csf, problem.equation.vars.names());
        io::write_out(Some(out), &text)?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `langeq extract --spec <net|gen:NAME> [--split K,...] [--strategy s] [--verify]
/// [-o sub.kiss]`.
pub fn extract(args: &[String]) -> Result<ExitCode, CliError> {
    let p = scan(
        args,
        &[
            "spec",
            "split",
            "timeout",
            "node-limit",
            "max-states",
            "strategy",
            "reorder",
        ],
    )?;
    p.reject_unknown(&[
        "spec",
        "split",
        "timeout",
        "node-limit",
        "max-states",
        "strategy",
        "reorder",
        "progress",
        "verify",
        "minimize",
        "o",
    ])?;
    let strategy = match p.value("strategy").unwrap_or("lexmin") {
        "lexmin" => SelectionStrategy::LexMinOutput,
        "first" => SelectionStrategy::FirstTransition,
        "selfloop" => SelectionStrategy::PreferSelfLoop,
        other => {
            return Err(CliError::Usage(format!(
                "unknown strategy `{other}` (lexmin|first|selfloop)"
            )))
        }
    };
    let problem = build_problem(&p)?;
    let sol = run_solver(&problem, &p)?;
    let vars = &problem.equation.vars;
    // Extraction and verification run after the solve finished; arm the
    // Ctrl-C guard so they cancel cleanly as well.
    let mgr = problem.equation.manager().clone();
    let _guard = CancelGuard::arm(&mgr);
    let mut fsm = extract_submachine(&sol.csf, &vars.u, &vars.v, strategy)
        .map_err(|e| CliError::Run(format!("extraction failed: {e}")))?;
    if p.flag("minimize") {
        fsm = fsm
            .minimize()
            .map_err(|e| CliError::Run(format!("minimization failed: {e}")))?;
    }
    check_cancelled(&mgr)?;
    println!(
        "sub-solution: {} states, {} products (CSF had {} states)",
        fsm.num_states(),
        fsm.transitions().len(),
        sol.csf.num_states()
    );
    let mut ok = true;
    if p.flag("verify") {
        let sub = submachine_to_automaton(&fsm, problem.equation.manager(), &vars.u, &vars.v);
        let contained = sol.csf.contains_languages_of(&sub);
        let satisfies = langeq_core::verify::composition_contained_in_spec(&problem.equation, &sub);
        check_cancelled(&mgr)?;
        println!(
            "verify: sub ⊆ CSF: {}; F∘sub ⊆ S: {}",
            if contained { "ok" } else { "FAILED" },
            if satisfies { "ok" } else { "FAILED" }
        );
        ok = contained && satisfies;
    }
    if let Some(out) = p.value("o") {
        io::write_out(Some(out), &fsm.to_kiss())?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
