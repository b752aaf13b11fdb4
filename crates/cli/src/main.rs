//! `langeq` — a BALM-style command-line front end for the language-equation
//! solver.
//!
//! The tool operates on three on-disk artifact kinds, selected by file
//! extension:
//!
//! * sequential networks — `.bench` (ISCAS'89) or `.blif`,
//! * Mealy FSMs — `.kiss`/`.kiss2`,
//! * automata — `.aut` (the workspace's text exchange format).
//!
//! Run `langeq help` for the command list. Exit codes: `0` success (and
//! "holds" for the check commands), `1` a check failed or the solver could
//! not complete, `2` usage error, `3` input/processing error.

mod cliargs;
mod commands;
mod io;
mod sigint;

use std::process::ExitCode;

const USAGE: &str = "\
langeq — language-equation toolkit (DATE'05 partitioned-representation solver)

USAGE: langeq <command> [args]

Network commands (.bench / .blif / .kiss / .kiss2):
  info <file>                         print interface and size statistics
  convert <in> <out>                  convert between network formats
  stg <net> [-o out.aut]              extract the automaton of a network
  latch-split <net> --split K,K,...   write the fixed part F and the
        [--fixed f.blif] [--xp x.blif] particular solution X_P

Automaton commands (.aut):
  complete <in> [-o out.aut]          add the non-accepting DC trap state
  determinize <in> [-o out.aut]       subset construction
  complement <in> [-o out.aut]        language complement
  minimize <in> [-o out.aut]          bisimulation quotient
  prefix-close <in> [-o out.aut]      drop non-accepting states
  progressive <in> --inputs a,b [-o]  input-progressive sub-automaton
  support <in> --vars a,b,c [-o]      hide/expand to the listed variables
  product <a> <b> [-o out.aut]        synchronous product
  dot <in> [-o out.dot]               Graphviz rendering (network or automaton)

Check commands (exit 0 = holds, 1 = fails):
  contains <a> <b>                    L(b) ⊆ L(a)?
  equivalent <a> <b>                  L(a) = L(b)?

Solver commands (--spec takes a network file or a gen:NAME builtin, whose
own split is the default for --split):
  solve --spec <net|gen:NAME> [--split K,K,...]
                                      compute the CSF of a latch split
        [--flow partitioned|monolithic|algorithm1] [--mono]
        [--reorder none|sifting|sifting:N] (dynamic BDD variable reordering)
        [--timeout SECS] [--node-limit N] [--max-states N]
        [--progress] [--verify] [-o csf.aut] [--stats]
  extract --spec <net|gen:NAME> [--split K,...]
                                      CSF → deterministic Mealy sub-solution
        [--strategy lexmin|first|selfloop] [--minimize]
        [-o sub.kiss] [--verify]
  sweep <manifest.sweep>              batch (instance × config) sweep with a
  sweep <net...> --split K,K,...      work-stealing pool and a JSONL journal
        [--flows part,mono,...] [--timeout SECS] [--node-limit N]
        [--reorder none|sifting|sifting:N] (or per-config reorder= in the manifest)
        [--jobs N] [--budget SECS] [--journal PATH | --store DIR] [--resume]
        [--json] [--progress]

Service commands (HTTP/JSON job API, content-addressed result cache):
  serve [--addr HOST:PORT]            run the solve daemon; repeated identical
        [--jobs N] [--queue N]        requests answer from the cache, which
        [--cache-journal PATH]        persists across restarts via the journal
        [--store DIR]                 (or a shared multi-daemon store directory)
        [--peers A:P,B:P,...]         fleet: consistent-hash solve routing
        [--advertise HOST:PORT] [--auth-token TOK] [--rate-limit PER_SEC]
        [--max-body BYTES] [--slow-ms MS [--slow-log PATH]] (JSONL slow-solve log)
  submit <net|gen:NAME|m.sweep>       send one solve (or a manifest sweep) to
        [--addr HOST:PORT]            a running daemon and poll the job to
        [--split K,K,...] [--flow F]  completion (following a fleet forward
        [--trim on|off] [--reorder P] to its ring owner automatically)
        [--timeout S] [--node-limit N]
        [--max-states N] [--name NAME] [--no-wait] [--poll-ms N]
        [--wait-secs N] [--token TOK] [--snapshot-out PATH] [--json]
  submit --cancel <job> [--addr ...]  fire a queued/running job's cancel token
  trace <id> [--addr HOST:PORT]       render the span tree of one request:
        [--token TOK] [--json]        per-phase timings, merged across the fleet

  help                                this text

Long-running commands accept --progress (stage/engine statistics on stderr)
and cancel cleanly on Ctrl-C (press twice to abort hard).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    // Every command but the daemon ends quietly once its stdout closes;
    // `serve` keeps SIGPIPE ignored, so a client that hangs up mid-response
    // can never kill it.
    if cmd != "serve" {
        sigint::default_sigpipe();
    }
    let result = match cmd.as_str() {
        "info" => commands::net::info(rest),
        "convert" => commands::net::convert(rest),
        "stg" => commands::net::stg(rest),
        "latch-split" => commands::net::latch_split(rest),
        "complete" | "determinize" | "complement" | "minimize" | "prefix-close" => {
            commands::aut::unary(cmd, rest)
        }
        "progressive" => commands::aut::progressive(rest),
        "support" => commands::aut::support(rest),
        "product" => commands::aut::product(rest),
        "dot" => commands::aut::dot(rest),
        "contains" | "equivalent" => commands::aut::check(cmd, rest),
        "solve" => commands::solve::solve(rest),
        "extract" => commands::solve::extract(rest),
        "sweep" => commands::sweep::sweep(rest),
        "serve" => commands::serve::serve(rest),
        "submit" => commands::serve::submit(rest),
        "trace" => commands::serve::trace(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command `{other}`; run `langeq help`");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(commands::CliError::Usage(msg)) => {
            eprintln!("usage error: {msg}");
            ExitCode::from(2)
        }
        Err(commands::CliError::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(3)
        }
    }
}
