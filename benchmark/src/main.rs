//! The langeq benchmark: end-to-end and per-layer metrics of the library
//! and its daemon.
//!
//! ```text
//! langeq-perfbench --workload <fixpoint|relation|serve> --seed <n> --seconds <s> --trace <0|1>
//! langeq-perfbench --screen <family> <sizes> <out_extras> <first..last seed>
//! langeq-perfbench --calibrate <family> <rounds>
//! ```
//!
//! A workload run prints a human-readable report on stderr and, as the last
//! line of stdout, one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` — the end-to-end metrics untraced, the per-layer metrics
//! traced. See `README.md` beside this crate for the workloads, metrics and
//! the steadiness runs.

mod daemon;
mod phases;
mod pool;
mod reference;
mod screen;
mod solve;
mod stats;
mod workload;

use langeq_report::Json;

const USAGE: &str = "usage: langeq-perfbench --workload <fixpoint|relation|serve> --seed <n> \
                     --seconds <s> --trace <0|1>\n       \
                     langeq-perfbench --screen <family> <sizes> <out_extras> <first..last seed>\n       \
                     langeq-perfbench --calibrate <family> <rounds>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--screen") => screen_cmd(&args[1..]),
        Some("--calibrate") => calibrate_cmd(&args[1..]),
        _ => workload_cmd(&args),
    };
    std::process::exit(code.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        2
    }));
}

fn list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|x| x.parse().map_err(|e| format!("`{x}`: {e}")))
        .collect()
}

fn family(s: Option<&String>) -> Result<pool::Family, String> {
    let s = s.ok_or("missing family")?;
    pool::Family::parse(s).ok_or_else(|| format!("unknown family `{s}`"))
}

fn screen_cmd(args: &[String]) -> Result<i32, String> {
    let [_, sizes, extras, seeds] = args else {
        return Err("--screen takes 4 arguments".into());
    };
    let (a, b) = seeds.split_once("..").ok_or("seeds are first..last")?;
    let parse = |x: &str| x.parse::<u64>().map_err(|e| format!("`{x}`: {e}"));
    let seeds: Vec<u64> = (parse(a)?..=parse(b)?).collect();
    Ok(screen::run(
        family(args.first())?,
        &list(sizes)?,
        &list(extras)?,
        &seeds,
    ))
}

fn calibrate_cmd(args: &[String]) -> Result<i32, String> {
    let rounds = args
        .get(1)
        .ok_or("missing rounds")?
        .parse()
        .map_err(|e| format!("rounds: {e}"))?;
    Ok(screen::calibrate(family(args.first())?, rounds))
}

fn workload_cmd(args: &[String]) -> Result<i32, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} `{value}`: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let outcome = workload::run(
        spec,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    )?;
    let mut metrics = Json::obj();
    for (name, unit, value) in &outcome.metrics {
        metrics = metrics.set(name, Json::obj().set("value", *value).set("unit", *unit));
    }
    let line = Json::obj()
        .set("correct", outcome.tally.failed == 0)
        .set("attempted", outcome.tally.attempted)
        .set("failed", outcome.tally.failed)
        .set("metrics", metrics);
    println!("{line}");
    Ok(0)
}
