//! Observability integration tests: the Prometheus exposition contract of
//! `/metrics`, end-to-end trace propagation across a two-daemon ring, and
//! the slow-solve log.

use std::path::{Path, PathBuf};
use std::time::Duration;

use langeq_core::batch::manifest::resolve_source;
use langeq_core::sig::cell_signature;
use langeq_core::{ConfigSpec, InstanceSpec, SolverKind};
use langeq_report::Json;
use langeq_serve::http::{self, CallOpts};
use langeq_serve::ring::Ring;
use langeq_serve::{Client, ServeOptions, Server};

const POLL: Duration = Duration::from_millis(20);
const WAIT: Duration = Duration::from_secs(60);

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("langeq-obs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn reserve_port() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    listener.local_addr().expect("local addr").to_string()
}

/// Every span name in a (nested) trace tree, depth-first.
fn tree_names(nodes: &[Json], out: &mut Vec<String>) {
    for node in nodes {
        if let Some(name) = node.get("name").and_then(Json::as_str) {
            out.push(name.to_string());
        }
        if let Some(children) = node.get("children").and_then(Json::as_arr) {
            tree_names(children, out);
        }
    }
}

/// `/metrics` must be valid Prometheus text exposition: the versioned
/// content type, `# HELP`/`# TYPE` metadata for every family, the legacy
/// counter names unchanged, and at least two histogram families with
/// cumulative buckets ending in `+Inf` plus `_sum`/`_count`.
#[test]
fn metrics_speak_prometheus_exposition() {
    let server =
        Server::start(ServeOptions::new().addr("127.0.0.1:0").jobs(1)).expect("daemon starts");
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());
    let ack = client
        .submit_solve(&Json::obj().set("source", "gen:figure3"))
        .expect("submit");
    client.wait(ack.job, POLL, WAIT).expect("solve finishes");

    let (status, headers, body) = http::call_full(
        &addr,
        "GET",
        "/metrics",
        "text/plain",
        b"",
        &[],
        CallOpts::default(),
    )
    .expect("scrape");
    assert_eq!(status, 200);
    let content_type = headers
        .iter()
        .find(|(name, _)| name == "content-type")
        .map(|(_, value)| value.as_str())
        .expect("content-type header");
    assert_eq!(
        content_type, "text/plain; version=0.0.4",
        "scrapers negotiate on the exposition version"
    );
    let text = String::from_utf8(body).expect("utf-8 exposition");

    // The legacy counter surface is unchanged (fleet smoke tests grep it).
    for name in [
        "langeq_requests_total",
        "langeq_cache_misses_total",
        "langeq_jobs_done_total",
        "langeq_workers",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(&format!("{name} "))),
            "missing plain sample line for {name}"
        );
        assert!(
            text.contains(&format!("# TYPE {name} ")),
            "missing # TYPE for {name}"
        );
        assert!(
            text.contains(&format!("# HELP {name} ")),
            "missing # HELP for {name}"
        );
    }

    // At least two histogram families, with the full bucket/sum/count
    // shape. The solve above guarantees both observed something.
    for family in [
        "langeq_request_duration_seconds",
        "langeq_solve_duration_seconds",
        "langeq_queue_wait_seconds",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} histogram")),
            "{family} must be exposed as a histogram"
        );
        assert!(
            text.contains(&format!("{family}_bucket")),
            "{family} has bucket lines"
        );
        assert!(
            text.contains("le=\"+Inf\""),
            "cumulative buckets end at +Inf"
        );
        assert!(text.contains(&format!("{family}_sum")), "{family} has _sum");
        assert!(
            text.contains(&format!("{family}_count")),
            "{family} has _count"
        );
    }
    assert!(
        text.contains("langeq_request_duration_seconds_bucket{endpoint=\"/v1/solve\""),
        "request duration is labelled by endpoint"
    );

    // Exposition is parseable line-by-line: every non-comment line is
    // `name[{labels}] value` with a numeric value.
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in `{line}`"
        );
    }
    server.shutdown();
}

/// The fleet correlation acceptance scenario: a solve submitted to the
/// non-owning ring member is forwarded, and `GET /v1/trace/{id}` on the
/// *submitting* daemon returns one span tree covering both daemons — the
/// forwarder's ingress and forward spans, the owner's ingress under them,
/// and the owner's solve with the engine's phase spans inside.
#[test]
fn one_trace_spans_a_ring_forwarded_solve() {
    let addr_a = reserve_port();
    let addr_b = reserve_port();
    let peers = vec![addr_a.clone(), addr_b.clone()];
    let start = |addr: &str| {
        Server::start(
            ServeOptions::new()
                .addr(addr)
                .jobs(1)
                .peers(peers.clone())
                .advertise(addr),
        )
        .expect("ring daemon starts")
    };
    let a = start(&addr_a);
    let b = start(&addr_b);
    let client = |addr: &str| Client::new(addr.to_string());
    let request = Json::obj().set("source", "gen:figure3").set("name", "obs");

    // Consult the ring locally (same hash as the daemons) so the request
    // can be submitted to the NON-owner — the solve must cross the ring,
    // and must be the *first* solve of this signature so the engine's
    // phase spans land in this trace.
    let sig = {
        let (network, default_split) =
            resolve_source("gen:figure3", Path::new(".")).expect("builtin source resolves");
        let instance = InstanceSpec::new(
            "obs".to_string(),
            network,
            default_split.expect("figure3 has a canonical split"),
        );
        let kind = SolverKind::Partitioned;
        let config = ConfigSpec::new(kind.to_string(), kind);
        cell_signature(&instance, &config)
    };
    let ring = Ring::new(&peers, "");
    let owner_addr = ring.owner(&sig).expect("two members own everything");
    let hop = peers
        .iter()
        .find(|p| p.as_str() != owner_addr)
        .expect("one non-owner")
        .clone();

    let ack = client(&hop).submit_solve(&request).expect("hop accepts");
    let owner = ack.owner.clone().expect("the non-owner relays ownership");
    let trace = ack
        .trace
        .clone()
        .expect("forwarded acks carry the trace id");
    client(&owner)
        .wait(ack.job, POLL, WAIT)
        .expect("the owner runs the forwarded job");

    // The submitting daemon merges its own spans with the owner's.
    let view = client(&hop).trace(&trace).expect("trace view");
    assert_eq!(
        view.get("trace").and_then(Json::as_str),
        Some(trace.as_str())
    );
    let members = view.get("members").and_then(Json::as_arr).expect("members");
    assert_eq!(members.len(), 2, "both ring members answered");

    let tree = view.get("tree").and_then(Json::as_arr).expect("tree");
    let mut names = Vec::new();
    tree_names(tree, &mut names);
    for expected in [
        "ingress", "forward", "solve", "cell", "compile", "fixpoint", "extract",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "trace tree is missing a `{expected}` span (got {names:?})"
        );
    }
    assert_eq!(
        names.iter().filter(|n| *n == "ingress").count(),
        2,
        "one ingress per daemon: the forwarder's and the owner's"
    );

    // Structure, not just presence: the forward span must have the owner's
    // ingress as a child — that parent link only exists if the trace
    // header crossed the wire.
    fn find<'t>(nodes: &'t [Json], name: &str) -> Option<&'t Json> {
        for node in nodes {
            if node.get("name").and_then(Json::as_str) == Some(name) {
                return Some(node);
            }
            if let Some(children) = node.get("children").and_then(Json::as_arr) {
                if let Some(hit) = find(children, name) {
                    return Some(hit);
                }
            }
        }
        None
    }
    let forward = find(tree, "forward").expect("forward span in tree");
    let under_forward = forward
        .get("children")
        .and_then(Json::as_arr)
        .expect("forward has children");
    let mut names_under = Vec::new();
    tree_names(under_forward, &mut names_under);
    assert!(
        names_under.iter().any(|n| n == "ingress"),
        "the owner's ingress span parents under the forward span ({names_under:?})"
    );
    assert!(
        names_under.iter().any(|n| n == "fixpoint"),
        "the solver phases hang off the forwarded branch ({names_under:?})"
    );

    // The job's journal record is stamped with the same trace id.
    let result = client(&owner).job_result(ack.job).expect("result").unwrap();
    let cells = result.get("cells").and_then(Json::as_arr).unwrap();
    assert_eq!(
        cells[0].get("trace").and_then(Json::as_str),
        Some(trace.as_str()),
        "the cell report carries the trace id"
    );

    a.shutdown();
    b.shutdown();
}

/// With `--slow-ms 0`, every fresh solve appends one structured record to
/// the slow log: trace id, signature, status, duration, and the per-phase
/// nanosecond breakdown.
#[test]
fn slow_log_records_fresh_solves() {
    let dir = scratch_dir("slowlog");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let log_path = dir.join("slow.jsonl");
    let server = Server::start(
        ServeOptions::new()
            .addr("127.0.0.1:0")
            .jobs(1)
            .slow_ms(0)
            .slow_log(&log_path),
    )
    .expect("daemon starts");
    let client = Client::new(server.addr().to_string());
    let ack = client
        .submit_solve(&Json::obj().set("source", "gen:figure3"))
        .expect("submit");
    let result = client.wait(ack.job, POLL, WAIT).expect("solve finishes");

    // The cached repeat must NOT log: the slow log records solves, not
    // cache answers.
    let again = client
        .submit_solve(&Json::obj().set("source", "gen:figure3"))
        .expect("repeat");
    assert!(again.cached);

    let records = langeq_obs::slowlog::load(&log_path);
    assert_eq!(records.len(), 1, "one fresh solve, one record");
    let record = &records[0];
    assert_eq!(
        record.get("trace").and_then(Json::as_str),
        ack.trace.as_deref(),
        "the record carries the solve's trace id"
    );
    assert_eq!(record.get("status").and_then(Json::as_str), Some("solved"));
    assert!(record.get("sig").and_then(Json::as_str).is_some());
    assert!(record.get("duration_ms").and_then(Json::as_u64).is_some());
    let phases = record.get("phases_ns").expect("phase breakdown");
    assert!(
        phases.get("fixpoint").and_then(Json::as_u64).is_some(),
        "the breakdown names the solver phases: {phases}"
    );
    let kernel = record.get("kernel").expect("kernel counters");
    let cell = &result.get("cells").and_then(Json::as_arr).expect("cells")[0];
    assert_eq!(
        Some(kernel),
        cell.get("kernel"),
        "the record carries the solve's journaled kernel sample"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
