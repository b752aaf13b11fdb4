//! Integration tests of the solve service: concurrent clients sharing the
//! content-addressed cache, metrics accounting, protocol-level rejection of
//! malformed and oversized requests, queue backpressure, restart-from-
//! journal persistence, and per-cell cache reuse inside sweep jobs.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use langeq_core::{
    CancelToken, CellReport, ConfigSpec, InstanceSpec, SolverKind, SuiteOptions, SuitePlan,
};
use langeq_report::Json;
use langeq_serve::{Client, ServeOptions, Server};

const POLL: Duration = Duration::from_millis(20);
const WAIT: Duration = Duration::from_secs(60);

fn start(opts: ServeOptions) -> (Server, Client) {
    let server = Server::start(opts.addr("127.0.0.1:0")).expect("server starts");
    let client = Client::new(server.addr().to_string());
    (server, client)
}

fn scratch_journal(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("langeq-serve-{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The solve-request body of a built-in generator instance.
fn gen_request(source: &str) -> Json {
    Json::obj().set("source", source)
}

/// Parses every cell of a result body, re-serialized through the journal
/// codec — which normalizes the `resumed` provenance flag, so a cached
/// answer and the original solve compare byte-identical.
fn normalized_cells(result: &Json) -> Vec<String> {
    result
        .get("cells")
        .and_then(Json::as_arr)
        .expect("result has cells")
        .iter()
        .map(|cell| {
            CellReport::from_json(cell)
                .expect("cell parses as a journal record")
                .to_json()
                .to_string()
        })
        .collect()
}

#[test]
fn concurrent_clients_hit_the_cache_and_metrics_add_up() {
    let (server, client) = start(ServeOptions::new().jobs(4).queue_cap(256));
    // The acceptance scenario: 8 parallel clients, each submitting the same
    // 4 distinct instances. Exactly 4 solves may run; every other request
    // must be answered from the cache or coalesced onto an in-flight job.
    const SOURCES: [&str; 4] = [
        "gen:figure3",
        "gen:counter3",
        "gen:counter4",
        "gen:counter5",
    ];
    const CLIENTS: usize = 8;

    let results: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = client.clone();
                scope.spawn(move || {
                    SOURCES
                        .iter()
                        .enumerate()
                        .map(|(k, source)| {
                            let ack = client.submit_solve(&gen_request(source)).expect("submit");
                            let result = client.wait(ack.job, POLL, WAIT).expect("finishes");
                            let cells = normalized_cells(&result);
                            assert_eq!(cells.len(), 1, "{source}");
                            (k, cells.into_iter().next().unwrap())
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Byte-identical across every client, per instance.
    for (k, reference) in &results[0] {
        let report = CellReport::from_json(&Json::parse(reference).unwrap()).unwrap();
        assert!(report.solved(), "{}: {reference}", SOURCES[*k]);
        for other in &results[1..] {
            assert_eq!(&other[*k].1, reference, "{}", SOURCES[*k]);
        }
    }

    // …and identical to solving locally, without the service.
    for (k, source) in SOURCES.iter().enumerate() {
        let (network, split) =
            langeq_core::batch::manifest::resolve_source(source, std::path::Path::new("."))
                .unwrap();
        let local = SuitePlan::new()
            .instance(InstanceSpec::new("local", network, split.unwrap()))
            .config(ConfigSpec::new("local", SolverKind::Partitioned))
            .execute(SuiteOptions::new())
            .unwrap();
        let local_stats = *local.cells[0].stats().expect("local solve succeeds");
        let served = CellReport::from_json(&Json::parse(&results[0][k].1).unwrap()).unwrap();
        assert_eq!(served.stats(), Some(&local_stats), "{source}");
    }

    // The accounting must close: every one of the 8×4 submissions was
    // either the solve itself (a miss), a cache answer, or coalesced onto
    // an in-flight twin — and the repeat-after-done path below is a hit.
    let misses = client.metric("langeq_cache_misses_total").unwrap();
    let hits = client.metric("langeq_cache_hits_total").unwrap();
    let coalesced = client.metric("langeq_coalesced_total").unwrap();
    assert_eq!(misses, SOURCES.len() as u64, "one real solve per instance");
    assert_eq!(
        misses + hits + coalesced,
        (CLIENTS * SOURCES.len()) as u64,
        "every submission is accounted for"
    );
    assert_eq!(client.metric("langeq_cache_entries").unwrap(), 4);
    // Done jobs: the 4 accepted solves plus one per cache-hit submission
    // (coalesced submissions share a job instead of creating one).
    assert_eq!(
        client.metric("langeq_jobs_done_total").unwrap(),
        misses + hits
    );

    // A repeated identical request after completion is a pure cache hit.
    let ack = client.submit_solve(&gen_request("gen:figure3")).unwrap();
    assert!(ack.cached, "identical request must not spawn a new solve");
    assert_eq!(ack.state, "done");
    assert_eq!(client.metric("langeq_cache_hits_total").unwrap(), hits + 1);
    assert_eq!(client.metric("langeq_cache_misses_total").unwrap(), misses);

    server.shutdown();
}

#[test]
fn malformed_and_oversized_requests_are_rejected() {
    let (server, client) = start(ServeOptions::new().jobs(1).max_body(1024));
    let addr = client.addr().to_string();

    // Raw garbage → 400 with a JSON error body.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
    assert!(answer.contains("\"error\""), "{answer}");

    // Oversized body → 413 before anything is buffered.
    let big = "x".repeat(64 * 1024);
    let (status, body) = langeq_serve::http::call(
        &addr,
        "POST",
        "/v1/solve",
        "application/json",
        big.as_bytes(),
    )
    .unwrap();
    assert_eq!(status, 413, "{body}");

    // Unsupported method → 405; unknown path → 404; unknown job → 404.
    let (status, _) =
        langeq_serve::http::call(&addr, "PUT", "/v1/solve", "text/plain", b"").unwrap();
    assert_eq!(status, 405);
    let (status, _) =
        langeq_serve::http::call(&addr, "GET", "/v2/nope", "text/plain", b"").unwrap();
    assert_eq!(status, 404);
    let (status, _) =
        langeq_serve::http::call(&addr, "GET", "/v1/jobs/999/result", "text/plain", b"").unwrap();
    assert_eq!(status, 404);

    // Semantically broken solve bodies → 400 with a useful message.
    let deep = "[".repeat(600);
    for (body, needle) in [
        ("{}", "network"),
        ("{\"source\":\"gen:warp\"}", "unknown generator"),
        ("{\"source\":\"/etc/passwd\"}", "gen:NAME"),
        ("{\"network\":\"INPUT(i)\\n\"}", "split"),
        (
            "{\"network\":\"INPUT(i)\\nINPUT(i)\\n\",\"split\":[0]}",
            "line 2",
        ),
        ("not json", "request body"),
        (deep.as_str(), "nesting too deep"),
    ] {
        let (status, answer) = langeq_serve::http::call(
            &addr,
            "POST",
            "/v1/solve",
            "application/json",
            body.as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 400, "{body} -> {answer}");
        assert!(answer.contains(needle), "{body} -> {answer}");
    }

    // All of the above counted as bad requests; none were accepted.
    // A submitted sweep manifest must not name server-side files — same
    // filesystem policy as /v1/solve.
    let (status, answer) = langeq_serve::http::call(
        &addr,
        "POST",
        "/v1/sweep",
        "text/plain",
        b"instance x /etc/passwd split=0\nconfig p flow=partitioned\n",
    )
    .unwrap();
    assert_eq!(status, 400, "{answer}");
    assert!(answer.contains("gen:NAME sources"), "{answer}");

    assert!(client.metric("langeq_bad_requests_total").unwrap() >= 9);
    assert_eq!(client.metric("langeq_jobs_accepted_total").unwrap(), 0);
    server.shutdown();
}

#[test]
fn full_queue_answers_429_and_shutdown_drains() {
    // Both ways a drain starts: `Server::shutdown`, and a token handed in
    // at start (the one SIGINT fires under `langeq serve`).
    for via_token in [false, true] {
        let token = CancelToken::new();
        let (server, client) = start(
            ServeOptions::new()
                .jobs(1)
                .queue_cap(1)
                .cancel_token(token.clone()),
        );

        // Occupy the single worker with a solve too large to finish here
        // (cooperative cancellation reels it back in at the drain).
        let slow = client
            .submit_solve(&gen_request("gen:counter20"))
            .expect("slow job accepted");
        while client
            .job_status(slow.job)
            .unwrap()
            .get("state")
            .and_then(Json::as_str)
            != Some("running")
        {
            std::thread::sleep(POLL);
        }

        // One slot in the queue…
        let queued = client.submit_solve(&gen_request("gen:counter4")).unwrap();
        assert_eq!(queued.state, "queued");
        // …and the next distinct submission bounces with 429.
        let err = client
            .submit_solve(&gen_request("gen:counter5"))
            .expect_err("backpressure");
        let text = err.to_string();
        assert!(text.contains("429"), "{text}");
        assert_eq!(client.metric("langeq_rejected_full_total").unwrap(), 1);

        // Drain: the running cell cancels cooperatively, the queued job
        // drains, and the server winds down instead of running the
        // 2^20-state solve to the end. A helper thread waits, so a drain
        // that hangs fails the test instead of hanging it.
        let (done, drained) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            if via_token {
                token.cancel();
                server.wait();
            } else {
                server.shutdown();
            }
            let _ = done.send(());
        });
        drained
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("drain (via token: {via_token}) took over 10 s"));
    }
}

#[test]
fn accept_answers_without_a_polling_delay() {
    // The accept loop blocks in `accept`, so a request is served as soon
    // as it arrives; a loop that polled a non-blocking listener would add
    // its sleep to every round trip.
    let (server, _client) = start(ServeOptions::new().jobs(1));
    let addr = server.addr().to_string();
    let t0 = Instant::now();
    for _ in 0..40 {
        let (status, _) =
            langeq_serve::http::call(&addr, "GET", "/readyz", "text/plain", b"").unwrap();
        assert_eq!(status, 200);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "40 sequential /readyz round trips took {elapsed:?}"
    );
    server.shutdown();
}

#[test]
fn cancel_endpoint_aborts_one_job_and_leaves_the_rest_alone() {
    let (server, client) = start(ServeOptions::new().jobs(1).queue_cap(8));

    // Occupy the single worker with a solve too large to finish here.
    let slow = client
        .submit_solve(&gen_request("gen:counter20"))
        .expect("slow job accepted");
    while client
        .job_status(slow.job)
        .unwrap()
        .get("state")
        .and_then(Json::as_str)
        != Some("running")
    {
        std::thread::sleep(POLL);
    }
    // A second, small job queues behind it.
    let small = client.submit_solve(&gen_request("gen:counter4")).unwrap();
    assert_eq!(small.state, "queued");

    // Cancel the running job: its own token fires, the engine returns
    // CNC-cancelled cooperatively, and the worker moves on to the queued
    // job — which must be untouched by the neighbour's cancellation.
    assert!(client.cancel(slow.job).expect("cancel accepted"));
    let result = client
        .wait(slow.job, POLL, WAIT)
        .expect("cancelled job finishes");
    let cells = result.get("cells").and_then(Json::as_arr).unwrap();
    let report = CellReport::from_json(&cells[0]).expect("cell parses");
    assert_eq!(report.status(), "cancelled");

    let result = client
        .wait(small.job, POLL, WAIT)
        .expect("neighbour finishes");
    let cells = result.get("cells").and_then(Json::as_arr).unwrap();
    let report = CellReport::from_json(&cells[0]).expect("cell parses");
    assert!(report.solved(), "queued neighbour still solves: {report:?}");

    // Cancelled results are retryable and must never enter the cache: the
    // same submission solves (or at least runs) again rather than
    // replaying the aborted result.
    assert_eq!(client.metric("langeq_jobs_cancelled_total").unwrap(), 1);
    let again = client.submit_solve(&gen_request("gen:counter20")).unwrap();
    assert!(!again.cached, "a cancelled result leaked into the cache");
    assert!(client.cancel(again.job).expect("cancel accepted"));
    let _ = client.wait(again.job, POLL, WAIT).expect("drains");

    // Cancelling a done job is an idempotent no-op…
    assert!(!client.cancel(small.job).expect("done-job cancel answers"));
    // …and an unknown id is a 404.
    let err = client.cancel(9_999_999).expect_err("unknown id");
    assert!(err.to_string().contains("404"), "{err}");

    assert_eq!(client.metric("langeq_jobs_cancelled_total").unwrap(), 2);
    server.shutdown();
}

#[test]
fn reorder_policy_is_part_of_the_cache_key() {
    let (server, client) = start(ServeOptions::new().jobs(2));

    // The same instance under reorder=none and reorder=sifting are
    // different experiments: the second submission must miss the cache.
    // The first body also sends the removed `image_jobs` key, which is
    // ignored like any unknown key.
    let plain = client
        .submit_solve(&gen_request("gen:counter4").set("image_jobs", 4u64))
        .expect("plain accepted");
    let plain = client.wait(plain.job, POLL, WAIT).expect("plain finishes");

    let sifted_req = gen_request("gen:counter4").set("reorder", "sifting:64");
    let sifted = client.submit_solve(&sifted_req).expect("sifted accepted");
    assert!(!sifted.cached, "reorder-on conflated with reorder-off");
    let sifted = client
        .wait(sifted.job, POLL, WAIT)
        .expect("sifted finishes");

    // Both solve, and solve to the same CSF.
    let cell = |result: &Json| {
        let cells = result.get("cells").and_then(Json::as_arr).unwrap();
        CellReport::from_json(&cells[0]).expect("cell parses")
    };
    let (p, s) = (cell(&plain), cell(&sifted));
    assert!(p.solved() && s.solved());
    assert_eq!(p.stats().unwrap().csf_states, s.stats().unwrap().csf_states);
    assert_ne!(p.sig, s.sig, "signatures must differ");
    assert!(s.sig.contains("reorder=Sifting"), "{}", s.sig);

    // Resubmitting the sifted config now hits its own cache entry, and
    // the plain body without the ignored key hits the first solve's.
    let again = client.submit_solve(&sifted_req).expect("resubmit");
    assert!(again.cached);
    let again = client
        .submit_solve(&gen_request("gen:counter4"))
        .expect("plain resubmit");
    assert!(again.cached, "an ignored key must not split the cache");

    // A bad policy string is a 400, not a solve.
    let err = client
        .submit_solve(&gen_request("gen:counter4").set("reorder", "warp"))
        .expect_err("bad policy");
    assert!(err.to_string().contains("400"), "{err}");

    server.shutdown();
}

#[test]
fn timeouts_past_the_clock_range_mean_no_limit() {
    let (server, client) = start(ServeOptions::new().jobs(1));
    // Both the solve's time limit and the client's wait lie past
    // `Instant`'s range: each must mean "no limit", not a worker panic.
    let req = gen_request("gen:figure3").set("timeout", i64::MAX);
    let ack = client.submit_solve(&req).expect("accepted");
    let result = client.wait(ack.job, POLL, Duration::MAX).expect("finishes");
    let cells = result.get("cells").and_then(Json::as_arr).unwrap();
    assert!(CellReport::from_json(&cells[0]).unwrap().solved());
    assert_eq!(client.metric("langeq_worker_panics_total").unwrap(), 0);
    server.shutdown();
}

#[test]
fn restart_reloads_the_cache_journal() {
    let journal = scratch_journal("restart");

    let (server, client) = start(ServeOptions::new().jobs(2).cache_journal(&journal));
    assert_eq!(server.warm_cache_entries(), 0);
    let ack = client.submit_solve(&gen_request("gen:counter4")).unwrap();
    assert!(!ack.cached);
    let first = client.wait(ack.job, POLL, WAIT).unwrap();
    server.shutdown();

    // A fresh server over the same journal answers the identical request
    // from the warmed cache, byte-identically, without solving.
    let (server, client) = start(ServeOptions::new().jobs(2).cache_journal(&journal));
    assert_eq!(server.warm_cache_entries(), 1);
    let ack = client.submit_solve(&gen_request("gen:counter4")).unwrap();
    assert!(ack.cached, "restart must not forget the cache");
    let second = client.wait(ack.job, POLL, WAIT).unwrap();
    assert_eq!(normalized_cells(&first), normalized_cells(&second));
    assert_eq!(client.metric("langeq_cache_misses_total").unwrap(), 0);
    server.shutdown();
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn sweep_jobs_reuse_the_cache_per_cell() {
    let (server, client) = start(ServeOptions::new().jobs(2));

    // Pre-warm one cell's signature through the solve endpoint.
    let ack = client.submit_solve(&gen_request("gen:figure3")).unwrap();
    client.wait(ack.job, POLL, WAIT).unwrap();

    let manifest = "\
instance fig3 gen:figure3
instance c4   gen:counter4
config part flow=partitioned
config mono flow=monolithic
";
    let ack = client.submit_sweep(manifest).unwrap();
    let result = client.wait(ack.job, POLL, WAIT).unwrap();
    let cells: Vec<CellReport> = result
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|c| CellReport::from_json(c).unwrap())
        .collect();
    assert_eq!(cells.len(), 4);
    assert!(cells.iter().all(CellReport::solved));
    assert_eq!(
        (cells[0].instance.as_str(), cells[0].config.as_str()),
        ("fig3", "part")
    );
    // The pre-warmed fig3 × partitioned cell was served from the cache
    // (instance/config names don't matter — the key is content-addressed).
    let served = result.get("cells").and_then(Json::as_arr).unwrap();
    assert_eq!(
        served[0].get("resumed").and_then(Json::as_bool),
        Some(true),
        "{}",
        served[0]
    );
    // 1 solve endpoint miss + 3 fresh sweep cells; 1 sweep cell from cache.
    assert_eq!(client.metric("langeq_cache_misses_total").unwrap(), 4);
    assert_eq!(client.metric("langeq_cache_hits_total").unwrap(), 1);
    assert_eq!(client.metric("langeq_cache_entries").unwrap(), 4);
    server.shutdown();
}

#[test]
fn status_endpoint_reports_progress_shape() {
    let (server, client) = start(ServeOptions::new().jobs(1));
    let ack = client.submit_solve(&gen_request("gen:counter6")).unwrap();
    let status = client.job_status(ack.job).unwrap();
    assert_eq!(status.get("job").and_then(Json::as_u64), Some(ack.job));
    assert_eq!(status.get("kind").and_then(Json::as_str), Some("solve"));
    assert_eq!(status.get("cells").and_then(Json::as_u64), Some(1));
    client.wait(ack.job, POLL, WAIT).unwrap();
    let done = client.job_status(ack.job).unwrap();
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(done.get("cells_done").and_then(Json::as_u64), Some(1));
    assert!(client.health().unwrap());
    server.shutdown();
}
