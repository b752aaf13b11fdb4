//! The in-process daemon: `langeq_serve::Server` with one worker and a
//! cache journal in a fresh directory, driven by one closed-loop
//! `langeq_serve::Client`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use langeq_report::Json;
use langeq_serve::{http, Client, ServeOptions, Server};

use crate::pool::{Answer, Member};
use crate::solve::nanos;

/// A running daemon and its client.
pub struct Daemon {
    server: Server,
    client: Client,
    journal: PathBuf,
}

/// One submission round trip.
pub struct Trip {
    /// From `POST /v1/solve` until the result body arrived.
    pub total_ns: u64,
    /// From `POST /v1/solve` until the ack arrived.
    pub ack_ns: u64,
    /// Result polls after the ack.
    pub polls: u64,
    /// The daemon's own time for the cell (`duration_ns`).
    pub cell_ns: u64,
}

impl Daemon {
    /// Starts the daemon with its cache journal in `dir` and waits until
    /// `/readyz` answers 200.
    pub fn start(dir: &Path) -> Result<Daemon, String> {
        let journal = dir.join("cache.jsonl");
        let server = Server::start(
            ServeOptions::new()
                .addr("127.0.0.1:0")
                .jobs(1)
                .cache_journal(&journal),
        )
        .map_err(|e| format!("daemon start: {e}"))?;
        let addr = server.addr().to_string();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match http::call(&addr, "GET", "/readyz", "text/plain", b"") {
                Ok((200, _)) => break,
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                other => {
                    server.shutdown();
                    return Err(format!("daemon never became ready: {other:?}"));
                }
            }
        }
        Ok(Daemon {
            server,
            client: Client::new(addr),
            journal,
        })
    }

    /// Drains the daemon and joins its threads.
    pub fn stop(self) {
        self.server.shutdown();
    }

    /// Bytes in the cache journal.
    pub fn journal_bytes(&self) -> u64 {
        std::fs::metadata(&self.journal).map_or(0, |m| m.len())
    }

    /// One unmeasured `GET /readyz`. The accept loop sleeps 25 ms whenever
    /// no connection is pending, so a request arriving after other work
    /// waits a random part of that cycle; a request sent right after a
    /// daemon answer waits the whole cycle. Syncing first puts every
    /// measured request of the daemon block in the second case.
    pub fn sync(&self) -> Result<(), String> {
        match http::call(self.client.addr(), "GET", "/readyz", "text/plain", b"") {
            Ok((200, _)) => Ok(()),
            other => Err(format!("/readyz: {other:?}")),
        }
    }

    /// `(cache hits, cache misses)` from `/metrics`.
    pub fn cache_counters(&self) -> Result<(u64, u64), String> {
        let hits = self.client.metric("langeq_cache_hits_total");
        let misses = self.client.metric("langeq_cache_misses_total");
        match (hits, misses) {
            (Ok(h), Ok(m)) => Ok((h, m)),
            (Err(e), _) | (_, Err(e)) => Err(format!("/metrics: {e}")),
        }
    }

    /// Submits `request`, expects the cache flag `cached`, polls the result
    /// without pausing (every request already waits for the accept loop)
    /// and checks the reported cell against `want`.
    pub fn submit(&self, request: &Json, cached: bool, want: Answer) -> Result<Trip, String> {
        let t0 = Instant::now();
        let ack = self
            .client
            .submit_solve(request)
            .map_err(|e| format!("submit: {e}"))?;
        let ack_ns = nanos(t0.elapsed());
        let deadline = t0 + Duration::from_secs(120);
        let mut polls = 0;
        let result = loop {
            polls += 1;
            match self.client.job_result(ack.job) {
                Ok(Some(result)) => break result,
                Ok(None) if Instant::now() < deadline => {}
                Ok(None) => return Err(format!("job {} did not finish", ack.job)),
                Err(e) => return Err(format!("result: {e}")),
            }
        };
        let total_ns = nanos(t0.elapsed());
        if ack.cached != cached {
            return Err(format!("ack cached={}, expected {cached}", ack.cached));
        }
        let cell_ns = check_result(&result, cached, want)?;
        Ok(Trip {
            total_ns,
            ack_ns,
            polls,
            cell_ns,
        })
    }
}

/// The body of a solve submission: the circuit as inline `.bench` text,
/// the partitioned flow, and `node_limit`, which makes the signature
/// distinct per value while sitting far above every member's peak.
pub fn request(member: &Member, text: &str, node_limit: u64) -> Json {
    let split: Vec<Json> = member
        .shape
        .split()
        .into_iter()
        .map(|k| Json::from(k as u64))
        .collect();
    Json::obj()
        .set("network", text)
        .set("format", "bench")
        .set("name", member.shape.label())
        .set("split", Json::Arr(split))
        .set("flow", "partitioned")
        .set("node_limit", node_limit)
}

/// Checks one result body; returns the cell's `duration_ns`.
fn check_result(result: &Json, cached: bool, want: Answer) -> Result<u64, String> {
    if result.get("cached").and_then(Json::as_bool) != Some(cached) {
        return Err(format!("result cached flag is not {cached}"));
    }
    let cells = result
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("result has no cells")?;
    let [cell] = cells else {
        return Err(format!("result has {} cells, expected 1", cells.len()));
    };
    let field = |k: &str| cell.get(k).and_then(Json::as_u64);
    let status = cell.get("status").and_then(Json::as_str).unwrap_or("?");
    if status != "solved" {
        return Err(format!("cell status {status}"));
    }
    let got = (field("csf_states"), field("subset_states"));
    if got
        != (
            Some(want.csf_states as u64),
            Some(want.subset_states as u64),
        )
    {
        return Err(format!(
            "cell csf={:?} subset={:?}, pinned csf={} subset={}",
            got.0, got.1, want.csf_states, want.subset_states
        ));
    }
    field("duration_ns").ok_or_else(|| "cell has no duration_ns".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(cached: bool, status: &str, csf: u64, subset: u64) -> Json {
        let cell = Json::obj()
            .set("status", status)
            .set("csf_states", csf)
            .set("subset_states", subset)
            .set("duration_ns", 1234u64);
        Json::obj()
            .set("cached", cached)
            .set("cells", Json::Arr(vec![cell]))
    }

    #[test]
    fn result_checks_cover_flag_status_and_answer() {
        let want = Answer {
            csf_states: 9,
            subset_states: 10,
        };
        assert_eq!(
            check_result(&body(true, "solved", 9, 10), true, want),
            Ok(1234)
        );
        assert!(check_result(&body(false, "solved", 9, 10), true, want).is_err());
        assert!(check_result(&body(true, "cnc", 9, 10), true, want).is_err());
        assert!(check_result(&body(true, "solved", 9, 11), true, want).is_err());
        assert!(check_result(&Json::obj().set("cached", true), true, want).is_err());
    }
}
