//! # langeq-serve
//!
//! A persistent solve **service** over the workspace's `Suite` engine: a
//! long-running daemon that accepts language-equation solves over a
//! hand-rolled HTTP/1.1 + JSON API, executes them on a bounded worker
//! pool, and answers repeated identical requests from a **content-addressed
//! result cache** that persists across restarts.
//!
//! The layering mirrors the rest of the workspace: `langeq-core` solves one
//! cell, `langeq-core::batch` sweeps many cells once, and this crate turns
//! the same machinery into a shared, long-lived resource — the ROADMAP's
//! "serves heavy traffic" north star. No new dependencies: HTTP is
//! `std::net`, JSON is `langeq-report`, and the cache's on-disk form is a
//! regular sweep journal behind a pluggable
//! [`langeq_core::JournalStore`].
//!
//! ## Endpoints
//!
//! | Endpoint | Semantics |
//! |---|---|
//! | `POST /v1/solve` | network + split + options → job id (202), or an instant cache answer (200) |
//! | `POST /v1/sweep` | manifest body (gen: sources only — the daemon reads no client-named files) → suite job id (202); cells queue individually across the pool |
//! | `POST /v1/lookup` | `{"sig": ...}` → the cached report for a cell signature (200), or 404 — the peer cache probe |
//! | `GET /v1/jobs/{id}` | status: `queued`/`running`/`done`, cells done, live kernel sample |
//! | `GET /v1/jobs/{id}/result` | the cell reports (200), or 202 while running |
//! | `GET /v1/jobs/{id}/snapshot` | the solved CSF as a binary LQAS blob (200), 404 when none exists |
//! | `GET /healthz` | liveness, advertised address, ring size, live peer count |
//! | `GET /readyz` | readiness: 200 when accepting work, 503 when draining, the queue is full, the store errors, or no worker is alive |
//! | `GET /v1/ring` | fleet debug view: every ring member with its live up/down state |
//! | `GET /v1/trace/{id}` | every span recorded for a trace id, merged across live ring members into one parent-linked tree |
//! | `GET /metrics` | Prometheus text exposition: queue/jobs/cache/kernel/fleet counters plus latency histograms |
//!
//! A full queue answers **429** (backpressure), an oversized body **413**,
//! a draining server **503**. With an auth token configured, every POST
//! without the matching `Authorization: Bearer` header answers **401**;
//! with a rate limit configured, over-limit clients get **429** plus a
//! `Retry-After` header.
//!
//! ## Fleet mode
//!
//! N daemons become one cache two ways, composable:
//!
//! * **Shared store** ([`ServeOptions::store_dir`]): every daemon opens the
//!   same directory through a crash-safe multi-writer
//!   [`langeq_core::SharedDirStore`]. On a local miss a daemon refreshes
//!   from the store before solving, so any member's result answers every
//!   member's clients (`langeq_remote_cache_hits_total` counts these).
//! * **Ownership ring** ([`ServeOptions::peers`]): all daemons derive the
//!   same consistent-hash [`ring::Ring`] over cell signatures; a non-owner
//!   forwards `POST /v1/solve` to the owner (one hop, marked by a header)
//!   and relays the ack with an `owner` field — clients poll the owner.
//!   Sweep cells are not forwarded, but probe the owner's cache via
//!   `/v1/lookup` before solving. Peer failures fall back to local solves.
//!
//! Ring membership is **health-checked**: each daemon probes its peers'
//! `/healthz` on a jittered interval and marks members down after a run of
//! consecutive failures. Down members are skipped by ownership routing
//! (their keys fail over to the next live member clockwise and return on
//! recovery), every peer call runs under the shared
//! [`langeq_core::RetryPolicy`] with tight connect deadlines, and a
//! forwarder whose owner is unreachable solves locally and journals to the
//! shared store — so the recovered owner warm-loads the result instead of
//! re-solving it.
//!
//! ## `POST /v1/solve` body
//!
//! ```json
//! {"network": "INPUT(i)\n...", "format": "bench", "name": "fig3",
//!  "split": [1], "flow": "partitioned", "trim": true,
//!  "timeout": 60, "node_limit": 1000000, "max_states": 500000}
//! ```
//!
//! `network` is inline `.bench`/`.blif` text (`format` optional — sniffed);
//! `"source": "gen:figure3"` submits a built-in generator instead. `split`
//! may be omitted only for generators with a canonical default. Unknown
//! keys are ignored, so a body that still sends a since-removed tuning
//! key solves exactly as one without it.
//!
//! An identical request arriving while its twin is still in flight is
//! **coalesced**: the ack carries the existing job id and
//! `"coalesced": true`, and the shared result keeps the first submitter's
//! instance/config labels. Cache answers, by contrast, are re-labelled
//! with the requester's names.
//!
//! ## Quickstart (in-process)
//!
//! ```
//! use langeq_serve::{Client, ServeOptions, Server};
//! use langeq_report::Json;
//! use std::time::Duration;
//!
//! let server = Server::start(ServeOptions::new().addr("127.0.0.1:0").jobs(2)).unwrap();
//! let client = Client::new(server.addr().to_string());
//! let ack = client
//!     .submit_solve(&Json::obj().set("source", "gen:figure3"))
//!     .unwrap();
//! let result = client
//!     .wait(ack.job, Duration::from_millis(20), Duration::from_secs(30))
//!     .unwrap();
//! assert_eq!(result.get("cells").and_then(Json::as_arr).unwrap().len(), 1);
//! // The identical request is now answered from the cache, instantly.
//! let again = client
//!     .submit_solve(&Json::obj().set("source", "gen:figure3"))
//!     .unwrap();
//! assert!(again.cached);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod ring;

#[cfg(feature = "fault-inject")]
pub mod fault;

mod client;
mod health;
mod server;

pub use client::{Client, ClientError, Submitted};
pub use health::ProbeOptions;
pub use server::{ServeOptions, Server};
