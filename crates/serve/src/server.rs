//! The solve service: job table, bounded queue, worker pool, the
//! content-addressed result cache, and the fleet plumbing that lets N
//! daemons behave as one cache.
//!
//! ## Execution model
//!
//! Accepted jobs enter a **bounded FIFO queue** (full queue → 429, the
//! backpressure contract) and are drained by a fixed pool of worker
//! threads. The queue holds *(job, cell)* pairs — one entry for
//! `/v1/solve`, one entry **per cell** of a `/v1/sweep` — so a wide sweep
//! fans out across the whole pool instead of serialising on one worker.
//! Each cell executes on the PR-3 `Suite` engine with a fresh,
//! thread-confined BDD manager, under the job's **own** [`CancelToken`]:
//! `POST /v1/jobs/{id}/cancel` aborts exactly one job cooperatively, and a
//! server drain (Ctrl-C) fires every job token at once.
//!
//! ## Accepting and draining
//!
//! The accept loop blocks in `accept` and hands each connection to a
//! short-lived handler thread, so a request is picked up the moment it
//! arrives. One **drain watcher** thread polls the drain token every 25 ms,
//! whoever fires it: SIGINT through [`ServeOptions::cancel_token`],
//! [`Server::shutdown`], or any holder of [`Server::token`]. Once it fires,
//! the watcher cancels every per-job token (in-flight solves return
//! `CNC: cancelled`), wakes the workers, and connects once to the listener
//! itself so the blocked `accept` returns and sees the drain.
//!
//! ## The cache, and the fleet
//!
//! Results are keyed by [`langeq_core::sig::cell_signature`] — the same
//! content-addressed derivation the batch journal's resume guard uses, so
//! the server can never replay a result the batch layer would re-solve.
//! The persistent tier behind the in-memory map is a pluggable
//! [`JournalStore`]: a [`LocalFileStore`] gives the single-daemon journal
//! of PR 4, a [`SharedDirStore`] lets **many daemons share one cache
//! directory** — on a local miss the daemon calls `refresh()` and picks up
//! whatever its peers published since, before it burns CPU re-solving.
//! Fresh fair results are appended to the store together with a binary
//! LQAS **snapshot** of the solved CSF (served back via
//! `GET /v1/jobs/{id}/snapshot`).
//!
//! With `--peers`, daemons additionally build a consistent-hash [`Ring`]
//! over cell signatures: a daemon that does not own an incoming solve
//! forwards it to the owner (one hop, marked by a header so forwards are
//! never re-forwarded), concentrating each signature's solves — and cache
//! entries — on one node. Ownership is advisory: any peer error falls back
//! to solving locally.
//!
//! Identical requests racing *before* the first one finishes are coalesced
//! onto the in-flight job instead of solving twice.

use std::collections::{HashMap, VecDeque};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use langeq_core::batch::manifest::{parse_manifest, resolve_source};
use langeq_core::batch::CellOutcome;
use langeq_core::retry::{Disposition, RetryPolicy};
use langeq_core::sig::{cell_signature, fnv1a64};
use langeq_core::{
    CancelToken, CellReport, ConfigSpec, InstanceSpec, JournalStore, KernelSample, LocalFileStore,
    SharedDirStore, SolverKind, SolverLimits, SuiteEvent, SuiteOptions, SuitePlan,
};
use langeq_obs::{fmt_header, fmt_id, Counter, Gauge, Histogram, HistogramVec, Registry, SlowLog};
use langeq_report::Json;

use crate::health::{probe_loop, PeerHealth, ProbeOptions};
use crate::http::{self, CallOpts, Request, Response};
use crate::ring::Ring;

/// Header marking a request as already forwarded once: the receiving
/// daemon must answer it locally, never re-forward (single-hop routing,
/// no loops even under ring disagreement).
const FORWARD_HEADER: &str = "x-langeq-forward";

/// Fleet-wide request-correlation header: `trace[:parent]`, 16-hex span
/// ids. A daemon receiving it joins the sender's trace (its ingress span
/// parents under the sender's forward span); without it, ingress mints a
/// fresh trace id. Every peer call re-sends it, so one trace id covers
/// the whole fleet's share of a request.
const TRACE_HEADER: &str = "x-langeq-trace";

/// Configuration of one [`Server::start`] call.
pub struct ServeOptions {
    addr: String,
    jobs: usize,
    queue_cap: usize,
    max_body: usize,
    store: Option<Box<dyn JournalStore>>,
    store_dir: Option<PathBuf>,
    cache_journal: Option<PathBuf>,
    peers: Vec<String>,
    advertise: Option<String>,
    auth_token: Option<String>,
    rate_limit: Option<f64>,
    probe: ProbeOptions,
    slow_ms: Option<u64>,
    slow_log: Option<PathBuf>,
    #[cfg(feature = "fault-inject")]
    faults: Option<Arc<crate::fault::FaultPlan>>,
    token: CancelToken,
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("addr", &self.addr)
            .field("jobs", &self.jobs)
            .field("queue_cap", &self.queue_cap)
            .field("max_body", &self.max_body)
            .field("store", &self.store.as_ref().map(|s| s.describe()))
            .field("store_dir", &self.store_dir)
            .field("cache_journal", &self.cache_journal)
            .field("peers", &self.peers)
            .field("advertise", &self.advertise)
            .field("auth_token", &self.auth_token.as_ref().map(|_| "<set>"))
            .field("rate_limit", &self.rate_limit)
            .field("probe", &self.probe)
            .field("slow_ms", &self.slow_ms)
            .field("slow_log", &self.slow_log)
            .finish_non_exhaustive()
    }
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".into(),
            jobs: 0,
            queue_cap: 64,
            max_body: 1 << 20,
            store: None,
            store_dir: None,
            cache_journal: None,
            peers: Vec::new(),
            advertise: None,
            auth_token: None,
            rate_limit: None,
            probe: ProbeOptions::default(),
            slow_ms: None,
            slow_log: None,
            #[cfg(feature = "fault-inject")]
            faults: None,
            token: CancelToken::new(),
        }
    }
}

impl ServeOptions {
    /// Defaults: `127.0.0.1:7878`, all cores, queue of 64, 1 MiB bodies, no
    /// persistent store, no peers, no auth, no rate limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Listen address (`host:port`; port `0` picks an ephemeral port —
    /// read it back from [`Server::addr`]).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Worker threads (`0` = all available cores).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Queued-cell ceiling; submissions beyond it are answered 429.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Request-body byte ceiling; larger bodies are answered 413.
    pub fn max_body(mut self, bytes: usize) -> Self {
        self.max_body = bytes.max(1);
        self
    }

    /// An explicit [`JournalStore`] backing the result cache. Wins over
    /// [`Self::store_dir`] and [`Self::cache_journal`].
    pub fn store(mut self, store: impl JournalStore + 'static) -> Self {
        self.store = Some(Box::new(store));
        self
    }

    /// Backs the cache with a [`SharedDirStore`] on this directory — the
    /// fleet mode: every daemon pointed at the same directory shares one
    /// content-addressed cache.
    pub fn store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Backs the cache with a single-writer [`LocalFileStore`] on this
    /// journal file — the PR-4 behaviour, format-compatible with sweep
    /// journals.
    pub fn cache_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_journal = Some(path.into());
        self
    }

    /// The full fleet member list (every daemon gets the same list). Two or
    /// more members build a consistent-hash ring; non-owning daemons
    /// forward solves to the owner.
    pub fn peers(mut self, peers: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.peers = peers.into_iter().map(Into::into).collect();
        self
    }

    /// The address this daemon appears as in the peer list (defaults to the
    /// bound address — set it when binding `0.0.0.0` or port 0).
    pub fn advertise(mut self, addr: impl Into<String>) -> Self {
        self.advertise = Some(addr.into());
        self
    }

    /// Requires `Authorization: Bearer <token>` on every POST (401
    /// otherwise). Forwarded peer calls carry the same token, so one shared
    /// secret covers the whole fleet.
    pub fn auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }

    /// Per-client (per source IP) submission rate limit in requests per
    /// second, enforced with a token bucket on `/v1/solve` and `/v1/sweep`;
    /// over-limit clients get 429 with a `Retry-After` header. Forwarded
    /// peer traffic is exempt.
    pub fn rate_limit(mut self, per_second: f64) -> Self {
        self.rate_limit = Some(per_second.max(0.01));
        self
    }

    /// Interval between peer health-probe rounds in fleet mode (jittered
    /// ±25% so a fleet never probes in lockstep). Default 1 s.
    pub fn probe_interval(mut self, interval: Duration) -> Self {
        self.probe.interval = interval.max(Duration::from_millis(10));
        self
    }

    /// Consecutive failed probes before a peer is marked down (and its
    /// keys fail over). Default 3.
    pub fn fail_threshold(mut self, probes: u32) -> Self {
        self.probe.fail_threshold = probes.max(1);
        self
    }

    /// Arms the slow-solve log: every cell whose solve takes at least this
    /// many milliseconds appends one structured JSONL record (trace id,
    /// signature, duration, per-phase breakdown) to the slow log.
    pub fn slow_ms(mut self, ms: u64) -> Self {
        self.slow_ms = Some(ms);
        self
    }

    /// The slow-log file path (default `langeq-slow.jsonl` in the working
    /// directory). The log rotates to `<path>.1` once it outgrows 1 MiB,
    /// so a long-lived daemon never grows it unboundedly.
    pub fn slow_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.slow_log = Some(path.into());
        self
    }

    /// Attaches a scripted [`crate::fault::FaultPlan`] to the daemon: its
    /// armed solve faults fire inside the worker loop (test-only).
    #[cfg(feature = "fault-inject")]
    pub fn fault_plan(mut self, plan: Arc<crate::fault::FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The drain token (`langeq serve` passes its SIGINT token). Within
    /// 25 ms of it firing, the drain watcher cancels every in-flight solve
    /// cooperatively and wakes the accept loop, and [`Server::wait`]
    /// returns once every thread has drained.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.token = token;
        self
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }
}

/// One queued cell's work, taken by the worker that runs it. Boxed: a job
/// sits in the table for its whole lifetime, and the specs embed whole
/// networks. The signature is computed at submission so workers never
/// re-serialize the network.
struct CellWork {
    instance: InstanceSpec,
    config: ConfigSpec,
    sig: String,
    /// The submitting request's trace id (0 = untraced) and the ingress
    /// span to parent the worker's solve span under.
    trace: u64,
    parent: u64,
    /// When the cell entered the queue — the queue-wait histogram measures
    /// from here to the worker pop.
    enqueued: Instant,
}

/// One submitted job.
struct Job {
    kind: &'static str,
    state: JobState,
    /// Answered entirely from the cache at submission time.
    cached: bool,
    /// Per-job cancellation: `POST /v1/jobs/{id}/cancel` fires it, and the
    /// drain watcher fires every job's token. The cells execute under this
    /// token, so one job can be cancelled without touching its neighbours.
    token: CancelToken,
    /// True once the cancel endpoint hit this job (for status bodies).
    cancel_requested: bool,
    /// Per-cell work, indexed like `reports`; `None` once a worker took it.
    pending: Vec<Option<Box<CellWork>>>,
    /// Solve jobs: the cache key, for coalescing and snapshot lookup.
    sig: Option<String>,
    cells: usize,
    cells_done: usize,
    /// Latest kernel snapshot of a currently running cell.
    sample: Option<KernelSample>,
    /// Finished cells, in cell order (workers may finish out of order).
    reports: Vec<Option<CellReport>>,
    /// Solve jobs: LQAS snapshot of the freshly solved CSF, for
    /// `GET /v1/jobs/{id}/snapshot`.
    snapshot: Option<Arc<Vec<u8>>>,
    /// The trace id minted (or adopted) at submission; 0 means untraced.
    /// Status bodies echo it so clients can fetch `/v1/trace/{id}`.
    trace: u64,
}

/// Done-job retention ceiling: once the table outgrows this, the oldest
/// finished jobs are evicted (polling an evicted id answers 404). Queued
/// and running jobs are never evicted.
const MAX_RETAINED_JOBS: usize = 4096;

/// Mutable server state under one lock (job table, queue, cache, store).
struct State {
    next_id: u64,
    jobs: HashMap<u64, Job>,
    queue: VecDeque<(u64, usize)>,
    /// sig → job id of a queued/running solve with that signature.
    inflight: HashMap<String, u64>,
    cache: HashMap<String, CellReport>,
    store: Option<Box<dyn JournalStore>>,
}

impl State {
    /// Evicts the oldest done jobs once the table outgrows
    /// [`MAX_RETAINED_JOBS`] — the memory bound of a long-running daemon.
    fn prune_done_jobs(&mut self) {
        if self.jobs.len() <= MAX_RETAINED_JOBS {
            return;
        }
        let mut done: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.state == JobState::Done)
            .map(|(&id, _)| id)
            .collect();
        done.sort_unstable();
        let excess = self.jobs.len() - MAX_RETAINED_JOBS * 3 / 4;
        for id in done.into_iter().take(excess) {
            self.jobs.remove(&id);
        }
    }

    /// Fallible core of [`Self::refresh_cache`]: pulls records other
    /// writers appended to the shared store since the last look into the
    /// in-memory cache, retrying transient I/O briefly (a racing writer
    /// mid-append is gone within milliseconds). Returns how many records
    /// arrived; the readiness probe uses the error to report the store
    /// unreachable. A [`LocalFileStore`] (single writer) always returns 0.
    fn try_refresh_cache(&mut self) -> std::io::Result<usize> {
        let Some(store) = self.store.as_mut() else {
            return Ok(0);
        };
        let records = RetryPolicy::new(3, Duration::from_millis(20))
            .run(|_| Disposition::Retry, |_| store.refresh())?;
        let mut fresh = 0;
        for report in records {
            if !report.sig.is_empty() {
                self.cache.insert(report.sig.clone(), report);
                fresh += 1;
            }
        }
        Ok(fresh)
    }

    /// [`Self::try_refresh_cache`], with errors logged and swallowed — the
    /// "did a peer already solve this?" probe on a local miss; an
    /// unreachable store degrades to a miss, never an outage.
    fn refresh_cache(&mut self) -> usize {
        match self.try_refresh_cache() {
            Ok(fresh) => fresh,
            Err(e) => {
                eprintln!("[serve] store refresh failed: {e}");
                0
            }
        }
    }
}

/// The service's metric surface: counters, scrape-time gauges, and latency
/// histograms, registered in one [`Registry`] that `/metrics` renders as
/// Prometheus text exposition. Counters are bumped at the event sites;
/// gauges are set from live state at scrape time.
struct Metrics {
    registry: Registry,
    requests: Counter,
    accepted: Counter,
    rejected_full: Counter,
    bad_requests: Counter,
    jobs_done: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    coalesced: Counter,
    jobs_cancelled: Counter,
    kernel_cache_lookups: Counter,
    kernel_cache_hits: Counter,
    /// Computed-cache entries overwritten on collision across fresh
    /// solves (see `BddStats::cache_evictions`).
    task_cache_evictions: Counter,
    /// Solves this daemon routed to their ring owner.
    forwards: Counter,
    /// Local misses answered by the fleet: a store refresh or a peer
    /// lookup supplied the result another daemon solved.
    remote_cache_hits: Counter,
    /// Bytes served by the snapshot endpoint.
    snapshot_bytes: Counter,
    /// Peer calls that failed (transport error or 5xx) and fell back.
    peer_errors: Counter,
    /// Extra peer-call attempts after a retryable failure.
    peer_retries: Counter,
    /// Solver panics contained by the worker loop (the job is marked
    /// failed; the worker survives).
    worker_panics: Counter,
    /// POSTs rejected 401.
    auth_failures: Counter,
    /// Submissions rejected 429 by the per-client rate limit.
    rate_limited: Counter,
    // Scrape-time gauges, set by `metrics_text` before rendering.
    gauge_workers: Gauge,
    gauge_live_workers: Gauge,
    gauge_fleet_peers: Gauge,
    gauge_fleet_peers_up: Gauge,
    gauge_jobs_queued: Gauge,
    gauge_jobs_running: Gauge,
    gauge_jobs_done: Gauge,
    gauge_cache_entries: Gauge,
    /// End-to-end request latency by (bounded-cardinality) endpoint.
    request_duration: Arc<HistogramVec>,
    /// Solve latency by flow (`partitioned`/`monolithic`), fresh solves
    /// only — cache answers are measured by `request_duration`.
    solve_duration: Arc<HistogramVec>,
    /// Per-phase solver time (`compile`, `fixpoint`, `extract`, …) from
    /// the spans traced solves record.
    solver_phase: Arc<HistogramVec>,
    /// Time a cell spent queued before a worker picked it up.
    queue_wait: Arc<Histogram>,
}

impl Metrics {
    /// Registers the whole surface; registration order is exposition order.
    fn new() -> Metrics {
        // Library layers (the image engine) register in the process-wide
        // registry that `/metrics` appends; force those families to exist
        // from boot so the first scrape sees them with zero observations.
        langeq_image::register_metrics();
        let r = Registry::new();
        Metrics {
            gauge_workers: r.gauge("langeq_workers", "Configured worker threads."),
            gauge_live_workers: r.gauge("langeq_live_workers", "Worker threads currently alive."),
            gauge_fleet_peers: r.gauge("langeq_fleet_peers", "Ring members configured."),
            gauge_fleet_peers_up: r.gauge(
                "langeq_fleet_peers_up",
                "Ring members this daemon currently believes up (self included).",
            ),
            gauge_jobs_queued: r.gauge("langeq_jobs_queued", "Cells waiting in the queue."),
            gauge_jobs_running: r.gauge("langeq_jobs_running", "Jobs currently executing."),
            gauge_jobs_done: r.gauge("langeq_jobs_done", "Finished jobs retained in the table."),
            requests: r.counter("langeq_requests_total", "HTTP requests received."),
            accepted: r.counter("langeq_jobs_accepted_total", "Jobs admitted to the queue."),
            rejected_full: r.counter(
                "langeq_rejected_full_total",
                "Submissions rejected 429 because the queue was full.",
            ),
            bad_requests: r.counter("langeq_bad_requests_total", "Requests rejected 4xx."),
            jobs_done: r.counter("langeq_jobs_done_total", "Jobs finished."),
            gauge_cache_entries: r.gauge("langeq_cache_entries", "In-memory result cache size."),
            cache_hits: r.counter("langeq_cache_hits_total", "Solves answered from the cache."),
            cache_misses: r.counter(
                "langeq_cache_misses_total",
                "Solves that missed every cache tier and ran the engine.",
            ),
            coalesced: r.counter(
                "langeq_coalesced_total",
                "Submissions coalesced onto an identical in-flight job.",
            ),
            jobs_cancelled: r.counter("langeq_jobs_cancelled_total", "Jobs cancelled by request."),
            kernel_cache_lookups: r.counter(
                "langeq_kernel_cache_lookups_total",
                "BDD kernel computed-cache lookups across fresh solves.",
            ),
            kernel_cache_hits: r.counter(
                "langeq_kernel_cache_hits_total",
                "BDD kernel computed-cache hits across fresh solves.",
            ),
            task_cache_evictions: r.counter(
                "langeq_task_cache_evictions_total",
                "BDD kernel computed-cache entries overwritten on collision.",
            ),
            forwards: r.counter(
                "langeq_forwards_total",
                "Solves this daemon routed to their ring owner.",
            ),
            remote_cache_hits: r.counter(
                "langeq_remote_cache_hits_total",
                "Local misses answered by another fleet member's result.",
            ),
            snapshot_bytes: r.counter(
                "langeq_snapshot_bytes_total",
                "Bytes served by the snapshot endpoint.",
            ),
            peer_errors: r.counter(
                "langeq_peer_errors_total",
                "Peer calls that failed and fell back.",
            ),
            peer_retries: r.counter(
                "langeq_peer_retries_total",
                "Extra peer-call attempts after a retryable failure.",
            ),
            worker_panics: r.counter(
                "langeq_worker_panics_total",
                "Solver panics contained by the worker loop.",
            ),
            auth_failures: r.counter("langeq_auth_failures_total", "POSTs rejected 401."),
            rate_limited: r.counter(
                "langeq_rate_limited_total",
                "Submissions rejected 429 by the per-client rate limit.",
            ),
            request_duration: r.histogram_vec(
                "langeq_request_duration_seconds",
                "End-to-end request latency by endpoint.",
                Some("endpoint"),
            ),
            solve_duration: r.histogram_vec(
                "langeq_solve_duration_seconds",
                "Fresh-solve latency by flow.",
                Some("flow"),
            ),
            solver_phase: r.histogram_vec(
                "langeq_solver_phase_seconds",
                "Per-phase solver time from traced solves.",
                Some("phase"),
            ),
            queue_wait: r.histogram(
                "langeq_queue_wait_seconds",
                "Time a cell waited in the queue before a worker took it.",
            ),
            registry: r,
        }
    }

    fn bump(&self, counter: &Counter) {
        counter.inc();
    }
}

/// Per-client token bucket (keyed by source IP).
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Concurrent-connection ceiling: each connection pins one short-lived
/// handler thread (for at most the 10 s socket timeouts), so this bounds
/// the daemon's thread count independently of the job queue.
const MAX_CONNECTIONS: u64 = 256;

struct Shared {
    token: CancelToken,
    queue_cap: usize,
    max_body: usize,
    workers: usize,
    state: Mutex<State>,
    work: Condvar,
    metrics: Metrics,
    /// Live connection-handler threads (bounded by [`MAX_CONNECTIONS`]).
    connections: AtomicU64,
    /// Ownership ring, when `--peers` configured a fleet.
    ring: Option<Ring>,
    /// The prober's live up/down view over the ring members (fleet only).
    health: Option<Arc<PeerHealth>>,
    /// Worker threads currently alive: 0 means the pool is wedged and the
    /// daemon must answer `/readyz` with 503.
    live_workers: AtomicU64,
    #[cfg(feature = "fault-inject")]
    faults: Option<Arc<crate::fault::FaultPlan>>,
    /// This daemon's address in the peer list.
    advertise: String,
    auth_token: Option<String>,
    rate_limit: Option<f64>,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
    /// Slow-solve logging, when armed: threshold in milliseconds and the
    /// rotating JSONL sink.
    slow: Option<(u64, SlowLog)>,
}

/// A running service instance. Dropping without [`Server::shutdown`]
/// detaches its threads: they keep serving until the drain token fires
/// elsewhere, and then the drain watcher winds them down. The CLI keeps the
/// server alive for its whole lifetime, tests call `shutdown`.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Cache entries loaded from the store at startup (for banners).
    warm_entries: usize,
}

impl Server {
    /// Binds, opens the store and warms the cache from it, builds the peer
    /// ring, and spawns the accept loop, the drain watcher and the worker
    /// pool.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        #[cfg(feature = "fault-inject")]
        let faults = opts.faults.clone();
        let ServeOptions {
            addr,
            jobs,
            queue_cap,
            max_body,
            store,
            store_dir,
            cache_journal,
            peers,
            advertise,
            auth_token,
            rate_limit,
            probe,
            slow_ms,
            slow_log,
            token,
            ..
        } = opts;
        let listener = TcpListener::bind(&addr)?;
        let addr = listener.local_addr()?;

        let mut store: Option<Box<dyn JournalStore>> = match (store, store_dir, cache_journal) {
            (Some(store), _, _) => Some(store),
            (None, Some(dir), _) => Some(Box::new(SharedDirStore::open(dir)?)),
            (None, None, Some(path)) => Some(Box::new(LocalFileStore::new(path))),
            (None, None, None) => None,
        };
        let mut cache = HashMap::new();
        if let Some(store) = store.as_mut() {
            for report in store.load()? {
                if !report.sig.is_empty() {
                    // File-order-last wins, like batch resume.
                    cache.insert(report.sig.clone(), report);
                }
            }
        }
        let warm_entries = cache.len();

        let advertise = advertise.unwrap_or_else(|| addr.to_string());
        let ring = if peers.is_empty() {
            None
        } else {
            Some(Ring::new(&peers, &advertise))
        };
        // The liveness view indexes the ring's (sorted, deduped) member
        // list; the prober thread below keeps it current.
        let health = ring
            .as_ref()
            .map(|r| Arc::new(PeerHealth::new(r.members(), r.own_index())));

        let workers = match jobs {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        let shared = Arc::new(Shared {
            token,
            queue_cap,
            max_body,
            workers,
            state: Mutex::new(State {
                next_id: 1,
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                cache,
                store,
            }),
            work: Condvar::new(),
            metrics: Metrics::new(),
            connections: AtomicU64::new(0),
            ring,
            health: health.clone(),
            live_workers: AtomicU64::new(0),
            #[cfg(feature = "fault-inject")]
            faults,
            advertise,
            auth_token,
            rate_limit,
            buckets: Mutex::new(HashMap::new()),
            slow: slow_ms.map(|ms| {
                let path = slow_log.unwrap_or_else(|| PathBuf::from("langeq-slow.jsonl"));
                (ms, SlowLog::new(path, 1 << 20))
            }),
        });

        let mut threads = Vec::new();
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            // Counted live from spawn, not from its first scheduling, so
            // `/readyz` is ready as soon as `start` returns.
            shared.live_workers.fetch_add(1, Ordering::Relaxed);
            threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(&shared, listener)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || drain_watcher(&shared, addr)));
        }
        if let Some(health) = health {
            // Seed the probe jitter from the advertised address so every
            // fleet member walks a different (but reproducible) schedule.
            let token = shared.token.clone();
            let seed = fnv1a64(shared.advertise.as_bytes());
            threads.push(std::thread::spawn(move || {
                probe_loop(health, token, probe, seed);
            }));
        }
        Ok(Server {
            shared,
            addr,
            threads,
            warm_entries,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Cache entries loaded from the store at startup.
    pub fn warm_cache_entries(&self) -> usize {
        self.warm_entries
    }

    /// A clone of the drain token.
    pub fn token(&self) -> CancelToken {
        self.shared.token.clone()
    }

    /// Blocks until the token is cancelled and every thread has drained.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Cancels the token and waits for the drain the watcher then runs:
    /// in-flight solves return `CNC: cancelled` cooperatively, queued jobs
    /// finish as cancelled without being attempted, the accept loop stops.
    pub fn shutdown(self) {
        self.shared.token.cancel();
        self.wait();
    }
}

/// Locks a mutex tolerating poison. With the worker panic firewall, a
/// poisoned lock only means a contained panic released it mid-update of
/// its *own* job entry — the shared maps stay structurally sound, and
/// refusing to serve would turn one contained panic into a daemon outage.
fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The accept loop: blocking accepts, one short-lived handler thread per
/// connection. The drain token is checked after every return of `accept`;
/// the drain watcher's self-connect makes sure one comes once it fires.
fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.token.is_cancelled() {
            return;
        }
        match accepted {
            Ok((mut stream, _)) => {
                // Shed load once the handler-thread budget is spent — the
                // job queue bounds accepted *work*, this bounds *threads*.
                if shared.connections.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
                    let _ = Response::error(503, "too many connections").write_to(&mut stream);
                    continue;
                }
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    /// Decrements on every exit path of the handler.
                    struct Guard<'a>(&'a AtomicU64);
                    impl Drop for Guard<'_> {
                        fn drop(&mut self) {
                            self.0.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                    let _guard = Guard(&shared.connections);
                    handle_connection(&shared, stream);
                });
            }
            // Back off on accept errors (EMFILE and the like), so running
            // out of file descriptors cannot make the loop spin.
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// The drain watcher (module docs): once the drain token fires, it fires
/// every per-job token, so in-flight solves abort and queued jobs start
/// pre-cancelled, wakes the workers, and wakes the accept loop.
fn drain_watcher(shared: &Arc<Shared>, addr: SocketAddr) {
    while !shared.token.is_cancelled() {
        std::thread::sleep(Duration::from_millis(25));
    }
    {
        let state = lock_ok(&shared.state);
        for job in state.jobs.values() {
            job.token.cancel();
        }
    }
    shared.work.notify_all();
    // A listener bound to the unspecified address is reached on loopback.
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
}

/// One connection = one request = one response.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let peer = stream.peer_addr().ok().map(|a| a.ip());
    shared.metrics.bump(&shared.metrics.requests);
    let response = match http::read_request(&mut stream, shared.max_body) {
        Ok(request) => {
            let t0 = Instant::now();
            let response = route(shared, &request, peer);
            shared
                .metrics
                .request_duration
                .with(endpoint_label(&request.path))
                .observe(t0.elapsed());
            response
        }
        Err(http::HttpError::TooLarge(n)) => {
            shared.metrics.bump(&shared.metrics.bad_requests);
            Response::error(
                413,
                &format!(
                    "body of {n} bytes exceeds the {} byte limit",
                    shared.max_body
                ),
            )
        }
        Err(http::HttpError::Malformed(m)) => {
            shared.metrics.bump(&shared.metrics.bad_requests);
            Response::error(400, &m)
        }
        Err(http::HttpError::Io(_)) => return, // client gone; nobody to answer
    };
    let _ = response.write_to(&mut stream);
}

/// Routes one request to its handler.
fn route(shared: &Arc<Shared>, request: &Request, peer: Option<IpAddr>) -> Response {
    // Every mutating endpoint sits behind the bearer check; reads stay
    // open (metrics scrapers, load balancer probes).
    if request.method == "POST" {
        if let Some(denied) = check_auth(shared, request) {
            return denied;
        }
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(
            200,
            &Json::obj()
                .set("ok", true)
                .set("workers", shared.workers)
                .set("draining", shared.token.is_cancelled())
                .set("advertise", shared.advertise.as_str())
                .set(
                    "peers",
                    shared.ring.as_ref().map(Ring::len).unwrap_or_default(),
                )
                .set("peers_up", fleet_peers_up(shared)),
        ),
        ("GET", "/readyz") => readyz(shared),
        ("GET", "/v1/ring") => ring_endpoint(shared),
        ("GET", "/metrics") => Response::prometheus(200, metrics_text(shared)),
        ("GET", path) if path.starts_with("/v1/trace/") => trace_endpoint(shared, request, path),
        ("POST", "/v1/solve") => submit_solve(shared, request, peer),
        ("POST", "/v1/lookup") => lookup_endpoint(shared, request),
        ("POST", "/v1/sweep") => submit_sweep(shared, request, peer),
        ("POST", path) if path.starts_with("/v1/jobs/") && path.ends_with("/cancel") => {
            cancel_endpoint(shared, path)
        }
        ("GET", path) if path.starts_with("/v1/jobs/") && path.ends_with("/snapshot") => {
            snapshot_endpoint(shared, path)
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => job_endpoint(shared, path),
        ("GET", _) | ("POST", _) => Response::error(404, "no such endpoint"),
        _ => Response::error(405, "only GET and POST are served"),
    }
}

/// Ring members this daemon currently believes up (self included); the
/// full ring size when no fleet is configured or the prober has no view.
fn fleet_peers_up(shared: &Arc<Shared>) -> usize {
    shared
        .health
        .as_ref()
        .map(|h| h.up_count())
        .or_else(|| shared.ring.as_ref().map(Ring::len))
        .unwrap_or_default()
}

/// Is ring member `index` currently believed up? Everyone is, without a
/// prober view — the liveness predicate ownership routing runs under.
fn member_is_up(shared: &Shared, index: usize) -> bool {
    match shared.health.as_ref() {
        Some(health) => health.is_up(index),
        None => true,
    }
}

/// `GET /readyz`: can this daemon *accept* work right now? 503 while
/// draining, when the queue is full, when the store errors, or when no
/// worker thread is alive — a load balancer steers around a not-ready
/// member while `/healthz` (pure liveness) stays green.
fn readyz(shared: &Arc<Shared>) -> Response {
    let draining = shared.token.is_cancelled();
    let live_workers = shared.live_workers.load(Ordering::Relaxed) as usize;
    let (queue_depth, store_ok) = {
        let mut state = lock_ok(&shared.state);
        let store_ok = state.try_refresh_cache().is_ok();
        (state.queue.len(), store_ok)
    };
    let ready = !draining && store_ok && live_workers > 0 && queue_depth < shared.queue_cap;
    Response::json(
        if ready { 200 } else { 503 },
        &Json::obj()
            .set("ready", ready)
            .set("draining", draining)
            .set("queue_depth", queue_depth)
            .set("queue_cap", shared.queue_cap)
            .set("store_ok", store_ok)
            .set("live_workers", live_workers),
    )
}

/// `GET /v1/ring`: the fleet debug view — every ring member with this
/// daemon's current up/down verdict on it.
fn ring_endpoint(shared: &Arc<Shared>) -> Response {
    let Some(health) = shared.health.as_ref() else {
        return Response::error(404, "no ring configured (start with --peers)");
    };
    let members: Vec<Json> = health
        .snapshot()
        .into_iter()
        .map(|(addr, up, own)| Json::obj().set("addr", addr).set("up", up).set("self", own))
        .collect();
    Response::json(
        200,
        &Json::obj()
            .set("advertise", shared.advertise.as_str())
            .set("peers", members.len())
            .set("peers_up", health.up_count())
            .set("members", members),
    )
}

/// The bounded-cardinality `endpoint` label of a request path: job and
/// trace ids collapse onto their endpoint prefix, unknown paths onto
/// `other` — so the request-duration histogram family stays small no
/// matter what clients ask for.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        "/metrics" => "/metrics",
        "/v1/ring" => "/v1/ring",
        "/v1/solve" => "/v1/solve",
        "/v1/lookup" => "/v1/lookup",
        "/v1/sweep" => "/v1/sweep",
        p if p.starts_with("/v1/trace/") => "/v1/trace",
        p if p.starts_with("/v1/jobs/") => "/v1/jobs",
        _ => "other",
    }
}

/// `GET /v1/trace/{id}`: every span this daemon recorded for a trace,
/// merged — unless the request is itself a peer relay — with the spans of
/// every live ring member into one parent-linked tree. Span ids are unique
/// per process and parent links cross daemons (the forward span id rides
/// the trace header), so the merged tree shows one request flowing through
/// the whole fleet.
fn trace_endpoint(shared: &Arc<Shared>, request: &Request, path: &str) -> Response {
    let id_text = &path["/v1/trace/".len()..];
    let Some(trace) = langeq_obs::parse_id(id_text) else {
        return Response::error(
            400,
            &format!("bad trace id `{id_text}` (want 16 hex digits)"),
        );
    };
    let local: Vec<Json> = langeq_obs::collect(trace)
        .iter()
        .map(langeq_obs::SpanRecord::to_json)
        .collect();
    let mut members = vec![Json::obj()
        .set("addr", shared.advertise.as_str())
        .set("spans", local.len())];
    let mut flat = local;
    // The relay guard keeps the fan-out single-hop: a peer answering our
    // trace read reports only its own spans, never re-asks the fleet.
    if request.header(FORWARD_HEADER).is_none() {
        if let Some(health) = shared.health.as_ref() {
            for (addr, up, own) in health.snapshot() {
                if own || !up {
                    continue;
                }
                match peer_trace(shared, addr, trace) {
                    Ok(spans) => {
                        members.push(Json::obj().set("addr", addr).set("spans", spans.len()));
                        flat.extend(spans);
                    }
                    Err(()) => shared.metrics.bump(&shared.metrics.peer_errors),
                }
            }
        }
    }
    // Span ids are unique per process but a peer may answer spans this
    // daemon also holds (e.g. co-located daemons in tests): first
    // occurrence wins.
    let mut seen = std::collections::HashSet::new();
    flat.retain(|r| {
        seen.insert(
            r.get("id")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        )
    });
    // Start timestamps are process-local monotonic values — comparable
    // within one member, not across them. Sorting by them still gives a
    // stable, locally-ordered listing; the *structure* comes from the
    // parent links alone.
    flat.sort_by_key(|r| r.get("start_ns").and_then(Json::as_u64).unwrap_or(0));
    let tree = langeq_obs::span_tree_json(&flat);
    Response::json(
        200,
        &Json::obj()
            .set("trace", fmt_id(trace))
            .set("members", members)
            .set("spans", flat)
            .set("tree", tree),
    )
}

/// Fetches one peer's own span list for a trace (relay-guarded so the peer
/// answers locally). Transport failures surface as `Err(())` — the merged
/// view degrades to the members that answered.
fn peer_trace(shared: &Arc<Shared>, peer: &str, trace: u64) -> Result<Vec<Json>, ()> {
    let auth = shared.auth_token.as_ref().map(|t| format!("Bearer {t}"));
    let path = format!("/v1/trace/{}", fmt_id(trace));
    let policy = RetryPolicy::new(2, Duration::from_millis(50))
        .budget(Duration::from_millis(500))
        .jitter_seed(fnv1a64(shared.advertise.as_bytes()));
    let (status, raw) = policy
        .run(
            |e| peer_disposition(shared, e),
            |_| {
                let (status, _, raw) = http::call_full(
                    peer,
                    "GET",
                    &path,
                    "application/json",
                    b"",
                    &peer_headers(&auth, &None),
                    CallOpts::peer(Duration::from_secs(2)),
                )
                .map_err(PeerError::Io)?;
                Ok((status, raw))
            },
        )
        .map_err(|_| ())?;
    if status != 200 {
        return Err(());
    }
    let spans = String::from_utf8(raw)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .as_ref()
        .and_then(|j| j.get("spans"))
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default();
    Ok(spans)
}

/// 401 unless the request carries the configured bearer token (no token
/// configured → open server, no check).
fn check_auth(shared: &Arc<Shared>, request: &Request) -> Option<Response> {
    let token = shared.auth_token.as_deref()?;
    let expect = format!("Bearer {token}");
    if request.header("authorization") == Some(expect.as_str()) {
        return None;
    }
    shared.metrics.bump(&shared.metrics.auth_failures);
    Some(Response::error(
        401,
        "missing or bad bearer token (Authorization: Bearer ...)",
    ))
}

/// Token-bucket admission for one client IP: `Some(429)` when the client
/// is over its submission rate. Refill is continuous; the burst allowance
/// is one second's worth of tokens (at least one).
fn check_rate(shared: &Arc<Shared>, peer: Option<IpAddr>) -> Option<Response> {
    let rate = shared.rate_limit?;
    let ip = peer?;
    let cap = rate.max(1.0);
    let mut buckets = lock_ok(&shared.buckets);
    let now = Instant::now();
    if buckets.len() >= 4096 {
        // A full bucket is indistinguishable from a fresh one — drop any
        // bucket old enough to have refilled completely.
        buckets.retain(|_, b| now.duration_since(b.last).as_secs_f64() * rate < cap);
    }
    let bucket = buckets.entry(ip).or_insert(Bucket {
        tokens: cap,
        last: now,
    });
    let dt = now.duration_since(bucket.last).as_secs_f64();
    bucket.last = now;
    bucket.tokens = (bucket.tokens + dt * rate).min(cap);
    if bucket.tokens >= 1.0 {
        bucket.tokens -= 1.0;
        return None;
    }
    let wait = ((1.0 - bucket.tokens) / rate).ceil().max(1.0) as u64;
    drop(buckets);
    shared.metrics.bump(&shared.metrics.rate_limited);
    Some(
        Response::error(429, "client submission rate limit exceeded")
            .header("Retry-After", wait.to_string()),
    )
}

/// `GET /v1/jobs/{id}` and `GET /v1/jobs/{id}/result`.
fn job_endpoint(shared: &Arc<Shared>, path: &str) -> Response {
    let rest = &path["/v1/jobs/".len()..];
    let (id_text, want_result) = match rest.strip_suffix("/result") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, &format!("bad job id `{id_text}`"));
    };
    let state = lock_ok(&shared.state);
    let Some(job) = state.jobs.get(&id) else {
        return Response::error(404, &format!("no job {id}"));
    };
    if !want_result {
        return Response::json(200, &status_json(id, job));
    }
    if job.state != JobState::Done {
        // Not ready: the status body tells the client what to poll.
        return Response::json(202, &status_json(id, job));
    }
    let cells: Vec<Json> = job
        .reports
        .iter()
        .flatten()
        .map(CellReport::to_json)
        .collect();
    Response::json(
        200,
        &Json::obj()
            .set("job", id)
            .set("kind", job.kind)
            .set("cached", job.cached)
            .set("cells", cells),
    )
}

/// `GET /v1/jobs/{id}/snapshot`: the solved CSF as a binary LQAS blob —
/// from the job (fresh solve) or the store's blob tier (cached answer).
fn snapshot_endpoint(shared: &Arc<Shared>, path: &str) -> Response {
    let rest = &path["/v1/jobs/".len()..];
    let id_text = rest.strip_suffix("/snapshot").unwrap_or(rest);
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, &format!("bad job id `{id_text}`"));
    };
    let mut state = lock_ok(&shared.state);
    let (job_state, snapshot, sig) = match state.jobs.get(&id) {
        None => return Response::error(404, &format!("no job {id}")),
        Some(job) => (job.state, job.snapshot.clone(), job.sig.clone()),
    };
    if job_state != JobState::Done {
        return Response::json(
            202,
            &Json::obj().set("job", id).set("state", job_state.as_str()),
        );
    }
    if let Some(bytes) = snapshot {
        shared.metrics.snapshot_bytes.add(bytes.len() as u64);
        return Response::octets(200, bytes.as_ref().clone());
    }
    // Cache answers carry no in-memory snapshot; the blob tier has one if
    // any fleet member solved this signature freshly and fairly.
    if let Some(sig) = sig {
        if let Some(store) = state.store.as_mut() {
            match store.get_blob(&sig) {
                Ok(Some(bytes)) => {
                    shared.metrics.snapshot_bytes.add(bytes.len() as u64);
                    return Response::octets(200, bytes);
                }
                Ok(None) => {}
                Err(e) => eprintln!("[serve] snapshot blob read failed: {e}"),
            }
        }
    }
    Response::error(
        404,
        "no snapshot for this job (sweeps and unfair results have none)",
    )
}

/// `POST /v1/jobs/{id}/cancel`: fires the job's own [`CancelToken`]. A
/// queued job drains as `cancelled` without being attempted; a running job
/// aborts cooperatively (the engine returns `CNC: cancelled`); a done job
/// is left untouched (the call is idempotent and reports the state).
fn cancel_endpoint(shared: &Arc<Shared>, path: &str) -> Response {
    let rest = &path["/v1/jobs/".len()..];
    let id_text = rest.strip_suffix("/cancel").unwrap_or(rest);
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, &format!("bad job id `{id_text}`"));
    };
    let mut state = lock_ok(&shared.state);
    let Some(job) = state.jobs.get_mut(&id) else {
        return Response::error(404, &format!("no job {id}"));
    };
    let cancelled = job.state != JobState::Done;
    if cancelled {
        job.token.cancel();
        job.cancel_requested = true;
        shared.metrics.bump(&shared.metrics.jobs_cancelled);
    }
    Response::json(
        200,
        &Json::obj()
            .set("job", id)
            .set("state", job.state.as_str())
            .set("cancelled", cancelled),
    )
}

/// `POST /v1/lookup`: `{"sig": "..."}` → the cached [`CellReport`] for a
/// signature, 404 on a miss (after consulting the shared store). This is
/// the peer-to-peer cache probe — cheap, never solves.
fn lookup_endpoint(shared: &Arc<Shared>, request: &Request) -> Response {
    let body = match request.body_text() {
        Ok(text) => text,
        Err(e) => {
            shared.metrics.bump(&shared.metrics.bad_requests);
            return Response::error(400, &e.to_string());
        }
    };
    let Some(sig) = Json::parse(body)
        .ok()
        .as_ref()
        .and_then(|j| j.get("sig"))
        .and_then(Json::as_str)
        .map(str::to_string)
    else {
        shared.metrics.bump(&shared.metrics.bad_requests);
        return Response::error(400, "body needs a `sig` string field");
    };
    let mut state = lock_ok(&shared.state);
    let mut hit = state.cache.get(&sig).cloned();
    if hit.is_none() && state.refresh_cache() > 0 {
        hit = state.cache.get(&sig).cloned();
    }
    match hit {
        Some(report) => Response::json(
            200,
            &Json::obj().set("sig", sig).set("report", report.to_json()),
        ),
        None => Response::error(404, "no cached result for that signature"),
    }
}

/// The status body of one job.
fn status_json(id: u64, job: &Job) -> Json {
    let mut body = Json::obj()
        .set("job", id)
        .set("kind", job.kind)
        .set("state", job.state.as_str())
        .set("cached", job.cached)
        .set("cancel_requested", job.cancel_requested)
        .set("cells", job.cells)
        .set("cells_done", job.cells_done);
    if job.trace != 0 {
        body = body.set("trace", fmt_id(job.trace));
    }
    if let Some(k) = &job.sample {
        body = body.set("kernel", k.to_json());
    }
    body
}

/// `POST /v1/solve`: answer from cache (local, then shared-store refresh),
/// coalesce onto an identical in-flight job, forward to the ring owner, or
/// enqueue locally — 429 when the queue is full.
fn submit_solve(shared: &Arc<Shared>, request: &Request, peer: Option<IpAddr>) -> Response {
    if shared.token.is_cancelled() {
        return Response::error(503, "draining");
    }
    let forwarded = request.header(FORWARD_HEADER).is_some();
    if !forwarded {
        if let Some(denied) = check_rate(shared, peer) {
            return denied;
        }
    }
    let body = match request.body_text() {
        Ok(text) => text,
        Err(e) => {
            shared.metrics.bump(&shared.metrics.bad_requests);
            return Response::error(400, &e.to_string());
        }
    };
    let (instance, config) = match parse_solve_request(body) {
        Ok(parts) => parts,
        Err(message) => {
            shared.metrics.bump(&shared.metrics.bad_requests);
            return Response::error(400, &message);
        }
    };
    let sig = cell_signature(&instance, &config);
    // Correlation: adopt the caller's trace (a forwarding peer, or any
    // client that sends the header) or mint a fresh id. The guard scopes
    // the context to this request thread; the ingress span is the local
    // root every later span of this request parents under.
    let (trace, trace_parent) = request
        .header(TRACE_HEADER)
        .and_then(langeq_obs::parse_header)
        .unwrap_or_else(|| (langeq_obs::fresh_id(), 0));
    let _trace_guard = langeq_obs::install(trace, trace_parent);
    let mut ingress = langeq_obs::span!("ingress", endpoint = "/v1/solve");
    ingress.field("instance", &instance.name);
    ingress.field("forwarded", forwarded);

    {
        let probe_span = langeq_obs::span!("cache_probe");
        let mut state = lock_ok(&shared.state);
        // Content-addressed hit: a done job materializes instantly. On a
        // local miss, one store refresh picks up what fleet peers
        // published since the last look — a hit there is a solve some
        // other daemon paid for.
        let mut hit = state.cache.get(&sig).cloned();
        if hit.is_none() && state.refresh_cache() > 0 {
            hit = state.cache.get(&sig).cloned();
            if hit.is_some() {
                shared.metrics.bump(&shared.metrics.remote_cache_hits);
            }
        }
        drop(probe_span);
        if let Some(report) = hit {
            return answer_from_cache(shared, &mut state, report, &instance, &config, sig, trace);
        }
        // The same work is already queued or running: coalesce, don't
        // re-solve. The shared job (and so its result) keeps the *first*
        // submitter's instance/config labels — one job cannot carry a name
        // per requester; the `coalesced` flag in the ack marks the
        // provenance.
        if let Some(&existing) = state.inflight.get(&sig) {
            shared.metrics.bump(&shared.metrics.coalesced);
            let job = &state.jobs[&existing];
            let mut ack = Json::obj()
                .set("job", existing)
                .set("state", job.state.as_str())
                .set("cached", false)
                .set("coalesced", true);
            if job.trace != 0 {
                // The coalesced-onto job runs under the first submitter's
                // trace — that id is where this request's solve spans are.
                ack = ack.set("trace", fmt_id(job.trace));
            }
            return Response::json(200, &ack);
        }
    }
    // Fleet routing: a daemon that does not own this signature relays the
    // request to the *live* owner (exactly one hop — the forward marker
    // stops re-forwarding); down members are skipped, so a dead owner's
    // keys fail over to the next live member clockwise. Errors fall back
    // to a local solve that still journals to the shared store (the
    // recovered owner warm-loads it): the ring is a routing optimisation,
    // never a correctness requirement.
    if !forwarded {
        if let Some(ring) = &shared.ring {
            let alive = |m: usize| member_is_up(shared, m);
            if !ring.owns_where(&sig, alive) {
                if let Some(owner) = ring.owner_where(&sig, alive).map(str::to_string) {
                    match forward_solve(shared, &owner, body) {
                        Ok(relayed) => return relayed,
                        Err(()) => shared.metrics.bump(&shared.metrics.peer_errors),
                    }
                }
            }
        }
    }
    enqueue_solve(shared, instance, config, sig, trace, ingress.id())
}

/// Builds the instant done job of a cache hit (the caller holds the lock).
fn answer_from_cache(
    shared: &Arc<Shared>,
    state: &mut State,
    mut report: CellReport,
    instance: &InstanceSpec,
    config: &ConfigSpec,
    sig: String,
    trace: u64,
) -> Response {
    report.cell = 0;
    report.resumed = true;
    // The cache key is content-addressed; the names belong to whoever is
    // asking now, not to the request that populated the entry.
    report.instance = instance.name.clone();
    report.config = config.name.clone();
    shared.metrics.bump(&shared.metrics.cache_hits);
    state.prune_done_jobs();
    let id = state.next_id;
    state.next_id += 1;
    state.jobs.insert(
        id,
        Job {
            kind: "solve",
            state: JobState::Done,
            cached: true,
            token: CancelToken::new(),
            cancel_requested: false,
            pending: Vec::new(),
            sig: Some(sig),
            cells: 1,
            cells_done: 1,
            sample: None,
            reports: vec![Some(report)],
            snapshot: None,
            trace,
        },
    );
    shared.metrics.bump(&shared.metrics.jobs_done);
    Response::json(
        200,
        &Json::obj()
            .set("job", id)
            .set("state", "done")
            .set("cached", true)
            .set("trace", fmt_id(trace)),
    )
}

/// Admits one local solve job (re-checking coalescing and the queue cap
/// under the lock — the forwarding attempt ran without it).
fn enqueue_solve(
    shared: &Arc<Shared>,
    instance: InstanceSpec,
    config: ConfigSpec,
    sig: String,
    trace: u64,
    parent: u64,
) -> Response {
    let mut state = lock_ok(&shared.state);
    if let Some(&existing) = state.inflight.get(&sig) {
        shared.metrics.bump(&shared.metrics.coalesced);
        let job = &state.jobs[&existing];
        let mut ack = Json::obj()
            .set("job", existing)
            .set("state", job.state.as_str())
            .set("cached", false)
            .set("coalesced", true);
        if job.trace != 0 {
            ack = ack.set("trace", fmt_id(job.trace));
        }
        return Response::json(200, &ack);
    }
    if state.queue.len() >= shared.queue_cap {
        shared.metrics.bump(&shared.metrics.rejected_full);
        return Response::error(429, "job queue is full, retry later");
    }
    let id = state.next_id;
    state.next_id += 1;
    state.inflight.insert(sig.clone(), id);
    state.jobs.insert(
        id,
        Job {
            kind: "solve",
            state: JobState::Queued,
            cached: false,
            token: CancelToken::new(),
            cancel_requested: false,
            pending: vec![Some(Box::new(CellWork {
                instance,
                config,
                sig: sig.clone(),
                trace,
                parent,
                enqueued: Instant::now(),
            }))],
            sig: Some(sig),
            cells: 1,
            cells_done: 0,
            sample: None,
            reports: vec![None],
            snapshot: None,
            trace,
        },
    );
    state.queue.push_back((id, 0));
    drop(state);
    shared.metrics.bump(&shared.metrics.accepted);
    shared.work.notify_one();
    Response::json(
        202,
        &Json::obj()
            .set("job", id)
            .set("state", "queued")
            .set("cached", false)
            .set("trace", fmt_id(trace)),
    )
}

/// Peer-call headers: the single-hop forward marker, the fleet's bearer
/// token when auth is on, and the caller's trace context when one is
/// installed — the receiving daemon joins the trace instead of minting.
fn peer_headers<'h>(
    auth: &'h Option<String>,
    trace: &'h Option<String>,
) -> Vec<(&'h str, &'h str)> {
    let mut headers: Vec<(&str, &str)> = vec![(FORWARD_HEADER, "1")];
    if let Some(value) = auth {
        headers.push(("authorization", value.as_str()));
    }
    if let Some(value) = trace {
        headers.push((TRACE_HEADER, value.as_str()));
    }
    headers
}

/// One peer call's failure, classified for the retry engine: transport
/// errors keep their [`std::io::Error`] kind, retry-worthy statuses (5xx,
/// 429) carry the status and any `Retry-After` hint.
enum PeerError {
    Io(std::io::Error),
    Status {
        status: u16,
        retry_after: Option<u64>,
        body: Vec<u8>,
    },
}

/// The shared classifier of every peer path: connect refusals, timeouts
/// and torn responses retry; 429 honours (a capped) `Retry-After`; other
/// statuses here are 5xx, which retry too. Counts each true retry.
fn peer_disposition(shared: &Arc<Shared>, error: &PeerError) -> Disposition {
    let disposition = match error {
        PeerError::Io(e) => http::io_disposition(e),
        PeerError::Status {
            status: 429,
            retry_after: Some(secs),
            ..
        } => Disposition::RetryAfter(Duration::from_secs(*secs).min(Duration::from_secs(2))),
        PeerError::Status { .. } => Disposition::Retry,
    };
    if !matches!(disposition, Disposition::Terminal) {
        shared.metrics.bump(&shared.metrics.peer_retries);
    }
    disposition
}

/// The policy peer forwards run under: a few quick attempts with tight
/// per-attempt deadlines, bounded overall — a dead peer must cost this
/// daemon milliseconds, never a full socket timeout per hop.
fn peer_policy(shared: &Arc<Shared>) -> RetryPolicy {
    RetryPolicy::new(3, Duration::from_millis(50))
        .budget(Duration::from_secs(2))
        .jitter_seed(fnv1a64(shared.advertise.as_bytes()))
}

/// Relays a solve body to its ring owner and returns the owner's ack with
/// an `owner` field added (clients poll the owner for the result). Runs
/// under [`peer_policy`]; an exhausted 429 is relayed (the owner's
/// backpressure is honest), `Err(())` — transport failure or a 5xx —
/// tells the caller to solve locally instead.
fn forward_solve(shared: &Arc<Shared>, owner: &str, body: &str) -> Result<Response, ()> {
    let auth = shared.auth_token.as_ref().map(|t| format!("Bearer {t}"));
    // The forward span is the cross-daemon seam: its id rides the trace
    // header, so the owner's ingress span parents under it and the merged
    // tree shows the hop.
    let span = langeq_obs::span!("forward", owner = owner);
    let trace_header = langeq_obs::current().map(|(t, _)| fmt_header(t, span.id()));
    let result = peer_policy(shared).run(
        |e| peer_disposition(shared, e),
        |_| {
            let (status, headers, raw) = http::call_full(
                owner,
                "POST",
                "/v1/solve",
                "application/json",
                body.as_bytes(),
                &peer_headers(&auth, &trace_header),
                CallOpts::peer(Duration::from_secs(10)),
            )
            .map_err(PeerError::Io)?;
            if status >= 500 || status == 429 {
                let retry_after = headers
                    .iter()
                    .find(|(name, _)| name == "retry-after")
                    .and_then(|(_, value)| value.trim().parse().ok());
                return Err(PeerError::Status {
                    status,
                    retry_after,
                    body: raw,
                });
            }
            Ok((status, raw))
        },
    );
    let (status, raw) = match result {
        Ok(answer) => answer,
        Err(PeerError::Status {
            status: 429, body, ..
        }) => (429, body),
        Err(_) => return Err(()),
    };
    let text = String::from_utf8(raw).map_err(|_| ())?;
    let json = Json::parse(&text).map_err(|_| ())?;
    shared.metrics.bump(&shared.metrics.forwards);
    if json.get("cached").and_then(Json::as_bool) == Some(true) {
        shared.metrics.bump(&shared.metrics.remote_cache_hits);
    }
    Ok(Response::json(status, &json.set("owner", owner)))
}

/// Probes the ring owner's cache for a signature (used by sweep cells,
/// which are never forwarded whole). Transport errors get one quick retry
/// — this probe is an optimisation, so the budget is small. `Ok(None)` is
/// an honest miss; `Err(())` is a peer failure.
fn peer_lookup(shared: &Arc<Shared>, owner: &str, sig: &str) -> Result<Option<CellReport>, ()> {
    let auth = shared.auth_token.as_ref().map(|t| format!("Bearer {t}"));
    let body = Json::obj().set("sig", sig).to_string();
    let span = langeq_obs::span!("peer_lookup", owner = owner);
    let trace_header = langeq_obs::current().map(|(t, _)| fmt_header(t, span.id()));
    let policy = RetryPolicy::new(2, Duration::from_millis(50))
        .budget(Duration::from_millis(500))
        .jitter_seed(fnv1a64(shared.advertise.as_bytes()));
    let (status, raw) = policy
        .run(
            |e| peer_disposition(shared, e),
            |_| {
                let (status, _, raw) = http::call_full(
                    owner,
                    "POST",
                    "/v1/lookup",
                    "application/json",
                    body.as_bytes(),
                    &peer_headers(&auth, &trace_header),
                    CallOpts::peer(Duration::from_secs(2)),
                )
                .map_err(PeerError::Io)?;
                Ok((status, raw))
            },
        )
        .map_err(|_| ())?;
    if status != 200 {
        return Ok(None);
    }
    Ok(String::from_utf8(raw)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .as_ref()
        .and_then(|j| j.get("report"))
        .and_then(CellReport::from_json))
}

/// `POST /v1/sweep`: the body is a sweep manifest (raw text, or wrapped as
/// `{"manifest": "..."}`), becoming one suite job whose cells are queued
/// individually (the whole pool works a wide sweep).
fn submit_sweep(shared: &Arc<Shared>, request: &Request, peer: Option<IpAddr>) -> Response {
    if shared.token.is_cancelled() {
        return Response::error(503, "draining");
    }
    if request.header(FORWARD_HEADER).is_none() {
        if let Some(denied) = check_rate(shared, peer) {
            return denied;
        }
    }
    let body = match request.body_text() {
        Ok(text) => text,
        Err(e) => {
            shared.metrics.bump(&shared.metrics.bad_requests);
            return Response::error(400, &e.to_string());
        }
    };
    let manifest = if body.trim_start().starts_with('{') {
        match Json::parse(body)
            .ok()
            .as_ref()
            .and_then(|j| j.get("manifest"))
            .and_then(Json::as_str)
        {
            Some(text) => text.to_string(),
            None => {
                shared.metrics.bump(&shared.metrics.bad_requests);
                return Response::error(400, "JSON body needs a `manifest` string field");
            }
        }
    } else {
        body.to_string()
    };
    // Same filesystem policy as /v1/solve: a remote client must not make
    // the daemon read (or probe for) files it names. Submitted manifests
    // are therefore restricted to gen: builtin sources — reject *before*
    // parsing, which is what would touch the filesystem.
    if let Some(offending) = manifest.lines().find_map(|raw| {
        let line = raw.split('#').next().unwrap_or("").trim();
        let mut words = line.split_whitespace();
        match (words.next(), words.next(), words.next()) {
            (Some("instance"), _, Some(source)) if !source.starts_with("gen:") => {
                Some(source.to_string())
            }
            _ => None,
        }
    }) {
        shared.metrics.bump(&shared.metrics.bad_requests);
        return Response::error(
            400,
            &format!(
                "submitted manifests may only use gen:NAME sources (got `{offending}`); \
                 inline networks one at a time via /v1/solve"
            ),
        );
    }
    let plan = match parse_manifest(&manifest, std::path::Path::new(".")) {
        Ok(plan) => plan,
        Err(e) => {
            shared.metrics.bump(&shared.metrics.bad_requests);
            return Response::error(400, &e.to_string());
        }
    };
    if plan.num_cells() == 0 {
        shared.metrics.bump(&shared.metrics.bad_requests);
        return Response::error(400, "the manifest has no cells");
    }
    if let Err(e) = plan.validate() {
        shared.metrics.bump(&shared.metrics.bad_requests);
        return Response::error(400, &e.to_string());
    }

    // Correlation: one trace covers the whole sweep — every cell's solve
    // span parents under this ingress span.
    let (trace, trace_parent) = request
        .header(TRACE_HEADER)
        .and_then(langeq_obs::parse_header)
        .unwrap_or_else(|| (langeq_obs::fresh_id(), 0));
    let _trace_guard = langeq_obs::install(trace, trace_parent);
    let ingress = langeq_obs::span!("ingress", endpoint = "/v1/sweep");
    let work: Vec<Box<CellWork>> = plan
        .cells()
        .map(|c| {
            let sig = cell_signature(c.instance, c.config);
            Box::new(CellWork {
                instance: c.instance.clone(),
                config: c.config.clone(),
                sig,
                trace,
                parent: ingress.id(),
                enqueued: Instant::now(),
            })
        })
        .collect();
    let cells = work.len();
    let mut state = lock_ok(&shared.state);
    // Admission is checked at entry only: a wide sweep may push past the
    // cap once admitted (same semantics as the single-entry queue of
    // PR 4, where one sweep occupied one slot regardless of width).
    if state.queue.len() >= shared.queue_cap {
        shared.metrics.bump(&shared.metrics.rejected_full);
        return Response::error(429, "job queue is full, retry later");
    }
    let id = state.next_id;
    state.next_id += 1;
    state.jobs.insert(
        id,
        Job {
            kind: "sweep",
            state: JobState::Queued,
            cached: false,
            token: CancelToken::new(),
            cancel_requested: false,
            pending: work.into_iter().map(Some).collect(),
            sig: None,
            cells,
            cells_done: 0,
            sample: None,
            reports: (0..cells).map(|_| None).collect(),
            snapshot: None,
            trace,
        },
    );
    for cell in 0..cells {
        state.queue.push_back((id, cell));
    }
    drop(state);
    shared.metrics.bump(&shared.metrics.accepted);
    shared.work.notify_all();
    Response::json(
        202,
        &Json::obj()
            .set("job", id)
            .set("state", "queued")
            .set("cached", false)
            .set("cells", cells)
            .set("trace", fmt_id(trace)),
    )
}

/// The `/metrics` Prometheus text exposition: gauges are set from live
/// state here, then the whole registry renders (counters and histograms
/// carry their running values).
fn metrics_text(shared: &Arc<Shared>) -> String {
    let m = &shared.metrics;
    {
        let state = lock_ok(&shared.state);
        let running = state
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .count();
        let done = state
            .jobs
            .values()
            .filter(|j| j.state == JobState::Done)
            .count();
        m.gauge_jobs_queued.set(state.queue.len() as u64);
        m.gauge_jobs_running.set(running as u64);
        m.gauge_jobs_done.set(done as u64);
        m.gauge_cache_entries.set(state.cache.len() as u64);
    }
    m.gauge_workers.set(shared.workers as u64);
    m.gauge_live_workers
        .set(shared.live_workers.load(Ordering::Relaxed));
    m.gauge_fleet_peers
        .set(shared.ring.as_ref().map(Ring::len).unwrap_or_default() as u64);
    m.gauge_fleet_peers_up.set(fleet_peers_up(shared) as u64);
    // The service registry first, then the process-wide one: library-layer
    // metrics (e.g. `langeq_image_cluster_seconds` from the image engine)
    // register globally because those layers never see this daemon's
    // registry. Families are disjoint by convention, so concatenation is a
    // valid exposition.
    let mut text = m.registry.render();
    let global = langeq_obs::registry::global().render();
    debug_assert!(
        global.contains("langeq_image_cluster_seconds"),
        "image-layer metric family missing; did boot-time registration move?"
    );
    text.push_str(&global);
    text
}

/// Parses a `POST /v1/solve` body into the instance and configuration it
/// describes. See the crate docs for the request schema.
fn parse_solve_request(body: &str) -> Result<(InstanceSpec, ConfigSpec), String> {
    let json = Json::parse(body).map_err(|e| format!("request body: {e}"))?;

    let (network, default_split) = match (
        json.get("network").and_then(Json::as_str),
        json.get("source").and_then(Json::as_str),
    ) {
        (Some(_), Some(_)) => {
            return Err(
                "give either `network` (inline text) or `source` (gen:NAME), not both".into(),
            )
        }
        (Some(text), None) => {
            let format = json
                .get("format")
                .and_then(Json::as_str)
                .map(str::to_string)
                // Sniff: every BLIF construct starts with a dot directive.
                .unwrap_or_else(|| {
                    if text.trim_start().starts_with('.') {
                        "blif".into()
                    } else {
                        "bench".into()
                    }
                });
            let network = match format.as_str() {
                "bench" => {
                    langeq_logic::bench_fmt::parse(text).map_err(|e| format!("network: {e}"))?
                }
                "blif" => langeq_logic::blif::parse(text).map_err(|e| format!("network: {e}"))?,
                other => return Err(format!("unknown network format `{other}` (bench|blif)")),
            };
            (network, None)
        }
        (None, Some(source)) => {
            // Only generator sources: the daemon does not read client-named
            // files off its filesystem.
            if !source.starts_with("gen:") {
                return Err(format!(
                    "`source` must be a gen:NAME builtin (got `{source}`); \
                     inline file contents via `network` instead"
                ));
            }
            resolve_source(source, std::path::Path::new("."))?
        }
        (None, None) => return Err("request needs `network` text or a gen:NAME `source`".into()),
    };

    let split = match json.get("split").and_then(Json::as_arr) {
        Some(items) => Some(
            items
                .iter()
                .map(|v| v.as_u64().map(|n| n as usize))
                .collect::<Option<Vec<usize>>>()
                .ok_or("`split` must be an array of non-negative integers")?,
        ),
        None => None,
    };
    let unknown_latches = split
        .or(default_split)
        .ok_or("request needs `split`: the latch indices of the unknown component")?;

    let mut name = json
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    if name.is_empty() {
        name = if network.name().is_empty() {
            "net".into()
        } else {
            network.name().to_string()
        };
    }
    let instance = InstanceSpec::new(name, network, unknown_latches);

    let kind: SolverKind = match json.get("flow").and_then(Json::as_str) {
        Some(flow) => flow.parse().map_err(|e| format!("{e}"))?,
        None => SolverKind::Partitioned,
    };
    let mut config = ConfigSpec::new(kind.to_string(), kind);
    if let Some(trim) = json.get("trim").and_then(Json::as_bool) {
        config = config.trim_dcn(trim);
    }
    if let Some(policy) = json.get("reorder").and_then(Json::as_str) {
        config = config.reorder(policy.parse().map_err(|e| format!("reorder: {e}"))?);
    }
    let mut limits = SolverLimits::default();
    if let Some(secs) = json.get("timeout").and_then(Json::as_u64) {
        limits.time_limit = Some(Duration::from_secs(secs));
    }
    if let Some(n) = json.get("node_limit").and_then(Json::as_u64) {
        limits.node_limit = Some(n as usize);
    }
    if let Some(n) = json.get("max_states").and_then(Json::as_u64) {
        limits.max_states = Some(n as usize);
    }
    Ok((instance, config.limits(limits)))
}

/// The worker loop: pop a *(job, cell)* entry, run it, publish the report
/// into its slot. Exits when the drain token fired *and* the queue is
/// empty — queued cells still drain through the (pre-cancelled) engine,
/// producing honest `cancelled` reports instead of vanishing.
fn worker_loop(shared: &Arc<Shared>) {
    /// Keeps the live-worker gauge honest on *every* exit path — if a
    /// worker ever dies (contained panics never kill one, but readiness
    /// must not trust that), `/readyz` sees the count drop. The spawner
    /// counted this worker in.
    struct Alive<'a>(&'a AtomicU64);
    impl Drop for Alive<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let _alive = Alive(&shared.live_workers);
    loop {
        let (id, cell, work, token) = {
            let mut state = lock_ok(&shared.state);
            loop {
                if let Some((id, cell)) = state.queue.pop_front() {
                    // A queue entry can outlive its job (pruned after a
                    // contained panic) — drop the stale entry, don't die.
                    let Some(job) = state.jobs.get_mut(&id) else {
                        continue;
                    };
                    job.state = JobState::Running;
                    let Some(work) = job.pending[cell].take() else {
                        continue;
                    };
                    let token = job.token.clone();
                    break (id, cell, work, token);
                }
                if shared.token.is_cancelled() {
                    return;
                }
                state = shared
                    .work
                    .wait_timeout(state, Duration::from_millis(100))
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
        };
        // A drain that raced the submission may have missed this job's
        // token; re-derive it from the server token so queued cells always
        // drain as cancelled instead of running to completion.
        if shared.token.is_cancelled() {
            token.cancel();
        }
        // Re-enter the submitting request's trace on this worker thread:
        // the solve span (and the engine's phase spans under it) land in
        // the same trace as the ingress span that queued the cell.
        let _trace_guard = (work.trace != 0).then(|| langeq_obs::install(work.trace, work.parent));
        shared.metrics.queue_wait.observe(work.enqueued.elapsed());
        let (report, snapshot) = run_cell_cached(
            shared,
            id,
            &work.instance,
            &work.config,
            cell,
            work.sig,
            &token,
        );
        let finished = {
            let mut guard = lock_ok(&shared.state);
            let state = &mut *guard;
            state.prune_done_jobs();
            let mut finished = false;
            if let Some(job) = state.jobs.get_mut(&id) {
                job.reports[cell] = Some(report);
                job.cells_done += 1;
                if job.kind == "solve" {
                    job.snapshot = snapshot;
                }
                if job.cells_done == job.cells {
                    job.state = JobState::Done;
                    job.sample = None;
                    // Keep `sig` on the job: the snapshot endpoint uses it
                    // to reach the blob tier for cache-answered jobs.
                    if let Some(sig) = &job.sig {
                        let sig = sig.clone();
                        state.inflight.remove(&sig);
                    }
                    finished = true;
                }
            }
            finished
        };
        if finished {
            shared.metrics.bump(&shared.metrics.jobs_done);
        }
    }
}

/// Post-solve observability for one fresh engine run: feeds the solver
/// phase spans recorded under this solve's span into the per-phase
/// histogram, and appends a slow-log record when the solve crossed the
/// armed threshold. A no-op for untraced solves except the slow log's
/// (then phase-less) record.
fn observe_phases(
    shared: &Arc<Shared>,
    solve_span: &langeq_obs::Span,
    report: &CellReport,
    instance: &InstanceSpec,
    config: &ConfigSpec,
    job_id: u64,
) {
    // Only spans *under this solve* count: a sweep shares one trace across
    // many cells, so collecting the whole trace here would re-observe the
    // phases of every already-finished sibling cell.
    let mut phases: Vec<(&'static str, u64)> = Vec::new();
    if let (Some((trace, _)), root) = (langeq_obs::current(), solve_span.id()) {
        if root != 0 {
            let records = langeq_obs::collect(trace);
            let mut under: std::collections::HashSet<u64> = std::collections::HashSet::new();
            under.insert(root);
            // Parent links always point at already-opened spans, but the
            // records are sorted by start time, so one forward pass per
            // depth level suffices; loop until the closure stops growing.
            loop {
                let before = under.len();
                for r in &records {
                    if under.contains(&r.parent) {
                        under.insert(r.id);
                    }
                }
                if under.len() == before {
                    break;
                }
            }
            for r in &records {
                // The `cell` wrapper duplicates the solve duration; the
                // phase histogram wants the engine's phases proper.
                if r.id != root && r.name != "cell" && under.contains(&r.id) {
                    shared
                        .metrics
                        .solver_phase
                        .with(r.name)
                        .observe_ns(r.dur_ns);
                    match phases.iter_mut().find(|(name, _)| *name == r.name) {
                        Some((_, total)) => *total += r.dur_ns,
                        None => phases.push((r.name, r.dur_ns)),
                    }
                }
            }
        }
    }
    let Some((threshold_ms, log)) = shared.slow.as_ref() else {
        return;
    };
    if report.duration < Duration::from_millis(*threshold_ms) {
        return;
    }
    let mut breakdown = Json::obj();
    for (name, ns) in &phases {
        breakdown = breakdown.set(name, *ns);
    }
    let mut record = Json::obj()
        .set("job", job_id)
        .set("instance", instance.name.as_str())
        .set("config", config.name.as_str())
        .set("sig", report.sig.as_str())
        .set("status", report.status())
        .set("duration_ms", report.duration.as_millis() as u64)
        .set("phases_ns", breakdown);
    if let Some(k) = &report.kernel {
        record = record.set("kernel", k.to_json());
    }
    if let Some((trace, _)) = langeq_obs::current() {
        record = record.set("trace", fmt_id(trace));
    }
    if let Err(e) = log.append(&record) {
        eprintln!("[serve] slow log append failed: {e}");
    }
}

/// Best-effort text of a caught panic payload (`panic!` carries `&str` or
/// `String`; anything else is reported generically).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Runs one cell through the cache tiers: the in-memory map, a shared-store
/// refresh, the ring owner's cache — and only then the Suite engine. A
/// fresh fair result is inserted, appended to the store, and its CSF
/// snapshot published to the blob tier.
fn run_cell_cached(
    shared: &Arc<Shared>,
    job_id: u64,
    instance: &InstanceSpec,
    config: &ConfigSpec,
    cell_id: usize,
    sig: String,
    token: &CancelToken,
) -> (CellReport, Option<Arc<Vec<u8>>>) {
    // The solve span wraps every tier — cache probe, peer lookup, engine —
    // and is the parent the suite's per-cell phase spans attach under.
    let mut solve_span = langeq_obs::span!("solve", flow = config.kind);
    solve_span.field("instance", &instance.name);
    let solve_t0 = Instant::now();
    let relabel = |mut report: CellReport| {
        report.cell = cell_id;
        report.resumed = true;
        // The cache key is content-addressed; the names belong to whoever
        // is asking now, not to the request that populated the entry.
        report.instance = instance.name.clone();
        report.config = config.name.clone();
        report
    };
    let hit = {
        let probe_span = langeq_obs::span!("cache_probe");
        let mut state = lock_ok(&shared.state);
        let mut hit = state.cache.get(&sig).cloned();
        if hit.is_none() && state.refresh_cache() > 0 {
            hit = state.cache.get(&sig).cloned();
            if hit.is_some() {
                shared.metrics.bump(&shared.metrics.remote_cache_hits);
            }
        }
        drop(probe_span);
        hit
    };
    if let Some(report) = hit {
        shared.metrics.bump(&shared.metrics.cache_hits);
        return (relabel(report), None);
    }
    // Sweep cells are never forwarded whole, but the live ring owner of
    // each signature concentrates its results — one cheap probe there
    // beats re-solving. Only when the owner honestly misses (or fails)
    // does this daemon burn CPU.
    if let Some(ring) = &shared.ring {
        let alive = |m: usize| member_is_up(shared, m);
        if !ring.owns_where(&sig, alive) {
            if let Some(owner) = ring.owner_where(&sig, alive).map(str::to_string) {
                match peer_lookup(shared, &owner, &sig) {
                    Ok(Some(report)) => {
                        shared.metrics.bump(&shared.metrics.remote_cache_hits);
                        shared.metrics.bump(&shared.metrics.cache_hits);
                        let mut state = lock_ok(&shared.state);
                        // Memory-only insert: the owner's store already
                        // persists this result; duplicating the record
                        // here would bloat a shared store.
                        state.cache.insert(sig.clone(), report.clone());
                        return (relabel(report), None);
                    }
                    Ok(None) => {}
                    Err(()) => shared.metrics.bump(&shared.metrics.peer_errors),
                }
            }
        }
    }
    shared.metrics.bump(&shared.metrics.cache_misses);

    let plan = SuitePlan::new()
        .instance(instance.clone())
        .config(config.clone());
    let observer_shared = Arc::clone(shared);
    // The engine solves on this thread (Solution is thread-confined), so
    // the hook below runs here too; the slot just carries the serialized
    // CSF across the `execute` boundary.
    let snap_slot: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let hook_slot = Arc::clone(&snap_slot);
    #[cfg(feature = "fault-inject")]
    let inject_panic = shared.faults.as_ref().is_some_and(|f| f.take_solve_panic());
    #[cfg(not(feature = "fault-inject"))]
    let inject_panic = false;
    // Panic containment: a solver bug (or an injected fault) must cost one
    // job, not one worker — the pool's size is the service's capacity.
    // AssertUnwindSafe is fine here: on unwind every captured value is
    // dropped without being observed again (the snapshot slot is recreated
    // per call, the job sample is overwritten or cleared at job end).
    // Hand the request's trace context to the suite: its worker thread is
    // not this one, so the context must travel explicitly. The phase spans
    // the engine records parent under the solve span.
    let mut suite_opts = SuiteOptions::new();
    if let Some((trace, _)) = langeq_obs::current() {
        suite_opts = suite_opts.trace(trace, solve_span.id());
    }
    let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected solver panic");
        }
        plan.execute(
            suite_opts
                .jobs(1)
                .cancel_token(token.clone())
                .on_solution(move |_, _, solution| {
                    *lock_ok(&hook_slot) = Some(langeq_automata::snapshot::save(&solution.csf));
                })
                .on_event(move |event| {
                    if let SuiteEvent::CellSample { sample, .. } = event {
                        let mut state = lock_ok(&observer_shared.state);
                        if let Some(job) = state.jobs.get_mut(&job_id) {
                            job.sample = Some(*sample);
                        }
                    }
                }),
        )
    }));
    // Every failure shape — a contained panic, an engine error, a plan
    // that yields no report — becomes one retryable `Failed` report,
    // never cached or journaled: each describes this run, not the cell.
    let fail = |message: String| {
        (
            CellReport {
                cell: cell_id,
                instance: instance.name.clone(),
                config: config.name.clone(),
                kind: config.kind,
                sig: sig.clone(),
                outcome: CellOutcome::Failed(message),
                kernel: None,
                duration: Duration::ZERO,
                resumed: false,
                retryable: true,
                trace: langeq_obs::current().map(|(t, _)| fmt_id(t)),
            },
            None,
        )
    };
    let suite = match executed {
        Ok(Ok(suite)) => suite,
        Ok(Err(e)) => {
            eprintln!("[serve] suite execution failed on job {job_id} cell {cell_id}: {e}");
            return fail(format!("suite execution failed: {e}"));
        }
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            shared.metrics.bump(&shared.metrics.worker_panics);
            eprintln!("[serve] solver panicked on job {job_id} cell {cell_id}: {message}");
            return fail(format!("solver panicked: {message}"));
        }
    };
    let Some(mut report) = suite.cells.into_iter().next() else {
        return fail("engine returned no cell report".to_string());
    };
    report.cell = cell_id;
    shared
        .metrics
        .solve_duration
        .with(&config.kind.to_string())
        .observe(solve_t0.elapsed());
    observe_phases(shared, &solve_span, &report, instance, config, job_id);

    if let Some(k) = &report.kernel {
        shared.metrics.kernel_cache_lookups.add(k.cache_lookups);
        shared.metrics.kernel_cache_hits.add(k.cache_hits);
        shared.metrics.task_cache_evictions.add(k.cache_evictions);
    }
    let snapshot = lock_ok(&snap_slot).take().map(Arc::new);
    if !report.retryable {
        let mut state = lock_ok(&shared.state);
        if !state.cache.contains_key(&sig) {
            if let Some(store) = state.store.as_mut() {
                if let Err(e) = store.append(&report) {
                    eprintln!("[serve] cache store append failed: {e}");
                }
                if let Some(bytes) = &snapshot {
                    if let Err(e) = store.put_blob(&sig, bytes) {
                        eprintln!("[serve] snapshot blob publish failed: {e}");
                    }
                }
            }
            state.cache.insert(sig, report.clone());
        }
    }
    (report, snapshot)
}
