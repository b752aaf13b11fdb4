//! A typed client for the job API — the engine behind `langeq submit`, the
//! load-generator example, and the service tests. Speaks the same
//! hand-rolled HTTP as the server ([`crate::http::call`]).

use std::time::{Duration, Instant};

use langeq_core::retry::RetryPolicy;
use langeq_report::Json;

use crate::http;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connection refused, timeout, …).
    Io(std::io::Error),
    /// The server answered with an error status.
    Http {
        /// The status code.
        status: u16,
        /// The response body (usually `{"error": ...}`).
        body: String,
    },
    /// The server answered 2xx but the body was not what the protocol
    /// promises.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Http { status, body } => {
                let detail = Json::parse(body)
                    .ok()
                    .as_ref()
                    .and_then(|j| j.get("error"))
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .unwrap_or_else(|| body.clone());
                write!(
                    f,
                    "server answered {status} {}: {detail}",
                    http::reason(*status)
                )
            }
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The acknowledgement of a submission.
#[derive(Debug, Clone)]
pub struct Submitted {
    /// The job id to poll.
    pub job: u64,
    /// `queued`, `running`, or `done`.
    pub state: String,
    /// True when the cache answered without queuing a solve.
    pub cached: bool,
    /// Set when a fleet daemon forwarded the solve: the address that
    /// actually runs the job — poll *that* daemon for the result.
    pub owner: Option<String>,
    /// The request's trace id (16 hex digits) — fetch the merged span
    /// view from `GET /v1/trace/{id}` on any fleet member.
    pub trace: Option<String>,
}

/// A handle on one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    token: Option<String>,
    retry: RetryPolicy,
}

impl Client {
    /// A client for `host:port`. No transport retries by default — tests
    /// and scripts that want a flaky network absorbed opt in with
    /// [`Self::with_retry`] (the CLI uses [`Self::default_retry`]).
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            token: None,
            retry: RetryPolicy::none(),
        }
    }

    /// Sends `Authorization: Bearer <token>` on every request — required
    /// against a daemon started with an auth token.
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.token = Some(token.into());
        self
    }

    /// Retries *transport* failures (refused connects, timeouts, torn
    /// responses) under `policy`. HTTP error statuses are never retried
    /// here — the server answered; the caller decides what a 429 means.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// The CLI's submission policy: 3 attempts, 250 ms base backoff.
    pub fn default_retry() -> RetryPolicy {
        RetryPolicy::new(3, Duration::from_millis(250))
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn request_raw(
        &self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), ClientError> {
        let auth = self.token.as_ref().map(|t| format!("Bearer {t}"));
        let headers: Vec<(&str, &str)> = auth
            .as_deref()
            .map(|value| vec![("authorization", value)])
            .unwrap_or_default();
        Ok(self.retry.run(http::io_disposition, |_| {
            http::call_with_headers(&self.addr, method, path, content_type, body, &headers)
        })?)
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> Result<(u16, String), ClientError> {
        let (status, raw) = self.request_raw(method, path, content_type, body)?;
        Ok((status, String::from_utf8_lossy(&raw).into_owned()))
    }

    fn expect_json(
        &self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<Json, ClientError> {
        let encoded = body.map(Json::to_string).unwrap_or_default();
        let (status, text) = self.request(method, path, "application/json", encoded.as_bytes())?;
        if !(200..300).contains(&status) {
            return Err(ClientError::Http { status, body: text });
        }
        Json::parse(&text).map_err(|e| ClientError::Protocol(format!("{path}: {e}")))
    }

    /// `GET /healthz` — true when the server answers and reports ok.
    pub fn health(&self) -> Result<bool, ClientError> {
        let body = self.expect_json("GET", "/healthz", None)?;
        Ok(body.get("ok").and_then(Json::as_bool).unwrap_or(false))
    }

    /// `GET /metrics` — the raw text exposition.
    pub fn metrics_text(&self) -> Result<String, ClientError> {
        let (status, text) = self.request("GET", "/metrics", "text/plain", b"")?;
        if status != 200 {
            return Err(ClientError::Http { status, body: text });
        }
        Ok(text)
    }

    /// One gauge/counter value from `/metrics`.
    pub fn metric(&self, name: &str) -> Result<u64, ClientError> {
        let text = self.metrics_text()?;
        text.lines()
            .find_map(|line| {
                let (key, value) = line.split_once(' ')?;
                (key == name).then(|| value.trim().parse::<u64>().ok())?
            })
            .ok_or_else(|| ClientError::Protocol(format!("no metric `{name}`")))
    }

    /// `POST /v1/solve` with a prebuilt request body (see the crate docs
    /// for the schema).
    pub fn submit_solve(&self, request: &Json) -> Result<Submitted, ClientError> {
        let body = self.expect_json("POST", "/v1/solve", Some(request))?;
        decode_submitted(&body)
    }

    /// `POST /v1/sweep` with a manifest text body.
    pub fn submit_sweep(&self, manifest: &str) -> Result<Submitted, ClientError> {
        let (status, text) =
            self.request("POST", "/v1/sweep", "text/plain", manifest.as_bytes())?;
        if !(200..300).contains(&status) {
            return Err(ClientError::Http { status, body: text });
        }
        let body =
            Json::parse(&text).map_err(|e| ClientError::Protocol(format!("/v1/sweep: {e}")))?;
        decode_submitted(&body)
    }

    /// `GET /v1/jobs/{id}` — the status body.
    pub fn job_status(&self, job: u64) -> Result<Json, ClientError> {
        self.expect_json("GET", &format!("/v1/jobs/{job}"), None)
    }

    /// `GET /v1/trace/{id}` — the merged span view of one trace: flat
    /// `spans`, the parent-linked `tree`, and the fleet `members` that
    /// contributed. `id` is the 16-hex trace id a submission ack carries.
    pub fn trace(&self, id: &str) -> Result<Json, ClientError> {
        self.expect_json("GET", &format!("/v1/trace/{id}"), None)
    }

    /// `POST /v1/jobs/{id}/cancel` — fires the job's cancel token. Returns
    /// `true` when the job was still queued/running (a done job is left
    /// untouched and reports `false`); unknown ids error with 404.
    pub fn cancel(&self, job: u64) -> Result<bool, ClientError> {
        let body = self.expect_json("POST", &format!("/v1/jobs/{job}/cancel"), None)?;
        Ok(body
            .get("cancelled")
            .and_then(Json::as_bool)
            .unwrap_or(false))
    }

    /// `GET /v1/jobs/{id}/result` — `Some(result)` once done, `None` while
    /// the job is still queued or running.
    pub fn job_result(&self, job: u64) -> Result<Option<Json>, ClientError> {
        let path = format!("/v1/jobs/{job}/result");
        let (status, text) = self.request("GET", &path, "application/json", b"")?;
        match status {
            200 => Json::parse(&text)
                .map(Some)
                .map_err(|e| ClientError::Protocol(format!("{path}: {e}"))),
            202 => Ok(None),
            _ => Err(ClientError::Http { status, body: text }),
        }
    }

    /// `POST /v1/lookup` — the cached report for a cell signature, `None`
    /// on a cache miss.
    pub fn lookup(&self, sig: &str) -> Result<Option<Json>, ClientError> {
        let body = Json::obj().set("sig", sig).to_string();
        let (status, text) =
            self.request("POST", "/v1/lookup", "application/json", body.as_bytes())?;
        match status {
            200 => Json::parse(&text)
                .map(Some)
                .map_err(|e| ClientError::Protocol(format!("/v1/lookup: {e}"))),
            404 => Ok(None),
            _ => Err(ClientError::Http { status, body: text }),
        }
    }

    /// `GET /v1/jobs/{id}/snapshot` — the solved CSF as a binary LQAS
    /// blob, `None` when the job has no snapshot (sweeps, unfair results).
    /// Errors with 202 semantics (job not done) surface as `Http`.
    pub fn snapshot(&self, job: u64) -> Result<Option<Vec<u8>>, ClientError> {
        let path = format!("/v1/jobs/{job}/snapshot");
        let (status, raw) = self.request_raw("GET", &path, "application/json", b"")?;
        match status {
            200 => Ok(Some(raw)),
            404 => Ok(None),
            _ => Err(ClientError::Http {
                status,
                body: String::from_utf8_lossy(&raw).into_owned(),
            }),
        }
    }

    /// Polls until the job finishes, then returns its result. `poll` is
    /// the interval between status probes; `timeout` bounds the total wait
    /// (one past `Instant`'s range waits without bound).
    pub fn wait(&self, job: u64, poll: Duration, timeout: Duration) -> Result<Json, ClientError> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if let Some(result) = self.job_result(job)? {
                return Ok(result);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(ClientError::Protocol(format!(
                    "job {job} did not finish within {timeout:?}"
                )));
            }
            std::thread::sleep(poll);
        }
    }
}

fn decode_submitted(body: &Json) -> Result<Submitted, ClientError> {
    Ok(Submitted {
        job: body
            .get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("submission ack lacks `job`".into()))?,
        state: body
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("queued")
            .to_string(),
        cached: body.get("cached").and_then(Json::as_bool).unwrap_or(false),
        owner: body.get("owner").and_then(Json::as_str).map(str::to_string),
        trace: body.get("trace").and_then(Json::as_str).map(str::to_string),
    })
}
