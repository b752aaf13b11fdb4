//! The sweep journal: one JSON line per finished cell, written through
//! `langeq-report`'s hand-rolled JSONL writer.
//!
//! ## Record format (version 1)
//!
//! ```json
//! {"v":1,"cell":3,"instance":"sim_s510","config":"mono","flow":"monolithic",
//!  "sig":"net=8f3a09c1d2e4b567/19/7/6;split=[3, 4, 5];flow=monolithic;...",
//!  "status":"solved","csf_states":54,"subset_states":60,"transitions":212,
//!  "images":44,"peak_live_nodes":9123,
//!  "kernel":{"cache_lookups":120000,"cache_hits":45000,"cache_survived":900,
//!            "cache_swept":4000,"cache_puts":60000,"cache_evictions":1200,
//!            "unique_probes":300000,"unique_lookups":250000},
//!  "resumed":false,"retryable":false,"duration_ns":412345}
//! {"v":1,"cell":4,"instance":"sim_s444","config":"mono","flow":"monolithic",
//!  "sig":"...","status":"cnc","reason":"timeout","arg":30000000000,
//!  "resumed":false,"retryable":false,"duration_ns":30000112345}
//! ```
//!
//! `sig` is the cell's parameter signature
//! ([`Cell::signature`](crate::batch::Cell::signature)): resume only reuses
//! a record whose signature matches the current plan's cell, so editing the
//! split, limits, or flow behind a journaled name re-runs the cell instead
//! of replaying a stale result.
//!
//! Every field except `duration_ns` is deterministic for a fresh manager, so
//! two journals of the same plan agree byte-for-byte per cell (modulo the
//! timing field) regardless of worker count — the property the engine's
//! determinism tests pin down.
//!
//! Lines are appended in *completion* order (that is what makes the journal
//! resumable after a kill); the deterministic *plan* order is restored when
//! the [`SuiteReport`](crate::batch::SuiteReport) is assembled. Loading is
//! lenient: a final line truncated by a kill is skipped, not an error.
//!
//! `cancelled` cells are **never journaled** — a cancelled or
//! budget-exhausted cell was not given its fair chance, and `--resume`
//! exists precisely to retry it.

use std::path::Path;
use std::time::Duration;

use langeq_report::{parse_lines_lossy, Json};

use crate::batch::{CellOutcome, CellReport, CellStats, KernelSample};
use crate::solver::{CncReason, SolverKind};

/// Journal record version (bump when the format changes incompatibly;
/// records of other versions are ignored on load).
pub const JOURNAL_VERSION: i64 = 1;

impl CellReport {
    /// Serializes the report as one journal record.
    pub fn to_json(&self) -> Json {
        let base = Json::obj()
            .set("v", JOURNAL_VERSION)
            .set("cell", self.cell)
            .set("instance", self.instance.as_str())
            .set("config", self.config.as_str())
            .set("flow", self.kind.to_string())
            .set("sig", self.sig.as_str());
        let with_outcome = match &self.outcome {
            CellOutcome::Solved(stats) => base
                .set("status", "solved")
                .set("csf_states", stats.csf_states)
                .set("subset_states", stats.subset_states)
                .set("transitions", stats.transitions)
                .set("images", stats.images)
                .set("peak_live_nodes", stats.peak_live_nodes),
            CellOutcome::Cnc(reason) => {
                let (name, arg) = encode_cnc(reason);
                base.set("status", "cnc")
                    .set("reason", name)
                    .set("arg", arg)
            }
            CellOutcome::Failed(message) => {
                base.set("status", "failed").set("error", message.as_str())
            }
        };
        // The kernel counters of the last control point ride along when the
        // cell was actually attempted. Deterministic for a fresh manager, so
        // they sit before `duration_ns` — inside the region the
        // byte-determinism contract covers.
        let with_kernel = match &self.kernel {
            Some(k) => with_outcome.set("kernel", k.to_json()),
            None => with_outcome,
        };
        // The provenance flags matter to `--json` consumers (a replayed or
        // retryable cell is not a fresh measurement). Journal records always
        // carry false for both — only fair, freshly-solved cells are
        // written, and `resumed` is re-derived on load.
        let with_flags = with_kernel
            .set("resumed", self.resumed)
            .set("retryable", self.retryable)
            .set("duration_ns", self.duration.as_nanos());
        // The trace id is correlation metadata, not a result: it lives
        // after `duration_ns`, outside the byte-determinism region, and is
        // simply absent for untraced runs.
        match &self.trace {
            Some(trace) => with_flags.set("trace", trace.as_str()),
            None => with_flags,
        }
    }

    /// Parses one journal record; `None` for records of another version or
    /// shape (the lenient-load contract).
    pub fn from_json(record: &Json) -> Option<CellReport> {
        if record.get("v")?.as_i64()? != JOURNAL_VERSION {
            return None;
        }
        let cell = record.get("cell")?.as_u64()? as usize;
        let instance = record.get("instance")?.as_str()?.to_string();
        let config = record.get("config")?.as_str()?.to_string();
        let kind: SolverKind = record.get("flow")?.as_str()?.parse().ok()?;
        let outcome = match record.get("status")?.as_str()? {
            "solved" => {
                let field = |name: &str| record.get(name)?.as_u64().map(|n| n as usize);
                CellOutcome::Solved(CellStats {
                    csf_states: field("csf_states")?,
                    subset_states: field("subset_states")?,
                    transitions: field("transitions")?,
                    images: field("images")?,
                    peak_live_nodes: field("peak_live_nodes")?,
                })
            }
            "cnc" => CellOutcome::Cnc(decode_cnc(
                record.get("reason")?.as_str()?,
                record.get("arg")?.as_u64()?,
            )?),
            "failed" => CellOutcome::Failed(record.get("error")?.as_str()?.to_string()),
            _ => return None,
        };
        let duration = Duration::from_nanos(record.get("duration_ns")?.as_u64()?);
        let sig = record
            .get("sig")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        // Optional: absent in records journaled before the field existed.
        let kernel = record.get("kernel").and_then(KernelSample::from_json);
        let trace = record
            .get("trace")
            .and_then(Json::as_str)
            .map(str::to_string);
        let report = CellReport {
            cell,
            instance,
            config,
            kind,
            sig,
            outcome,
            kernel,
            duration,
            resumed: false,
            retryable: false,
            trace,
        };
        #[cfg(feature = "sanitize")]
        sanitize_record(&report);
        Some(report)
    }
}

/// Record schema audit beyond what lenient parsing rejects: a record that
/// *parsed* as version-1 but carries an impossible shape was written by our
/// own journal writer (foreign garbage never gets this far), so the store
/// is corrupt in a way retrying cannot fix — abort with the invariant.
#[cfg(feature = "sanitize")]
fn sanitize_record(r: &CellReport) {
    if !crate::sanitize::enabled() {
        return;
    }
    if r.instance.is_empty() {
        crate::sanitize::fail(
            "journal-record",
            format_args!("cell {}: empty instance name", r.cell),
        );
    }
    if r.config.is_empty() {
        crate::sanitize::fail(
            "journal-record",
            format_args!("cell {} ({}): empty config name", r.cell, r.instance),
        );
    }
    // Signatures are either absent (pre-signature-era records) or built by
    // `Cell::signature`, which always leads with the network digest.
    if !r.sig.is_empty() && !r.sig.starts_with("net=") {
        crate::sanitize::fail(
            "journal-record",
            format_args!(
                "cell {} ({}): signature does not lead with a network digest: {:?}",
                r.cell,
                r.instance,
                &r.sig[..r.sig.len().min(40)]
            ),
        );
    }
}

impl KernelSample {
    /// The `kernel` object of a journal record — also the `kernel` object
    /// of the daemon's job status body and slow-log record.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("cache_lookups", self.cache_lookups)
            .set("cache_hits", self.cache_hits)
            .set("cache_survived", self.cache_survived)
            .set("cache_swept", self.cache_swept)
            .set("cache_puts", self.cache_puts)
            .set("cache_evictions", self.cache_evictions)
            .set("unique_probes", self.unique_probes)
            .set("unique_lookups", self.unique_lookups)
    }

    /// Parses a [`to_json`](Self::to_json) object; `None` when a required
    /// counter is missing.
    pub fn from_json(obj: &Json) -> Option<KernelSample> {
        let field = |name: &str| obj.get(name)?.as_u64();
        Some(KernelSample {
            cache_lookups: field("cache_lookups")?,
            cache_hits: field("cache_hits")?,
            cache_survived: field("cache_survived")?,
            cache_swept: field("cache_swept")?,
            // Absent in journals written before the put/eviction counters
            // existed; zero keeps those records resumable.
            cache_puts: field("cache_puts").unwrap_or(0),
            cache_evictions: field("cache_evictions").unwrap_or(0),
            unique_probes: field("unique_probes")?,
            unique_lookups: field("unique_lookups")?,
        })
    }
}

fn encode_cnc(reason: &CncReason) -> (&'static str, u64) {
    match reason {
        CncReason::NodeLimit(n) => ("node-limit", *n as u64),
        CncReason::Timeout(d) => ("timeout", d.as_nanos().min(u64::MAX as u128) as u64),
        CncReason::StateLimit(n) => ("state-limit", *n as u64),
        CncReason::Cancelled => ("cancelled", 0),
    }
}

fn decode_cnc(name: &str, arg: u64) -> Option<CncReason> {
    Some(match name {
        "node-limit" => CncReason::NodeLimit(arg as usize),
        "timeout" => CncReason::Timeout(Duration::from_nanos(arg)),
        "state-limit" => CncReason::StateLimit(arg as usize),
        "cancelled" => CncReason::Cancelled,
        _ => return None,
    })
}

/// Loads every well-formed version-1 record of a journal file. Blank,
/// truncated, and foreign-version lines are skipped.
pub fn load_journal(path: &Path) -> std::io::Result<Vec<CellReport>> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_lines_lossy(&text)
        .iter()
        .filter_map(CellReport::from_json)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solved_report() -> CellReport {
        CellReport {
            cell: 3,
            instance: "sim_s510".into(),
            config: "mono".into(),
            kind: SolverKind::Monolithic,
            sig: "net=sim_s510/19/7/6;split=[3,4,5];flow=monolithic".into(),
            outcome: CellOutcome::Solved(CellStats {
                csf_states: 54,
                subset_states: 60,
                transitions: 212,
                images: 44,
                peak_live_nodes: 9123,
            }),
            kernel: Some(KernelSample {
                cache_lookups: 120_000,
                cache_hits: 45_000,
                cache_survived: 900,
                cache_swept: 4000,
                cache_puts: 60_000,
                cache_evictions: 1200,
                unique_probes: 300_000,
                unique_lookups: 250_000,
            }),
            duration: Duration::from_nanos(412_345),
            resumed: false,
            retryable: false,
            trace: None,
        }
    }

    #[test]
    fn records_round_trip() {
        // A round trip alone survives a key renamed on both sides; the
        // bytes of a solved record are the journal format itself.
        assert_eq!(
            solved_report().to_json().to_string(),
            "{\"v\":1,\"cell\":3,\"instance\":\"sim_s510\",\"config\":\"mono\",\
             \"flow\":\"monolithic\",\"sig\":\"net=sim_s510/19/7/6;split=[3,4,5];flow=monolithic\",\
             \"status\":\"solved\",\"csf_states\":54,\"subset_states\":60,\"transitions\":212,\
             \"images\":44,\"peak_live_nodes\":9123,\"kernel\":{\"cache_lookups\":120000,\
             \"cache_hits\":45000,\"cache_survived\":900,\"cache_swept\":4000,\"cache_puts\":60000,\
             \"cache_evictions\":1200,\"unique_probes\":300000,\"unique_lookups\":250000},\
             \"resumed\":false,\"retryable\":false,\"duration_ns\":412345}"
        );
        let cases = vec![
            solved_report(),
            CellReport {
                outcome: CellOutcome::Cnc(CncReason::Timeout(Duration::from_secs(30))),
                ..solved_report()
            },
            CellReport {
                outcome: CellOutcome::Cnc(CncReason::NodeLimit(1_000_000)),
                ..solved_report()
            },
            CellReport {
                outcome: CellOutcome::Cnc(CncReason::StateLimit(7)),
                ..solved_report()
            },
            CellReport {
                outcome: CellOutcome::Cnc(CncReason::Cancelled),
                ..solved_report()
            },
            CellReport {
                outcome: CellOutcome::Failed("latch split failed: no latch 9".into()),
                ..solved_report()
            },
            // Never-attempted cells (and pre-kernel-era records) carry none.
            CellReport {
                kernel: None,
                ..solved_report()
            },
            // Cells solved under a trace context carry the trace id.
            CellReport {
                trace: Some("4a7bd21f90e3c8a5".into()),
                ..solved_report()
            },
        ];
        for report in cases {
            let json = report.to_json();
            let back = CellReport::from_json(&json).expect("round trip");
            assert_eq!(back, report, "via {json}");
        }
    }

    #[test]
    fn foreign_versions_and_garbage_are_skipped() {
        assert!(CellReport::from_json(&Json::obj().set("v", 2i64)).is_none());
        assert!(CellReport::from_json(&Json::obj()).is_none());
        let mangled = solved_report().to_json().set("flow", "warp-drive");
        assert!(CellReport::from_json(&mangled).is_none());
    }

    #[test]
    fn journal_file_round_trips_and_tolerates_truncation() {
        let path =
            std::env::temp_dir().join(format!("langeq-journal-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut w = langeq_report::JsonlWriter::append(&path).unwrap();
        w.write(&solved_report().to_json()).unwrap();
        // Simulate a kill mid-write: append half a record, no newline.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"v\":1,\"cell\":9,\"instance\":\"tr")
            .unwrap();
        drop(f);
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded, vec![solved_report()]);
        // A resume that re-runs the lost cell appends after the truncated
        // tail; the writer repairs the missing newline so the new record
        // is not glued onto (and lost with) the partial line.
        let rerun = CellReport {
            cell: 9,
            ..solved_report()
        };
        let mut w = langeq_report::JsonlWriter::append(&path).unwrap();
        w.write(&rerun.to_json()).unwrap();
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded, vec![solved_report(), rerun]);
        let _ = std::fs::remove_file(&path);
    }

    /// A record that parses as version-1 but has an impossible shape (our
    /// own writer never emits an empty instance) must abort under the
    /// `sanitize` feature instead of flowing into resume decisions.
    #[cfg(feature = "sanitize")]
    #[test]
    fn corrupt_record_aborts_under_sanitize() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut r = solved_report();
        r.instance = String::new();
        let json = r.to_json();
        let err = catch_unwind(AssertUnwindSafe(|| CellReport::from_json(&json)))
            .expect_err("schema audit must abort");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("[langeq-sanitize]") && msg.contains("journal-record"),
            "got {msg:?}"
        );
    }
}
