//! The `archgymd` wire protocol: line-delimited JSON frames over TCP.
//!
//! Every frame is one JSON object on one line, encoded with the in-repo
//! [`codec`](archgym_core::codec) (canonical field order, bit-exact
//! `f64` round-trips) and tagged by a `"type"` field. Requests flow
//! client → daemon, responses daemon → client. A `watch` request
//! upgrades the connection to a response-only event stream.
//!
//! Robustness contract: the daemon replies to any malformed input —
//! truncated frame, oversized line, non-UTF-8 bytes, unknown job ID,
//! duplicate submit — with a typed [`Response::Error`] frame and never
//! panics. Lines longer than [`MAX_LINE_BYTES`] are rejected without
//! being buffered further.

use archgym_core::codec::{parse_json, push_json_f64, push_json_str, Json};
use archgym_core::error::{ArchGymError, Result};
use archgym_core::jobs::{JobId, JobSpec, JobState};
use std::fmt::Write as _;
use std::io;

/// Protocol revision, reported by `ping`/`pong`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one frame line (bytes, newline included). Longer lines
/// get a typed `oversized-frame` error and the connection is closed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Append `line` to `buf` as one terminated wire frame.
pub(crate) fn push_frame(buf: &mut String, line: &str) {
    buf.push_str(line);
    buf.push('\n');
}

/// Write `line` as one wire frame: a single `write_all` of
/// `line + "\n"`, so the terminator never trails in its own segment.
pub fn write_frame(out: &mut impl io::Write, line: &str) -> io::Result<()> {
    let mut buf = String::with_capacity(line.len() + 1);
    push_frame(&mut buf, line);
    out.write_all(buf.as_bytes())
}

fn bad(msg: String) -> ArchGymError {
    ArchGymError::InvalidConfig(msg)
}

/// Typed error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a valid frame (bad JSON, missing fields,
    /// unknown type) — includes truncated frames.
    BadFrame,
    /// The line exceeded [`MAX_LINE_BYTES`].
    OversizedFrame,
    /// The line was not valid UTF-8.
    NonUtf8,
    /// The referenced job ID is not known to the daemon.
    UnknownJob,
    /// A named submit collided with an existing job name.
    DuplicateJob,
    /// The submitted job spec failed validation (unknown env/agent...).
    BadSpec,
    /// The request is not valid for the job's current state.
    BadState,
    /// The daemon failed internally (e.g. could not persist the job).
    Internal,
    /// The daemon is at its concurrent-connection cap (or draining);
    /// the error carries a `retry_after_ms` back-off hint.
    Busy,
}

impl ErrorCode {
    /// The wire name of this code.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::NonUtf8 => "non-utf8",
            ErrorCode::UnknownJob => "unknown-job",
            ErrorCode::DuplicateJob => "duplicate-job",
            ErrorCode::BadSpec => "bad-spec",
            ErrorCode::BadState => "bad-state",
            ErrorCode::Internal => "internal",
            ErrorCode::Busy => "busy",
        }
    }

    /// Parse a wire name back into a code.
    pub fn parse(name: &str) -> Result<ErrorCode> {
        Ok(match name {
            "bad-frame" => ErrorCode::BadFrame,
            "oversized-frame" => ErrorCode::OversizedFrame,
            "non-utf8" => ErrorCode::NonUtf8,
            "unknown-job" => ErrorCode::UnknownJob,
            "duplicate-job" => ErrorCode::DuplicateJob,
            "bad-spec" => ErrorCode::BadSpec,
            "bad-state" => ErrorCode::BadState,
            "internal" => ErrorCode::Internal,
            "busy" => ErrorCode::Busy,
            other => return Err(bad(format!("unknown error code '{other}'"))),
        })
    }
}

/// One job's externally visible status.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job's ID.
    pub job: JobId,
    /// The tenant that submitted it.
    pub tenant: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Best reward found so far (absent before the first settled batch).
    pub best_reward: Option<f64>,
    /// Simulator samples consumed so far.
    pub samples: u64,
    /// The job's sample budget.
    pub budget: u64,
    /// Failure message for `failed` jobs.
    pub error: Option<String>,
}

fn push_opt_str(out: &mut String, value: &Option<String>) {
    match value {
        Some(text) => push_json_str(out, text),
        None => out.push_str("null"),
    }
}

fn push_opt_f64(out: &mut String, value: Option<f64>) {
    match value {
        Some(v) => push_json_f64(out, v),
        None => out.push_str("null"),
    }
}

fn opt_str(json: &Json, key: &str) -> Result<Option<String>> {
    match json.field(key) {
        Ok(Json::Null) => Ok(None),
        Ok(value) => Ok(Some(value.as_str().map_err(bad)?.to_owned())),
        Err(_) => Ok(None),
    }
}

fn opt_f64(json: &Json, key: &str) -> Result<Option<f64>> {
    match json.field(key) {
        Ok(Json::Null) => Ok(None),
        Ok(value) => Ok(Some(value.as_f64().map_err(bad)?)),
        Err(_) => Ok(None),
    }
}

fn job_id(json: &Json, key: &str) -> Result<JobId> {
    let text = json.field(key).and_then(Json::as_str).map_err(bad)?;
    JobId::parse(text).ok_or_else(|| bad(format!("malformed job id '{text}'")))
}

impl JobStatus {
    fn push_body(&self, out: &mut String) {
        out.push_str("\"job\":");
        push_json_str(out, &self.job.to_string());
        out.push_str(",\"tenant\":");
        push_json_str(out, &self.tenant);
        out.push_str(",\"state\":");
        push_json_str(out, self.state.name());
        out.push_str(",\"best_reward\":");
        push_opt_f64(out, self.best_reward);
        let _ = write!(
            out,
            ",\"samples\":{},\"budget\":{}",
            self.samples, self.budget
        );
        out.push_str(",\"error\":");
        push_opt_str(out, &self.error);
    }

    fn from_json(json: &Json) -> Result<JobStatus> {
        Ok(JobStatus {
            job: job_id(json, "job")?,
            tenant: json
                .field("tenant")
                .and_then(Json::as_str)
                .map_err(bad)?
                .to_owned(),
            state: JobState::parse(json.field("state").and_then(Json::as_str).map_err(bad)?)?,
            best_reward: opt_f64(json, "best_reward")?,
            samples: json.field("samples").and_then(Json::as_u64).map_err(bad)?,
            budget: json.field("budget").and_then(Json::as_u64).map_err(bad)?,
            error: opt_str(json, "error")?,
        })
    }
}

/// A client → daemon frame.
// `Submit` carries a full inline `JobSpec` (now including the optional
// screening policy) and dwarfs the query variants; frames are transient
// per-connection values, so the size skew costs nothing worth boxing for.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job under a tenant; `name`, when given, must be unique
    /// across the daemon's lifetime (duplicates get a typed error).
    Submit {
        /// Tenant the job is accounted to for quota purposes.
        tenant: String,
        /// Optional client-chosen unique job name.
        name: Option<String>,
        /// What to run.
        spec: JobSpec,
    },
    /// Ask for one job's status.
    Status {
        /// The job to query.
        job: JobId,
    },
    /// List every job the daemon knows about.
    List,
    /// Subscribe to a job's event stream (backlog replays first).
    Watch {
        /// The job to watch.
        job: JobId,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The job to cancel.
        job: JobId,
    },
    /// Liveness probe.
    Ping,
    /// Stop accepting work and shut the daemon down cleanly.
    Shutdown {
        /// Drain mode: stop admitting, let in-flight and queued jobs
        /// finish before exiting. Without drain, in-flight jobs are
        /// interrupted at the next batch boundary and left resumable.
        drain: bool,
        /// Upper bound on the drain wait in milliseconds; `0` uses the
        /// daemon's default. Ignored unless `drain` is set.
        deadline_ms: u64,
    },
}

impl Request {
    /// Encode as one canonical JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::from("{\"type\":");
        match self {
            Request::Submit { tenant, name, spec } => {
                out.push_str("\"submit\",\"tenant\":");
                push_json_str(&mut out, tenant);
                out.push_str(",\"name\":");
                push_opt_str(&mut out, name);
                out.push_str(",\"spec\":");
                out.push_str(&spec.encode());
            }
            Request::Status { job } => {
                out.push_str("\"status\",\"job\":");
                push_json_str(&mut out, &job.to_string());
            }
            Request::List => out.push_str("\"list\""),
            Request::Watch { job } => {
                out.push_str("\"watch\",\"job\":");
                push_json_str(&mut out, &job.to_string());
            }
            Request::Cancel { job } => {
                out.push_str("\"cancel\",\"job\":");
                push_json_str(&mut out, &job.to_string());
            }
            Request::Ping => out.push_str("\"ping\""),
            Request::Shutdown { drain, deadline_ms } => {
                out.push_str("\"shutdown\"");
                // Optional trailing fields: a plain shutdown encodes
                // byte-identically to the pre-drain frame.
                if *drain {
                    let _ = write!(out, ",\"drain\":true,\"deadline_ms\":{deadline_ms}");
                }
            }
        }
        out.push('}');
        out
    }

    /// Decode one line. Any malformation is an error (the daemon maps it
    /// to a typed `bad-frame` reply).
    pub fn from_line(line: &str) -> Result<Request> {
        let json = parse_json(line).map_err(bad)?;
        let kind = json.field("type").and_then(Json::as_str).map_err(bad)?;
        Ok(match kind {
            "submit" => Request::Submit {
                tenant: json
                    .field("tenant")
                    .and_then(Json::as_str)
                    .map_err(bad)?
                    .to_owned(),
                name: opt_str(&json, "name")?,
                spec: JobSpec::from_json(json.field("spec").map_err(bad)?)?,
            },
            "status" => Request::Status {
                job: job_id(&json, "job")?,
            },
            "list" => Request::List,
            "watch" => Request::Watch {
                job: job_id(&json, "job")?,
            },
            "cancel" => Request::Cancel {
                job: job_id(&json, "job")?,
            },
            "ping" => Request::Ping,
            // Tolerant decode: pre-drain clients send a bare frame.
            "shutdown" => Request::Shutdown {
                drain: json.field("drain").and_then(Json::as_bool).unwrap_or(false),
                deadline_ms: json
                    .field("deadline_ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
            },
            other => return Err(bad(format!("unknown request type '{other}'"))),
        })
    }
}

/// A daemon → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submit passed admission control.
    Accepted {
        /// The assigned job ID.
        job: JobId,
        /// 0-based queue position at admission time.
        position: u64,
    },
    /// The submit was turned away by admission control.
    Rejected {
        /// Why (queue full, tenant queue full).
        reason: String,
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// One job's status.
    Status(JobStatus),
    /// Every known job's status.
    Jobs(Vec<JobStatus>),
    /// A streamed telemetry/trace event from a running job.
    Event {
        /// The job the event belongs to.
        job: JobId,
        /// The event payload (per-batch trace record: settled samples,
        /// best-so-far reward, retries, ...).
        data: Json,
    },
    /// End of a watch stream: the job reached a terminal state.
    Done {
        /// The finished job.
        job: JobId,
        /// Terminal state (`done`, `failed`, or `cancelled`).
        state: JobState,
        /// Final best reward, if any batch settled.
        best_reward: Option<f64>,
        /// Total simulator samples consumed.
        samples: u64,
    },
    /// A typed error.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Suggested client back-off before retrying, in milliseconds.
        /// Carried by retryable errors (`busy`); absent otherwise, so
        /// the encoding of non-retryable errors is unchanged.
        retry_after_ms: Option<u64>,
    },
    /// Liveness reply.
    Pong {
        /// The daemon's [`PROTOCOL_VERSION`].
        version: u64,
    },
    /// Acknowledges a shutdown request.
    Stopping,
}

impl Response {
    /// Encode as one canonical JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::from("{\"type\":");
        match self {
            Response::Accepted { job, position } => {
                out.push_str("\"accepted\",\"job\":");
                push_json_str(&mut out, &job.to_string());
                let _ = write!(out, ",\"position\":{position}");
            }
            Response::Rejected {
                reason,
                retry_after_ms,
            } => {
                out.push_str("\"rejected\",\"reason\":");
                push_json_str(&mut out, reason);
                let _ = write!(out, ",\"retry_after_ms\":{retry_after_ms}");
            }
            Response::Status(status) => {
                out.push_str("\"status\",");
                status.push_body(&mut out);
            }
            Response::Jobs(jobs) => {
                out.push_str("\"jobs\",\"jobs\":[");
                for (i, status) in jobs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('{');
                    status.push_body(&mut out);
                    out.push('}');
                }
                out.push(']');
            }
            Response::Event { job, data } => {
                out.push_str("\"event\",\"job\":");
                push_json_str(&mut out, &job.to_string());
                out.push_str(",\"data\":");
                out.push_str(&data.encode());
            }
            Response::Done {
                job,
                state,
                best_reward,
                samples,
            } => {
                out.push_str("\"done\",\"job\":");
                push_json_str(&mut out, &job.to_string());
                out.push_str(",\"state\":");
                push_json_str(&mut out, state.name());
                out.push_str(",\"best_reward\":");
                push_opt_f64(&mut out, *best_reward);
                let _ = write!(out, ",\"samples\":{samples}");
            }
            Response::Error {
                code,
                message,
                retry_after_ms,
            } => {
                out.push_str("\"error\",\"code\":");
                push_json_str(&mut out, code.name());
                out.push_str(",\"message\":");
                push_json_str(&mut out, message);
                if let Some(ms) = retry_after_ms {
                    let _ = write!(out, ",\"retry_after_ms\":{ms}");
                }
            }
            Response::Pong { version } => {
                let _ = write!(out, "\"pong\",\"version\":{version}");
            }
            Response::Stopping => out.push_str("\"stopping\""),
        }
        out.push('}');
        out
    }

    /// Decode one line.
    pub fn from_line(line: &str) -> Result<Response> {
        let json = parse_json(line).map_err(bad)?;
        let kind = json.field("type").and_then(Json::as_str).map_err(bad)?;
        Ok(match kind {
            "accepted" => Response::Accepted {
                job: job_id(&json, "job")?,
                position: json.field("position").and_then(Json::as_u64).map_err(bad)?,
            },
            "rejected" => Response::Rejected {
                reason: json
                    .field("reason")
                    .and_then(Json::as_str)
                    .map_err(bad)?
                    .to_owned(),
                retry_after_ms: json
                    .field("retry_after_ms")
                    .and_then(Json::as_u64)
                    .map_err(bad)?,
            },
            "status" => Response::Status(JobStatus::from_json(&json)?),
            "jobs" => {
                let mut out = Vec::new();
                for entry in json.field("jobs").and_then(Json::as_arr).map_err(bad)? {
                    out.push(JobStatus::from_json(entry)?);
                }
                Response::Jobs(out)
            }
            "event" => Response::Event {
                job: job_id(&json, "job")?,
                data: json.field("data").map_err(bad)?.clone(),
            },
            "done" => Response::Done {
                job: job_id(&json, "job")?,
                state: JobState::parse(json.field("state").and_then(Json::as_str).map_err(bad)?)?,
                best_reward: opt_f64(&json, "best_reward")?,
                samples: json.field("samples").and_then(Json::as_u64).map_err(bad)?,
            },
            "error" => Response::Error {
                code: ErrorCode::parse(json.field("code").and_then(Json::as_str).map_err(bad)?)?,
                message: json
                    .field("message")
                    .and_then(Json::as_str)
                    .map_err(bad)?
                    .to_owned(),
                retry_after_ms: match json.field("retry_after_ms") {
                    Ok(value) => Some(value.as_u64().map_err(bad)?),
                    Err(_) => None,
                },
            },
            "pong" => Response::Pong {
                version: json.field("version").and_then(Json::as_u64).map_err(bad)?,
            },
            "stopping" => Response::Stopping,
            other => return Err(bad(format!("unknown response type '{other}'"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgym_core::jobs::JobKind;

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWrite {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl io::Write for CountingWrite {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write_of_line_and_newline() {
        let mut out = CountingWrite::default();
        let lines = [Request::Ping.to_line(), Response::Stopping.to_line()];
        for (n, line) in lines.iter().enumerate() {
            write_frame(&mut out, line).unwrap();
            assert_eq!(out.writes, n + 1, "frame {n} took more than one write");
        }
        assert_eq!(
            out.bytes,
            format!("{}\n{}\n", lines[0], lines[1]).into_bytes()
        );
    }

    fn spec() -> JobSpec {
        let mut spec = JobSpec::search("dram/stream", "ga", 2000, 3);
        spec.objective = "power:1.0".into();
        spec
    }

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Submit {
                tenant: "ci".into(),
                name: None,
                spec: spec(),
            },
            Request::Submit {
                tenant: "tênant \"q\"".into(),
                name: Some("nightly/dram".into()),
                spec: JobSpec {
                    kind: JobKind::Compare,
                    agents: vec!["ga".into(), "aco".into()],
                    ..spec()
                },
            },
            Request::Submit {
                tenant: "ci".into(),
                name: Some("screened".into()),
                spec: JobSpec {
                    proxy: Some(archgym_core::screen::ScreenPolicy::default().top_k(6)),
                    ..spec()
                },
            },
            Request::Status { job: JobId(7) },
            Request::List,
            Request::Watch { job: JobId(0) },
            Request::Cancel {
                job: JobId(u64::MAX),
            },
            Request::Ping,
            Request::Shutdown {
                drain: false,
                deadline_ms: 0,
            },
            Request::Shutdown {
                drain: true,
                deadline_ms: 30_000,
            },
            Request::Submit {
                tenant: "ci".into(),
                name: Some("deadlined".into()),
                spec: JobSpec {
                    deadline_ms: 2_500,
                    ..spec()
                },
            },
        ]
    }

    fn all_responses() -> Vec<Response> {
        let status = JobStatus {
            job: JobId(3),
            tenant: "ci".into(),
            state: JobState::Running,
            best_reward: Some(0.1234567890123_f64),
            samples: 640,
            budget: 2000,
            error: None,
        };
        vec![
            Response::Accepted {
                job: JobId(3),
                position: 2,
            },
            Response::Rejected {
                reason: "queue full (64 jobs)".into(),
                retry_after_ms: 500,
            },
            Response::Status(status.clone()),
            Response::Status(JobStatus {
                best_reward: None,
                error: Some("env crashed\nmid-run".into()),
                state: JobState::Failed,
                ..status.clone()
            }),
            Response::Jobs(vec![]),
            Response::Jobs(vec![status.clone(), status]),
            Response::Event {
                job: JobId(3),
                data: parse_json(r#"{"event":"batch","batch":4,"best_reward":-0.5}"#)
                    .map_err(ArchGymError::InvalidConfig)
                    .unwrap(),
            },
            Response::Done {
                job: JobId(3),
                state: JobState::Done,
                best_reward: Some(f64::MIN_POSITIVE),
                samples: 2000,
            },
            Response::Error {
                code: ErrorCode::UnknownJob,
                message: "no job 'job-99'".into(),
                retry_after_ms: None,
            },
            Response::Error {
                code: ErrorCode::Busy,
                message: "too many connections (128)".into(),
                retry_after_ms: Some(500),
            },
            Response::Done {
                job: JobId(4),
                state: JobState::TimedOut,
                best_reward: Some(-0.25),
                samples: 512,
            },
            Response::Pong {
                version: PROTOCOL_VERSION,
            },
            Response::Stopping,
        ]
    }

    #[test]
    fn every_request_frame_round_trips() {
        for req in all_requests() {
            let line = req.to_line();
            assert!(!line.contains('\n'), "frame must be one line: {line}");
            let back = Request::from_line(&line).expect("parse own encoding");
            assert_eq!(back, req);
            assert_eq!(back.to_line(), line, "canonical re-encode");
        }
    }

    #[test]
    fn every_response_frame_round_trips() {
        for resp in all_responses() {
            let line = resp.to_line();
            assert!(!line.contains('\n'), "frame must be one line: {line}");
            let back = Response::from_line(&line).expect("parse own encoding");
            assert_eq!(back, resp);
            assert_eq!(back.to_line(), line, "canonical re-encode");
        }
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::OversizedFrame,
            ErrorCode::NonUtf8,
            ErrorCode::UnknownJob,
            ErrorCode::DuplicateJob,
            ErrorCode::BadSpec,
            ErrorCode::BadState,
            ErrorCode::Internal,
            ErrorCode::Busy,
        ] {
            assert_eq!(ErrorCode::parse(code.name()).unwrap(), code);
        }
    }

    #[test]
    fn shutdown_and_error_frames_stay_wire_compatible() {
        // A plain shutdown encodes byte-identically to the pre-drain
        // frame, and the bare legacy frame decodes as a plain shutdown.
        let plain = Request::Shutdown {
            drain: false,
            deadline_ms: 0,
        };
        assert_eq!(plain.to_line(), "{\"type\":\"shutdown\"}");
        assert_eq!(
            Request::from_line("{\"type\":\"shutdown\"}").unwrap(),
            plain
        );
        // Errors without a back-off hint encode without the field, and
        // a legacy error frame decodes with retry_after_ms = None.
        let err = Response::Error {
            code: ErrorCode::BadFrame,
            message: "nope".into(),
            retry_after_ms: None,
        };
        assert!(
            !err.to_line().contains("retry_after_ms"),
            "{}",
            err.to_line()
        );
        assert_eq!(
            Response::from_line("{\"type\":\"error\",\"code\":\"bad-frame\",\"message\":\"nope\"}")
                .unwrap(),
            err
        );
    }

    proptest::proptest! {
        #[test]
        fn prop_status_frames_round_trip(
            id in 0u64..1_000_000_000,
            tenant in "[a-zA-Z0-9 _/.\"-]{0,24}",
            reward in proptest::option::of(-1e12f64..1e12),
            samples in 0u64..1_000_000_000,
            budget in 0u64..1_000_000_000,
            state_idx in 0usize..6,
            error in proptest::option::of("[ -~]{0,40}"),
        ) {
            let states = [
                JobState::Queued,
                JobState::Running,
                JobState::Done,
                JobState::Failed,
                JobState::Cancelled,
                JobState::TimedOut,
            ];
            let resp = Response::Status(JobStatus {
                job: JobId(id),
                tenant,
                state: states[state_idx],
                best_reward: reward,
                samples,
                budget,
                error,
            });
            let line = resp.to_line();
            let back = Response::from_line(&line).expect("parse own encoding");
            proptest::prop_assert_eq!(&back, &resp);
            proptest::prop_assert_eq!(back.to_line(), line);
        }

        #[test]
        fn prop_submit_frames_round_trip(
            tenant in "[a-zA-Z0-9_-]{1,16}",
            name in proptest::option::of("[a-zA-Z0-9/_-]{1,24}"),
            env in "[a-z/-]{1,20}",
            agent in "[a-z]{1,4}",
            objective in "[a-z0-9:.,]{0,16}",
            budget in 1u64..10_000_000,
            seed in 0u64..u64::MAX,
            batch in 0usize..4096,
            eval_jobs in 0usize..64,
        ) {
            let mut spec = JobSpec::search(&env, &agent, budget, seed);
            spec.objective = objective;
            spec.batch = batch;
            spec.eval_jobs = eval_jobs;
            let req = Request::Submit { tenant, name, spec };
            let line = req.to_line();
            let back = Request::from_line(&line).expect("parse own encoding");
            proptest::prop_assert_eq!(&back, &req);
            proptest::prop_assert_eq!(back.to_line(), line);
        }

        #[test]
        fn prop_reward_bits_survive_the_wire(bits in proptest::num::u64::ANY) {
            let reward = f64::from_bits(bits);
            // NaN payloads are out of scope; every other bit pattern must
            // survive the frame encoding exactly.
            if !reward.is_nan() {
                let resp = Response::Done {
                    job: JobId(1),
                    state: JobState::Done,
                    best_reward: Some(reward),
                    samples: 1,
                };
                let back = Response::from_line(&resp.to_line()).expect("parse");
                match back {
                    Response::Done { best_reward: Some(r), .. } => {
                        proptest::prop_assert_eq!(r.to_bits(), reward.to_bits())
                    }
                    other => proptest::prop_assert!(false, "unexpected frame {:?}", other),
                }
            }
        }
    }

    #[test]
    fn malformed_lines_error_instead_of_panicking() {
        for line in [
            "",
            "{",
            "{\"type\":\"submit\"",                    // truncated frame
            "{\"type\":\"nope\"}",                     // unknown type
            "{\"no_type\":1}",                         // missing tag
            "[1,2,3]",                                 // not an object
            "{\"type\":\"status\",\"job\":\"weird\"}", // malformed job id
            "{\"type\":\"submit\",\"tenant\":\"t\",\"name\":null,\"spec\":{}}",
        ] {
            assert!(Request::from_line(line).is_err(), "should reject: {line}");
        }
        assert!(Response::from_line("{\"type\":\"pong\"}").is_err());
    }
}
