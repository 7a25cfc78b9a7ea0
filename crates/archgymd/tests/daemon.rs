//! End-to-end tests for the `archgymd` daemon over real TCP sockets.
//!
//! Every test boots an in-process [`Server`] on an ephemeral port with
//! its own temp state directory. Determinism notes:
//!
//! * Admission tests pin `max_running_per_tenant` to 0, so submitted
//!   jobs stay queued forever — queue occupancy is exact, no sleeps.
//! * Lifecycle tests synchronize on protocol frames (`watch` blocks
//!   until the `done` frame), never on timing.
//! * The resume test replays a crash by truncating the on-disk journal
//!   of a finished job and deleting its outcome record — exactly the
//!   state a SIGKILL'd daemon leaves behind.

use archgym_agents::factory::{build_agent, AgentKind};
use archgym_core::jobs::{JobId, JobKind, JobSpec, JobState, QuotaPolicy};
use archgym_core::search::{RunConfig, RunIo, SearchLoop};
use archgymd::client::{request_one, Client};
use archgymd::protocol::{ErrorCode, Request, Response, MAX_LINE_BYTES, PROTOCOL_VERSION};
use archgymd::server::{DaemonConfig, Server};
use archgymd::spec::make_env;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Daemon {
    addr: String,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Boot a daemon on an ephemeral port over `state_dir`.
    fn boot(state_dir: &Path, workers: usize, quota: QuotaPolicy) -> Daemon {
        Self::boot_config(state_dir, |config| {
            config.workers = workers;
            config.quota = quota;
        })
    }

    /// Boot with arbitrary config tweaks (watchdog, connection cap, ...).
    fn boot_config(state_dir: &Path, tweak: impl FnOnce(&mut DaemonConfig)) -> Daemon {
        let mut config = DaemonConfig::new("127.0.0.1:0", state_dir);
        tweak(&mut config);
        let server = Server::bind(config).expect("bind daemon");
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || {
            server.run().expect("daemon run");
        });
        Daemon {
            addr,
            thread: Some(thread),
        }
    }

    fn stop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let shutdown = Request::Shutdown {
                drain: false,
                deadline_ms: 0,
            };
            // Under a connection cap, a just-closed connection can hold
            // its slot until its handler thread exits, so the shutdown
            // may be answered `busy`: retry until it lands (bounded, in
            // case the daemon already died).
            for _ in 0..500 {
                if let Ok(Response::Stopping) = request_one(&self.addr, &shutdown) {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            thread.join().expect("daemon thread");
        }
    }

    /// Drain-shutdown: the `stopping` reply only arrives once every
    /// admitted job reached a terminal state (or the deadline passed).
    fn drain_stop(&mut self, deadline_ms: u64) {
        if let Some(thread) = self.thread.take() {
            match request_one(
                &self.addr,
                &Request::Shutdown {
                    drain: true,
                    deadline_ms,
                },
            )
            .expect("drain round-trip")
            {
                Response::Stopping => {}
                other => panic!("expected stopping, got {other:?}"),
            }
            thread.join().expect("daemon thread");
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A per-test scratch state directory, pre-cleaned so reruns start
/// fresh (the resume test restarts a second daemon over the same dir,
/// so teardown must not delete it mid-test).
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("archgymd-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_spec(budget: u64, seed: u64) -> JobSpec {
    let mut spec = JobSpec::search("dram/stream", "ga", budget, seed);
    spec.objective = "power:1.0".into();
    spec
}

fn submit(addr: &str, tenant: &str, name: Option<&str>, spec: JobSpec) -> Response {
    request_one(
        addr,
        &Request::Submit {
            tenant: tenant.into(),
            name: name.map(str::to_owned),
            spec,
        },
    )
    .expect("submit round-trip")
}

/// Watch `job` until its `done` frame; returns (state, best, samples, events).
fn watch_to_done(addr: &str, job: JobId) -> (JobState, Option<f64>, u64, usize) {
    let mut client = Client::connect(addr).expect("connect");
    client.send(&Request::Watch { job }).expect("send watch");
    let mut events = 0;
    loop {
        match client.recv().expect("watch stream") {
            Some(Response::Event { .. }) => events += 1,
            Some(Response::Done {
                state,
                best_reward,
                samples,
                ..
            }) => return (state, best_reward, samples, events),
            Some(other) => panic!("unexpected frame in watch stream: {other:?}"),
            None => panic!("watch stream closed without a done frame"),
        }
    }
}

#[test]
fn job_runs_to_completion_with_streamed_events() {
    let mut daemon = Daemon::boot(&state_dir("lifecycle"), 2, QuotaPolicy::default());
    let Response::Accepted { job, position } =
        submit(&daemon.addr, "ci", Some("smoke"), small_spec(300, 3))
    else {
        panic!("submit not accepted")
    };
    assert_eq!(position, 0);

    let (state, best, samples, events) = watch_to_done(&daemon.addr, job);
    assert_eq!(state, JobState::Done);
    assert_eq!(samples, 300);
    assert!(events > 0, "watch must stream per-batch events");
    let best = best.expect("finished search has a best reward");

    // Status agrees with the stream, and a late watcher replays the
    // backlog then closes with the same terminal frame.
    let Response::Status(status) = request_one(&daemon.addr, &Request::Status { job }).unwrap()
    else {
        panic!("expected status frame")
    };
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.samples, 300);
    assert_eq!(status.best_reward, Some(best));
    let (state, late_best, _, late_events) = watch_to_done(&daemon.addr, job);
    assert_eq!(state, JobState::Done);
    assert_eq!(late_best, Some(best));
    assert_eq!(late_events, events, "backlog replay covers every event");

    let Response::Jobs(jobs) = request_one(&daemon.addr, &Request::List).unwrap() else {
        panic!("expected jobs frame")
    };
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].job, job);
    daemon.stop();
}

#[test]
fn ping_round_trips_on_one_connection_do_not_wait_out_delayed_acks() {
    // A frame written as two segments (line, then newline) stalls on
    // Nagle + delayed ACK: ~40 ms per end per round trip on a reused
    // connection, so 100 pings would take seconds instead of
    // milliseconds.
    let mut daemon = Daemon::boot(&state_dir("ping"), 1, QuotaPolicy::default());
    let mut client = Client::connect(&daemon.addr).expect("connect");
    let start = Instant::now();
    for _ in 0..100 {
        match client.round_trip(&Request::Ping).expect("ping round-trip") {
            Response::Pong { version } => assert_eq!(version, PROTOCOL_VERSION),
            other => panic!("expected pong, got {other:?}"),
        }
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "100 ping round trips took {elapsed:?}"
    );
    drop(client);
    daemon.stop();
}

#[test]
fn objective_less_searches_run_the_family_default_on_every_family() {
    const BUDGET: u64 = 96;
    const SEED: u64 = 4;
    let mut daemon = Daemon::boot(&state_dir("default-objective"), 2, QuotaPolicy::default());
    for env in [
        "dram/stream",
        "timeloop/resnet50",
        "farsi/edge-detection",
        "maestro/resnet18/stage2",
    ] {
        let reference = {
            let env = make_env(env, None).unwrap();
            let mut agent =
                build_agent(AgentKind::Ga, env.space(), &Default::default(), SEED).unwrap();
            SearchLoop::new(RunConfig::with_budget(BUDGET).batch(0))
                .run_env_with(&mut agent, env, RunIo::default())
                .unwrap()
        };
        let spec = JobSpec::search(env, "ga", BUDGET, SEED);
        assert!(spec.objective.is_empty());
        let Response::Accepted { job, .. } = submit(&daemon.addr, "ci", None, spec) else {
            panic!("{env}: objective-less submit not accepted")
        };
        let (state, best, samples, _) = watch_to_done(&daemon.addr, job);
        assert_eq!(state, JobState::Done, "{env}");
        assert_eq!(samples, reference.samples_used, "{env}");
        assert_eq!(
            best.map(f64::to_bits),
            Some(reference.best_reward.to_bits()),
            "{env}: daemon default objective differs from the library's"
        );
    }
    daemon.stop();
}

#[test]
fn identical_specs_give_bit_identical_rewards_across_jobs() {
    let mut daemon = Daemon::boot(&state_dir("deterministic"), 2, QuotaPolicy::default());
    let mut rewards = Vec::new();
    for _ in 0..2 {
        let Response::Accepted { job, .. } = submit(&daemon.addr, "ci", None, small_spec(256, 9))
        else {
            panic!("submit not accepted")
        };
        let (state, best, _, _) = watch_to_done(&daemon.addr, job);
        assert_eq!(state, JobState::Done);
        rewards.push(best.expect("best reward").to_bits());
    }
    assert_eq!(rewards[0], rewards[1], "same spec must be bit-identical");
    daemon.stop();
}

#[test]
fn malformed_input_gets_typed_errors_and_daemon_survives() {
    let mut daemon = Daemon::boot(&state_dir("malformed"), 1, QuotaPolicy::default());

    // Truncated / non-JSON / unknown-type frames → bad-frame, same
    // connection keeps working.
    let mut client = Client::connect(&daemon.addr).expect("connect");
    let stream = TcpStream::connect(&daemon.addr).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut raw = stream;
    for line in [
        "not json",
        "{\"type\":\"submit\"",
        "{\"type\":\"nope\"}",
        "[]",
    ] {
        writeln!(raw, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        match Response::from_line(reply.trim()).expect("typed reply") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame, "{line}"),
            other => panic!("expected bad-frame error for {line}, got {other:?}"),
        }
    }

    // Non-UTF-8 bytes → non-utf8.
    raw.write_all(&[0xff, 0xfe, 0x80, b'\n']).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match Response::from_line(reply.trim()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NonUtf8),
        other => panic!("expected non-utf8 error, got {other:?}"),
    }

    // Oversized line → oversized-frame, then the daemon closes the
    // connection without reading the rest.
    let mut big = vec![b'x'; MAX_LINE_BYTES + 16];
    big.push(b'\n');
    raw.write_all(&big).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match Response::from_line(reply.trim()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::OversizedFrame),
        other => panic!("expected oversized-frame error, got {other:?}"),
    }

    // Unknown job → unknown-job; bad spec → bad-spec (validated at
    // submit, before admission).
    match client
        .round_trip(&Request::Status { job: JobId(999) })
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownJob),
        other => panic!("expected unknown-job, got {other:?}"),
    }
    match client
        .round_trip(&Request::Cancel { job: JobId(999) })
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownJob),
        other => panic!("expected unknown-job, got {other:?}"),
    }
    let bad_env = JobSpec::search("not-a-family/xyz", "ga", 100, 0);
    match submit(&daemon.addr, "ci", None, bad_env) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadSpec),
        other => panic!("expected bad-spec, got {other:?}"),
    }
    let bad_agent = JobSpec::search("dram/stream", "zzz", 100, 0);
    match submit(&daemon.addr, "ci", None, bad_agent) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadSpec),
        other => panic!("expected bad-spec, got {other:?}"),
    }

    // The daemon is still healthy after all of the above.
    match client.round_trip(&Request::Ping).unwrap() {
        Response::Pong { version } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected pong, got {other:?}"),
    }
    daemon.stop();
}

/// Admission control, observed through the wire. `max_running = 0`
/// keeps every job queued, so occupancy is exact without sleeps.
#[test]
fn quotas_queue_reject_and_isolate_tenants() {
    let quota = QuotaPolicy {
        max_running_per_tenant: 0,
        max_queued_per_tenant: 2,
        queue_capacity: 3,
        retry_after_ms: 250,
    };
    let mut daemon = Daemon::boot(&state_dir("quota"), 1, quota);

    // Tenant A fills its per-tenant queue allowance...
    for expect_pos in 0..2 {
        match submit(&daemon.addr, "tenant-a", None, small_spec(100, 1)) {
            Response::Accepted { position, .. } => assert_eq!(position, expect_pos),
            other => panic!("expected accept, got {other:?}"),
        }
    }
    // ...then gets a clean per-tenant reject with the back-off hint.
    match submit(&daemon.addr, "tenant-a", None, small_spec(100, 1)) {
        Response::Rejected {
            reason,
            retry_after_ms,
        } => {
            assert!(
                reason.contains("tenant-a"),
                "reason names the tenant: {reason}"
            );
            assert_eq!(retry_after_ms, 250);
        }
        other => panic!("expected rejected, got {other:?}"),
    }

    // The flood cannot starve tenant B: one global slot remains and B
    // gets it.
    match submit(&daemon.addr, "tenant-b", None, small_spec(100, 2)) {
        Response::Accepted { position, .. } => assert_eq!(position, 2),
        other => panic!("expected accept for tenant-b, got {other:?}"),
    }
    // Now the global queue is full — even a fresh tenant is rejected.
    match submit(&daemon.addr, "tenant-c", None, small_spec(100, 3)) {
        Response::Rejected { reason, .. } => {
            assert!(reason.contains("queue full"), "global reject: {reason}")
        }
        other => panic!("expected rejected, got {other:?}"),
    }

    // Cancelling a queued job frees its slot.
    let Response::Jobs(jobs) = request_one(&daemon.addr, &Request::List).unwrap() else {
        panic!("expected jobs frame")
    };
    let queued = jobs
        .iter()
        .find(|status| status.tenant == "tenant-a")
        .expect("tenant-a job listed");
    match request_one(&daemon.addr, &Request::Cancel { job: queued.job }).unwrap() {
        Response::Status(status) => assert_eq!(status.state, JobState::Cancelled),
        other => panic!("expected status, got {other:?}"),
    }
    match submit(&daemon.addr, "tenant-c", None, small_spec(100, 3)) {
        Response::Accepted { .. } => {}
        other => panic!("cancel must free a queue slot, got {other:?}"),
    }
    daemon.stop();
}

#[test]
fn duplicate_names_rejected_and_cancel_of_done_job_is_bad_state() {
    let mut daemon = Daemon::boot(&state_dir("names"), 1, QuotaPolicy::default());
    let Response::Accepted { job, .. } =
        submit(&daemon.addr, "ci", Some("unique"), small_spec(200, 4))
    else {
        panic!("submit not accepted")
    };
    match submit(&daemon.addr, "ci", Some("unique"), small_spec(200, 5)) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::DuplicateJob),
        other => panic!("expected duplicate-job, got {other:?}"),
    }
    let (state, _, _, _) = watch_to_done(&daemon.addr, job);
    assert_eq!(state, JobState::Done);
    match request_one(&daemon.addr, &Request::Cancel { job }).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadState),
        other => panic!("expected bad-state, got {other:?}"),
    }
    daemon.stop();
}

/// The crash-recovery guarantee: a daemon restarted over a state dir
/// holding an interrupted job (its `.job` record and a truncated run
/// journal — what SIGKILL leaves behind) re-admits the job, resumes
/// from the journal, and lands on a best reward bit-identical to the
/// uninterrupted reference run.
#[test]
fn restart_resumes_interrupted_jobs_bit_identically() {
    let dir = state_dir("resume");

    // Reference: run the job to completion and remember its outcome.
    let mut daemon = Daemon::boot(&dir, 1, QuotaPolicy::default());
    let Response::Accepted { job, .. } = submit(&daemon.addr, "ci", None, small_spec(400, 11))
    else {
        panic!("submit not accepted")
    };
    let (state, reference, samples, _) = watch_to_done(&daemon.addr, job);
    assert_eq!(state, JobState::Done);
    assert_eq!(samples, 400);
    let reference = reference.expect("reference best reward");
    daemon.stop();

    // Forge the crash: drop the outcome record and truncate the journal
    // mid-run (keep the header and roughly half the entries), exactly
    // the torn state an abrupt kill leaves.
    std::fs::remove_file(dir.join(format!("{job}.done"))).expect("remove outcome");
    let journal_path = dir.join(format!("{job}.jsonl"));
    let journal = std::fs::read_to_string(&journal_path).expect("read journal");
    let lines: Vec<&str> = journal.lines().collect();
    assert!(lines.len() > 4, "journal should hold several records");
    let keep = lines.len() / 2;
    let mut truncated = lines[..keep].join("\n");
    truncated.push('\n');
    // Torn tail: half a record, as if the write was cut mid-line.
    truncated.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(&journal_path, truncated).expect("truncate journal");

    // Restart over the same state dir: the job comes back queued, runs,
    // and finishes with the exact same reward.
    let mut daemon = Daemon::boot(&dir, 1, QuotaPolicy::default());
    let (state, resumed, samples, _) = watch_to_done(&daemon.addr, job);
    assert_eq!(state, JobState::Done);
    assert_eq!(samples, 400);
    assert_eq!(
        resumed.expect("resumed best reward").to_bits(),
        reference.to_bits(),
        "journal resume must be bit-identical to the uninterrupted run"
    );
    daemon.stop();
}

/// Proxy-screened jobs: the optional `proxy` spec field survives the
/// protocol, the job completes under its true-sample budget, identical
/// screened specs are bit-identical, and a degenerate policy is a
/// `bad-spec` rejection at submit time (not a failed job).
#[test]
fn screened_jobs_run_deterministically_and_bad_policies_are_rejected() {
    use archgym_core::screen::ScreenPolicy;
    let mut daemon = Daemon::boot(&state_dir("proxy"), 2, QuotaPolicy::default());
    let screened = || {
        let mut spec = small_spec(200, 21);
        spec.proxy = Some(ScreenPolicy::default().warmup(48));
        spec
    };
    let mut rewards = Vec::new();
    for _ in 0..2 {
        let Response::Accepted { job, .. } = submit(&daemon.addr, "ci", None, screened()) else {
            panic!("submit not accepted")
        };
        let (state, best, samples, events) = watch_to_done(&daemon.addr, job);
        assert_eq!(state, JobState::Done);
        assert_eq!(samples, 200, "budget counts true simulations only");
        assert!(events > 0);
        rewards.push(best.expect("best reward").to_bits());
    }
    assert_eq!(rewards[0], rewards[1], "screened runs are deterministic");

    let mut bad = small_spec(100, 1);
    bad.proxy = Some(ScreenPolicy::default().oversample(1));
    match submit(&daemon.addr, "ci", None, bad) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadSpec),
        other => panic!("expected bad-spec for degenerate proxy, got {other:?}"),
    }
    daemon.stop();
}

/// The screened flavor of the crash-recovery guarantee: a SIGKILL'd
/// screened job (torn journal, missing outcome record) resumes through
/// its journaled `screen` records to a bit-identical best reward.
#[test]
fn restart_resumes_screened_jobs_bit_identically() {
    use archgym_core::screen::ScreenPolicy;
    let dir = state_dir("proxy-resume");

    let mut spec = small_spec(300, 33);
    spec.proxy = Some(ScreenPolicy::default().warmup(64).revalidate_every(4));

    let mut daemon = Daemon::boot(&dir, 1, QuotaPolicy::default());
    let Response::Accepted { job, .. } = submit(&daemon.addr, "ci", None, spec) else {
        panic!("submit not accepted")
    };
    let (state, reference, samples, _) = watch_to_done(&daemon.addr, job);
    assert_eq!(state, JobState::Done);
    assert_eq!(samples, 300);
    let reference = reference.expect("reference best reward");
    daemon.stop();

    // Forge the crash exactly like the unscreened resume test: drop the
    // outcome, keep half the journal plus a torn tail.
    std::fs::remove_file(dir.join(format!("{job}.done"))).expect("remove outcome");
    let journal_path = dir.join(format!("{job}.jsonl"));
    let journal = std::fs::read_to_string(&journal_path).expect("read journal");
    assert!(
        journal.contains("\"type\":\"screen\""),
        "screened journals must pin admission decisions"
    );
    let lines: Vec<&str> = journal.lines().collect();
    assert!(lines.len() > 4, "journal should hold several records");
    let keep = lines.len() / 2;
    let mut truncated = lines[..keep].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(&journal_path, truncated).expect("truncate journal");

    let mut daemon = Daemon::boot(&dir, 1, QuotaPolicy::default());
    let (state, resumed, samples, _) = watch_to_done(&daemon.addr, job);
    assert_eq!(state, JobState::Done);
    assert_eq!(samples, 300);
    assert_eq!(
        resumed.expect("resumed best reward").to_bits(),
        reference.to_bits(),
        "screened journal resume must be bit-identical"
    );
    daemon.stop();
}

/// A job that cannot finish inside its `deadline_ms` is stopped at a
/// batch boundary and lands in `timed-out` with its best-so-far reward
/// persisted — while another tenant's job finishes normally.
#[test]
fn deadline_jobs_time_out_while_other_tenants_finish() {
    let dir = state_dir("deadline");
    let mut daemon = Daemon::boot(&dir, 2, QuotaPolicy::default());
    let mut slow = small_spec(1_000_000, 7);
    slow.deadline_ms = 250;
    let Response::Accepted { job: slow_job, .. } = submit(&daemon.addr, "tenant-a", None, slow)
    else {
        panic!("submit not accepted")
    };
    let Response::Accepted { job: fast_job, .. } =
        submit(&daemon.addr, "tenant-b", None, small_spec(200, 8))
    else {
        panic!("submit not accepted")
    };

    let (state, best, samples, _) = watch_to_done(&daemon.addr, slow_job);
    assert_eq!(state, JobState::TimedOut);
    assert!(best.is_some(), "timed-out jobs keep their best-so-far");
    assert!(
        samples > 0 && samples < 1_000_000,
        "stopped early: {samples}"
    );

    let (state, _, samples, _) = watch_to_done(&daemon.addr, fast_job);
    assert_eq!(state, JobState::Done, "other tenants are unaffected");
    assert_eq!(samples, 200);

    // The timed-out outcome is durable: still `timed-out` after restart.
    daemon.stop();
    let mut daemon = Daemon::boot(&dir, 2, QuotaPolicy::default());
    let Response::Status(status) =
        request_one(&daemon.addr, &Request::Status { job: slow_job }).unwrap()
    else {
        panic!("expected status frame")
    };
    assert_eq!(status.state, JobState::TimedOut);
    daemon.stop();
}

/// The worker watchdog: a job wedged inside its cost model (the hidden
/// `test/stall` environment never returns from `step`) is failed with a
/// stall error, the worker is retired and replaced, and the single-slot
/// fleet keeps serving other jobs.
#[test]
fn watchdog_fails_stalled_jobs_and_respawns_the_worker() {
    let mut daemon = Daemon::boot_config(&state_dir("watchdog"), |config| {
        config.workers = 1;
        config.stall_after_ms = 300;
    });
    let stall = JobSpec::search("test/stall", "rw", 50, 1);
    let Response::Accepted { job, .. } = submit(&daemon.addr, "ci", None, stall) else {
        panic!("submit not accepted")
    };
    let (state, _, _, _) = watch_to_done(&daemon.addr, job);
    assert_eq!(state, JobState::Failed);
    let Response::Status(status) = request_one(&daemon.addr, &Request::Status { job }).unwrap()
    else {
        panic!("expected status frame")
    };
    assert!(
        status.error.as_deref().unwrap_or("").contains("stalled"),
        "failure names the stall: {:?}",
        status.error
    );

    // The lone worker slot was wedged forever; only a respawned
    // replacement can run this follow-up job.
    let Response::Accepted { job, .. } = submit(&daemon.addr, "ci", None, small_spec(100, 2))
    else {
        panic!("submit not accepted")
    };
    let (state, _, samples, _) = watch_to_done(&daemon.addr, job);
    assert_eq!(state, JobState::Done);
    assert_eq!(samples, 100);
    daemon.stop();
}

/// The accept-loop connection cap: with one slot held, the next
/// connection gets an inline typed `busy` error carrying the retry
/// hint, and the slot frees once the first client hangs up.
#[test]
fn connection_cap_returns_typed_busy_errors() {
    let mut daemon = Daemon::boot_config(&state_dir("busy"), |config| {
        config.max_connections = 1;
        config.quota.retry_after_ms = 123;
    });
    let mut held = Client::connect(&daemon.addr).expect("first connection");
    match held.round_trip(&Request::Ping).unwrap() {
        Response::Pong { .. } => {}
        other => panic!("expected pong, got {other:?}"),
    }

    let stream = TcpStream::connect(&daemon.addr).expect("second connection");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("busy reply");
    match Response::from_line(reply.trim()).expect("typed busy frame") {
        Response::Error {
            code,
            retry_after_ms,
            ..
        } => {
            assert_eq!(code, ErrorCode::Busy);
            assert_eq!(retry_after_ms, Some(123));
        }
        other => panic!("expected busy error, got {other:?}"),
    }

    // Hanging up frees the slot (the handler thread exits asynchronously).
    drop(held);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if let Ok(Response::Pong { .. }) = request_one(&daemon.addr, &Request::Ping) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "connection slot never freed"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    daemon.stop();
}

/// Graceful drain: `shutdown {drain:true}` closes admission, lets every
/// admitted job reach a terminal state before replying, and a restart
/// over the drained state dir shows exactly one outcome per job — no
/// losses, no duplicates, no re-runs.
#[test]
fn drain_shutdown_finishes_admitted_jobs_without_loss_or_duplication() {
    let dir = state_dir("drain");
    let mut daemon = Daemon::boot(&dir, 1, QuotaPolicy::default());
    let mut jobs = Vec::new();
    for seed in 0..3 {
        let Response::Accepted { job, .. } =
            submit(&daemon.addr, "ci", None, small_spec(300, seed))
        else {
            panic!("submit not accepted")
        };
        jobs.push(job);
    }
    // One worker: at most one job is running; the rest are queued when
    // the drain lands mid-flight.
    daemon.drain_stop(60_000);

    let mut daemon = Daemon::boot(&dir, 1, QuotaPolicy::default());
    let Response::Jobs(list) = request_one(&daemon.addr, &Request::List).unwrap() else {
        panic!("expected jobs frame")
    };
    assert_eq!(list.len(), jobs.len());
    for status in &list {
        assert_eq!(
            status.state,
            JobState::Done,
            "{}: drained to done",
            status.job
        );
        assert_eq!(status.samples, 300);
    }
    for job in &jobs {
        assert!(
            dir.join(format!("{job}.done")).exists(),
            "{job} outcome persisted exactly once"
        );
    }
    let quarantined: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".corrupt"))
        .collect();
    assert!(quarantined.is_empty(), "clean drain: {quarantined:?}");
    daemon.stop();
}

/// Plain (non-drain) shutdown interrupts in-flight jobs at a batch
/// boundary; the job stays in-flight (no outcome record) and a restart
/// resumes it from the journal to a reward bit-identical to an
/// uninterrupted reference run.
#[test]
fn plain_shutdown_interrupts_jobs_and_restart_resumes_bit_identically() {
    // Reference: the same spec run to completion in its own state dir.
    let ref_dir = state_dir("interrupt-ref");
    let mut daemon = Daemon::boot(&ref_dir, 1, QuotaPolicy::default());
    let Response::Accepted { job, .. } = submit(&daemon.addr, "ci", None, small_spec(2_000, 17))
    else {
        panic!("submit not accepted")
    };
    let (state, reference, samples, _) = watch_to_done(&daemon.addr, job);
    assert_eq!(state, JobState::Done);
    assert_eq!(samples, 2_000);
    let reference = reference.expect("reference best reward");
    daemon.stop();

    // Interrupted run: plain shutdown lands after the first settled
    // batch, well before the budget is spent.
    let dir = state_dir("interrupt");
    let mut daemon = Daemon::boot(&dir, 1, QuotaPolicy::default());
    let Response::Accepted { job, .. } = submit(&daemon.addr, "ci", None, small_spec(2_000, 17))
    else {
        panic!("submit not accepted")
    };
    let mut watcher = Client::connect(&daemon.addr).expect("watch connect");
    watcher.send(&Request::Watch { job }).expect("send watch");
    loop {
        match watcher.recv().expect("watch stream") {
            Some(Response::Event { .. }) => break, // mid-run
            Some(Response::Done { .. }) => panic!("job finished before the shutdown"),
            Some(_) => continue,
            None => panic!("watch closed early"),
        }
    }
    daemon.stop();
    assert!(
        !dir.join(format!("{job}.done")).exists(),
        "interrupted jobs stay in-flight, not cancelled/failed"
    );

    let mut daemon = Daemon::boot(&dir, 1, QuotaPolicy::default());
    let (state, resumed, samples, _) = watch_to_done(&daemon.addr, job);
    assert_eq!(state, JobState::Done);
    assert_eq!(samples, 2_000);
    assert_eq!(
        resumed.expect("resumed best reward").to_bits(),
        reference.to_bits(),
        "interrupt + restart must be bit-identical to the uninterrupted run"
    );
    daemon.stop();
}

/// Compare jobs run the whole roster and report the roster-wide best.
#[test]
fn compare_jobs_report_the_roster_best() {
    let mut daemon = Daemon::boot(&state_dir("compare"), 1, QuotaPolicy::default());
    let mut spec = small_spec(200, 6);
    spec.kind = JobKind::Compare;
    spec.agents = vec!["rw".into(), "ga".into()];
    let Response::Accepted { job, .. } = submit(&daemon.addr, "ci", None, spec) else {
        panic!("submit not accepted")
    };
    let (state, best, samples, _) = watch_to_done(&daemon.addr, job);
    assert_eq!(state, JobState::Done);
    assert_eq!(samples, 400, "both roster entries consume their budget");
    assert!(best.is_some());
    daemon.stop();
}

/// A compare job without `agents` runs the extended default roster, as
/// `JobSpec::agents` documents and the CLI's `compare` does.
#[test]
fn compare_jobs_without_agents_run_the_extended_roster() {
    let mut daemon = Daemon::boot(&state_dir("compare-default"), 1, QuotaPolicy::default());
    let mut spec = small_spec(32, 6);
    spec.kind = JobKind::Compare;
    let Response::Accepted { job, .. } = submit(&daemon.addr, "ci", None, spec) else {
        panic!("submit not accepted")
    };
    let (state, best, samples, _) = watch_to_done(&daemon.addr, job);
    assert_eq!(state, JobState::Done);
    assert_eq!(samples, AgentKind::EXTENDED.len() as u64 * 32);
    assert!(best.is_some());
    daemon.stop();
}

/// A race whose agents filter leaves no lane is a `bad-spec` rejection at
/// submit time, not a job that fails later.
#[test]
fn race_jobs_without_lanes_are_rejected_at_submit() {
    let mut daemon = Daemon::boot(&state_dir("race-empty"), 1, QuotaPolicy::default());
    let mut spec = JobSpec::race("dram/stream", 64, 1);
    // The random walker never races.
    spec.agents = vec!["rw".into()];
    match submit(&daemon.addr, "ci", None, spec) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadSpec),
        other => panic!("expected bad-spec for an empty race roster, got {other:?}"),
    }
    daemon.stop();
}

/// Sweep runs are unscreened at the library batch, so a sweep spec with
/// `proxy` set or a nonzero `batch` is a `bad-spec` rejection at submit
/// time naming the field, not a job that silently runs without them.
#[test]
fn sweep_jobs_with_a_proxy_or_a_batch_are_rejected_at_submit() {
    use archgym_core::screen::ScreenPolicy;
    let mut daemon = Daemon::boot(&state_dir("sweep-bad"), 1, QuotaPolicy::default());
    let mut screened = small_spec(24, 5);
    screened.kind = JobKind::Sweep;
    screened.proxy = Some(ScreenPolicy::default());
    let mut batched = small_spec(24, 5);
    batched.kind = JobKind::Sweep;
    batched.batch = 8;
    for (spec, field) in [(screened, "`proxy`"), (batched, "`batch`")] {
        match submit(&daemon.addr, "ci", None, spec) {
            Response::Error { code, message, .. } => {
                assert_eq!(code, ErrorCode::BadSpec);
                assert!(message.contains(field), "{message}");
            }
            other => panic!("expected bad-spec naming {field}, got {other:?}"),
        }
    }
    daemon.stop();
}

/// A sweep job runs seeds `seed .. seed + sweep_seeds` and reports the
/// samples its runs used: the same best reward bits and sample count as
/// the library `Sweep` over those seeds and the first nine assignments
/// of the family's default grid.
#[test]
fn sweep_jobs_start_at_the_spec_seed() {
    use archgym_agents::factory::default_grid;
    use archgym_core::sweep::Sweep;
    let mut daemon = Daemon::boot(&state_dir("sweep"), 1, QuotaPolicy::default());
    let mut spec = small_spec(24, 5);
    spec.kind = JobKind::Sweep;
    spec.sweep_seeds = 2;
    let Response::Accepted { job, .. } = submit(&daemon.addr, "ci", None, spec) else {
        panic!("submit not accepted")
    };
    let (state, best, samples, _) = watch_to_done(&daemon.addr, job);
    daemon.stop();
    assert_eq!(state, JobState::Done);

    let env = make_env("dram/stream", Some("power:1.0")).unwrap();
    let grid: Vec<_> = default_grid(AgentKind::Ga).iter().take(9).collect();
    let reference = Sweep::new(RunConfig::with_budget(24).record(false))
        .seeds(5..7)
        .run_assignments(
            "ga",
            &grid,
            || env.clone(),
            |hyper, seed| build_agent(AgentKind::Ga, env.space(), hyper, seed),
        )
        .unwrap();
    assert_eq!(
        best.map(f64::to_bits),
        Some(reference.winner().result.best_reward.to_bits())
    );
    let used: u64 = reference.points.iter().map(|p| p.result.samples_used).sum();
    assert_eq!(samples, used);
}
