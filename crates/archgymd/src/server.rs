//! The `archgymd` daemon: a multi-tenant search service over TCP.
//!
//! One [`Server`] owns a [`JobStore`] state directory, a
//! [`Scheduler`] for quota-based admission control, and a supervised
//! fleet of worker threads. Clients speak the line-delimited JSON
//! protocol from [`protocol`](crate::protocol); accepted jobs are
//! persisted *before* they are admitted, and every job runs through
//! [`job::run`] with its journals inside the
//! state directory — so a daemon killed mid-job (even with SIGKILL)
//! re-admits the job on restart and the journal replay finishes it
//! bit-identically to an uninterrupted run.
//!
//! Robustness machinery on top of that base:
//!
//! * **Deadlines** — a job with `deadline_ms` set is stopped at the
//!   first batch boundary past its deadline and lands in the terminal
//!   [`JobState::TimedOut`] with its best-so-far result persisted.
//! * **Watchdog** — workers heartbeat a per-batch epoch; a supervisor
//!   thread retires any worker silent past `stall_after_ms`, fails its
//!   job, and spawns a replacement so one wedged cost model cannot eat
//!   the fleet.
//! * **Drain** — `shutdown {drain:true}` stops admission, lets
//!   admitted jobs finish (bounded by a drain deadline), then stops;
//!   plain `shutdown` interrupts in-flight jobs at a batch boundary and
//!   leaves them journaled for the next start to resume.
//! * **Connection cap** — the accept loop holds at most
//!   `max_connections` live client threads; excess connections get an
//!   inline typed `busy` error with a retry hint.
//!
//! Threading model: one accept loop, one thread per client connection
//! (capped), `workers` job threads parked on a condvar over the
//! scheduler, one supervisor. Lock order inside a job handle is
//! events → progress → watchers; the scheduler lock is never held
//! while a job runs. All mutexes recover from poisoning (a panicking
//! peer thread must not wedge the daemon).

use crate::job::{self, BoxedAgent, Hooks, Journal};
use crate::protocol::{
    push_frame, write_frame, ErrorCode, JobStatus, Request, Response, MAX_LINE_BYTES,
    PROTOCOL_VERSION,
};
use crate::store::{JobOutcome, JobStore, PersistedJob};
use archgym_core::codec::{parse_json, Json};
use archgym_core::error::Result;
use archgym_core::jobs::{Admission, JobId, JobSpec, JobState, QuotaPolicy, Scheduler, Watchdog};
use archgym_core::storeio::{real_io, Durability, StoreIo};
use archgym_core::telemetry::Recorder;
use archgym_core::{Action, Agent, StepResult};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Lock a mutex, recovering from poisoning: a worker that panicked
/// while holding a lock already reported a failed job; the shared
/// state it guarded is still structurally valid.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address, e.g. `127.0.0.1:7170` (`:0` picks a free port).
    pub addr: String,
    /// State directory for job specs, journals, and outcomes.
    pub state_dir: PathBuf,
    /// Worker threads — the maximum number of concurrently running jobs.
    pub workers: usize,
    /// Admission-control knobs.
    pub quota: QuotaPolicy,
    /// Fsync policy for journals and store records (default `batch`).
    pub durability: Durability,
    /// Maximum live client connections; excess get a typed `busy`
    /// error with a retry hint (default 128).
    pub max_connections: usize,
    /// Retire a worker silent for longer than this many milliseconds
    /// (`0` disables the watchdog; default 30 000).
    pub stall_after_ms: u64,
}

impl DaemonConfig {
    /// A config with default workers (2), quotas, `batch` durability,
    /// a 128-connection cap, and a 30 s worker stall threshold.
    pub fn new(addr: impl Into<String>, state_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            addr: addr.into(),
            state_dir: state_dir.into(),
            workers: 2,
            quota: QuotaPolicy::default(),
            durability: Durability::Batch,
            max_connections: 128,
            stall_after_ms: 30_000,
        }
    }
}

#[derive(Debug, Clone)]
struct JobProgress {
    state: JobState,
    best_reward: Option<f64>,
    samples: u64,
    error: Option<String>,
}

/// In-memory state for one job: live progress, the event backlog every
/// new watcher replays, and the subscribed watcher sockets.
struct JobHandle {
    id: JobId,
    tenant: String,
    spec: JobSpec,
    // Lock order: events → progress → watchers. `events` doubles as the
    // barrier that makes watch registration race-free against finish().
    /// The event backlog as wire bytes: every frame already terminated.
    events: Mutex<String>,
    progress: Mutex<JobProgress>,
    watchers: Mutex<Vec<TcpStream>>,
    cancel: AtomicBool,
    /// Set when the job's deadline passed at a batch boundary.
    timed_out: AtomicBool,
    /// Heartbeat epoch: bumped every proposed batch and every trace
    /// line; the supervisor feeds it to the [`Watchdog`].
    beat: AtomicU64,
    /// Exactly-once guard over the terminal outcome: the worker and the
    /// supervisor race to record it, whoever wins the CAS writes it.
    claimed: AtomicBool,
    /// Absolute deadline for the current execution attempt.
    deadline: Mutex<Option<Instant>>,
}

impl JobHandle {
    fn new(job: &PersistedJob, state: JobState) -> JobHandle {
        JobHandle {
            id: job.id,
            tenant: job.tenant.clone(),
            spec: job.spec.clone(),
            events: Mutex::new(String::new()),
            progress: Mutex::new(JobProgress {
                state,
                best_reward: None,
                samples: 0,
                error: None,
            }),
            watchers: Mutex::new(Vec::new()),
            cancel: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            beat: AtomicU64::new(0),
            claimed: AtomicBool::new(false),
            deadline: Mutex::new(None),
        }
    }

    fn from_outcome(job: &PersistedJob, outcome: &JobOutcome) -> JobHandle {
        let handle = JobHandle::new(job, outcome.state);
        handle.finish(outcome);
        handle.claimed.store(true, Ordering::SeqCst);
        handle
    }

    /// Win the right to record this job's terminal outcome. The worker
    /// and the supervisor both call this; exactly one succeeds.
    fn claim_outcome(&self) -> bool {
        self.claimed
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn status(&self) -> JobStatus {
        let progress = lock(&self.progress).clone();
        JobStatus {
            job: self.id,
            tenant: self.tenant.clone(),
            state: progress.state,
            best_reward: progress.best_reward,
            samples: progress.samples,
            budget: self.spec.budget,
            error: progress.error,
        }
    }

    fn set_state(&self, state: JobState) {
        lock(&self.progress).state = state;
    }

    /// Ingest one line from a run's telemetry trace: update live
    /// progress from per-batch records and fan the event out to every
    /// watcher (dead watchers are dropped). Doubles as a heartbeat.
    fn ingest_trace_line(&self, line: &str) {
        self.beat.fetch_add(1, Ordering::Relaxed);
        let Ok(data) = parse_json(line) else {
            return;
        };
        let frame = Response::Event {
            job: self.id,
            data: data.clone(),
        }
        .to_line();
        let mut events = lock(&self.events);
        let start = events.len();
        push_frame(&mut events, &frame);
        {
            let mut progress = lock(&self.progress);
            if let Ok(samples) = data.field("samples_used").and_then(Json::as_u64) {
                progress.samples = samples;
            }
            if let Ok(best) = data.field("best_reward").and_then(Json::as_f64) {
                progress.best_reward = Some(best);
            }
        }
        // Terminated once in the backlog; every watcher gets those bytes.
        let framed = &events.as_bytes()[start..];
        let mut watchers = lock(&self.watchers);
        watchers.retain_mut(|w| w.write_all(framed).is_ok());
    }

    /// Record a terminal outcome and close every watch stream with a
    /// `done` frame. Holding the events lock makes this atomic against
    /// concurrent watch registration.
    fn finish(&self, outcome: &JobOutcome) {
        let _events = lock(&self.events);
        {
            let mut progress = lock(&self.progress);
            progress.state = outcome.state;
            progress.best_reward = outcome.best_reward;
            progress.samples = outcome.samples;
            progress.error = outcome.error.clone();
        }
        let frame = Response::Done {
            job: self.id,
            state: outcome.state,
            best_reward: outcome.best_reward,
            samples: outcome.samples,
        }
        .to_line();
        let mut watchers = lock(&self.watchers);
        for mut w in watchers.drain(..) {
            let _ = write_frame(&mut w, &frame);
        }
    }
}

/// A `Write` sink for [`Recorder::set_trace`] that forwards each
/// completed trace line to the job handle.
struct EventSink {
    handle: Arc<JobHandle>,
    buf: Vec<u8>,
}

impl std::io::Write for EventSink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            if let Ok(text) = std::str::from_utf8(&line) {
                let text = text.trim();
                if !text.is_empty() {
                    self.handle.ingest_trace_line(text);
                }
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Wraps an agent so every stop signal reads as convergence: a raised
/// cancel/interrupt flag or an expired deadline makes the next
/// `propose` return no candidates, and the search loop settles what it
/// has and stops — no samples are torn mid-batch. Each `propose` also
/// bumps the job's heartbeat epoch for the watchdog.
struct Cancellable {
    inner: BoxedAgent,
    flag: Arc<JobHandle>,
    interrupt: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl Agent for Cancellable {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn propose(&mut self, max_batch: usize) -> Vec<Action> {
        self.flag.beat.fetch_add(1, Ordering::Relaxed);
        if self.flag.cancel.load(Ordering::SeqCst) || self.interrupt.load(Ordering::SeqCst) {
            return Vec::new();
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.flag.timed_out.store(true, Ordering::SeqCst);
                return Vec::new();
            }
        }
        self.inner.propose(max_batch)
    }

    fn observe(&mut self, results: &[(Action, StepResult)]) {
        self.inner.observe(results);
    }

    fn batch_hint(&self) -> Option<usize> {
        self.inner.batch_hint()
    }
}

struct Inner {
    config: DaemonConfig,
    store: JobStore,
    sched: Mutex<Scheduler>,
    work_cv: Condvar,
    jobs: Mutex<HashMap<u64, Arc<JobHandle>>>,
    names: Mutex<HashMap<String, JobId>>,
    next_id: Mutex<u64>,
    shutdown: AtomicBool,
    /// Admission is closed (drain in progress) but workers keep going.
    draining: AtomicBool,
    /// Batch-boundary stop signal for every in-flight job; interrupted
    /// jobs stay journaled and resume on the next start.
    interrupt: Arc<AtomicBool>,
    conns: AtomicUsize,
    watchdog: Mutex<Watchdog>,
    /// slot → the handle its worker is currently running, for the
    /// supervisor's heartbeat observations.
    running: Mutex<HashMap<usize, Arc<JobHandle>>>,
    /// slot → worker thread handle. A retired (stalled) worker's handle
    /// is removed and dropped — joining it would hang forever.
    worker_handles: Mutex<HashMap<usize, thread::JoinHandle<()>>>,
    started: Instant,
}

fn now_ms(inner: &Inner) -> u64 {
    inner.started.elapsed().as_millis() as u64
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    inner: Arc<Inner>,
}

impl Server {
    /// Bind the listen socket, open the state directory, and re-admit
    /// every persisted job that never reached a terminal state (in
    /// original submit order — their journals make the reruns resume
    /// rather than restart).
    pub fn bind(config: DaemonConfig) -> Result<Server> {
        Self::bind_with_io(config, real_io())
    }

    /// Like [`Server::bind`] but with an explicit store I/O seam, so
    /// chaos tests can run a whole daemon against injected faults.
    pub fn bind_with_io(config: DaemonConfig, io: Arc<dyn StoreIo>) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let store = JobStore::open_with(&config.state_dir, io, config.durability)?;
        let next_id = store.next_id()?;
        let mut sched = Scheduler::new(config.quota);
        let mut jobs = HashMap::new();
        let mut names = HashMap::new();
        for (job, outcome) in store.load()? {
            let handle = match &outcome {
                Some(outcome) => JobHandle::from_outcome(&job, outcome),
                None => JobHandle::new(&job, JobState::Queued),
            };
            let handle = Arc::new(handle);
            if let Some(name) = &job.name {
                names.insert(name.clone(), job.id);
            }
            if outcome.is_none() {
                match sched.submit(job.id, &job.tenant) {
                    Admission::Enqueued { .. } => {}
                    Admission::Rejected { reason, .. } => {
                        // Quotas shrank across the restart; surface the
                        // job as failed rather than dropping it silently.
                        let failed =
                            JobOutcome::failed(format!("not re-admitted after restart: {reason}"));
                        store.record_outcome(job.id, &failed)?;
                        handle.claimed.store(true, Ordering::SeqCst);
                        handle.finish(&failed);
                    }
                }
            }
            jobs.insert(job.id.0, handle);
        }
        let stall_after_ms = config.stall_after_ms;
        Ok(Server {
            listener,
            local_addr,
            inner: Arc::new(Inner {
                config,
                store,
                sched: Mutex::new(sched),
                work_cv: Condvar::new(),
                jobs: Mutex::new(jobs),
                names: Mutex::new(names),
                next_id: Mutex::new(next_id),
                shutdown: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                interrupt: Arc::new(AtomicBool::new(false)),
                conns: AtomicUsize::new(0),
                watchdog: Mutex::new(Watchdog::new(stall_after_ms)),
                running: Mutex::new(HashMap::new()),
                worker_handles: Mutex::new(HashMap::new()),
                started: Instant::now(),
            }),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serve until a `shutdown` request arrives. A drain shutdown lets
    /// admitted jobs finish first; a plain shutdown interrupts them at
    /// a batch boundary (they stay journaled and resume on the next
    /// start). Stalled workers are detached, never joined.
    pub fn run(self) -> Result<()> {
        for _ in 0..self.inner.config.workers.max(1) {
            spawn_worker(&self.inner);
        }
        let supervisor = {
            let inner = Arc::clone(&self.inner);
            thread::spawn(move || supervise(&inner))
        };
        let max_conns = self.inner.config.max_connections.max(1);
        for stream in self.listener.incoming() {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let admitted = self
                .inner
                .conns
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < max_conns).then_some(n + 1)
                })
                .is_ok();
            if !admitted {
                // Refuse inline on the accept thread: spawning a thread
                // per refused client would defeat the cap.
                let mut out = stream;
                let busy = Response::Error {
                    code: ErrorCode::Busy,
                    message: format!("too many connections ({max_conns})"),
                    retry_after_ms: Some(self.inner.config.quota.retry_after_ms),
                };
                let _ = write_frame(&mut out, &busy.to_line());
                continue;
            }
            let inner = Arc::clone(&self.inner);
            let addr = self.local_addr;
            thread::spawn(move || {
                let _slot = ConnGuard(Arc::clone(&inner));
                handle_conn(&inner, addr, stream);
            });
        }
        self.inner.work_cv.notify_all();
        let _ = supervisor.join();
        let workers: Vec<_> = lock(&self.inner.worker_handles).drain().collect();
        for (_slot, worker) in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Frees a connection slot when its handler thread exits. A `watch`
/// that hands its socket to the watcher list still frees the slot —
/// parked watcher sockets are fan-out targets, not live threads.
struct ConnGuard(Arc<Inner>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Register a watchdog slot and start a worker thread on it.
fn spawn_worker(inner: &Arc<Inner>) {
    let slot = lock(&inner.watchdog).register();
    let worker_inner = Arc::clone(inner);
    let handle = thread::spawn(move || worker_loop(&worker_inner, slot));
    lock(&inner.worker_handles).insert(slot, handle);
}

/// Supervisor loop: observe every running job's heartbeat epoch, retire
/// workers that stalled past the threshold, fail their jobs, and spawn
/// replacements. The stalled thread itself is left detached — it may be
/// blocked inside a wedged cost model forever.
fn supervise(inner: &Arc<Inner>) {
    let stall = inner.config.stall_after_ms;
    let poll = Duration::from_millis(if stall == 0 {
        200
    } else {
        (stall / 4).clamp(10, 1000)
    });
    while !inner.shutdown.load(Ordering::SeqCst) {
        thread::sleep(poll);
        let now = now_ms(inner);
        let stalled = {
            let running = lock(&inner.running);
            let mut watchdog = lock(&inner.watchdog);
            for (&slot, handle) in running.iter() {
                watchdog.observe(slot, handle.beat.load(Ordering::Relaxed), now);
            }
            watchdog.scan(now)
        };
        for (slot, id) in stalled {
            let handle = lock(&inner.running).remove(&slot);
            // Detach the stalled thread: joining it could hang forever.
            drop(lock(&inner.worker_handles).remove(&slot));
            eprintln!("archgymd: worker {slot} stalled on {id}; failing the job and respawning");
            if let Some(handle) = handle {
                if handle.claim_outcome() {
                    let outcome = JobOutcome::failed(format!(
                        "worker stalled (no heartbeat for more than {stall} ms)"
                    ));
                    if let Err(err) = inner.store.record_outcome(id, &outcome) {
                        eprintln!("archgymd: failed to persist stall outcome for {id}: {err}");
                    }
                    handle.finish(&outcome);
                    lock(&inner.sched).finish(id);
                    inner.work_cv.notify_all();
                }
            }
            spawn_worker(inner);
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, slot: usize) {
    loop {
        let id = {
            let mut sched = lock(&inner.sched);
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = sched.next_runnable() {
                    break id;
                }
                sched = inner.work_cv.wait(sched).unwrap_or_else(|e| e.into_inner());
            }
        };
        let handle = lock(&inner.jobs)
            .get(&id.0)
            .cloned()
            .expect("runnable job has a handle");
        handle.set_state(JobState::Running);
        *lock(&handle.deadline) = (handle.spec.deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(handle.spec.deadline_ms));
        {
            let now = now_ms(inner);
            lock(&inner.watchdog).start(slot, id, now);
            lock(&inner.running).insert(slot, Arc::clone(&handle));
        }
        let outcome = run_job(inner, &handle);
        lock(&inner.running).remove(&slot);
        lock(&inner.watchdog).end(slot);
        match outcome {
            Some(outcome) => {
                if handle.claim_outcome() {
                    let record = inner.store.record_outcome(id, &outcome);
                    handle.finish(&outcome);
                    lock(&inner.sched).finish(id);
                    inner.work_cv.notify_all();
                    if let Err(err) = record {
                        eprintln!("archgymd: failed to persist outcome for {id}: {err}");
                    }
                }
                // else: the supervisor already recorded a stall outcome
                // for this job; this (slow, now-retired) worker's result
                // is discarded.
            }
            None => {
                // Interrupted by shutdown: no outcome is recorded, so
                // the persisted spec + journal re-admit and resume the
                // job on the next start.
                if handle.claim_outcome() {
                    handle.claimed.store(false, Ordering::SeqCst);
                    handle.set_state(JobState::Queued);
                    lock(&inner.sched).finish(id);
                    inner.work_cv.notify_all();
                }
            }
        }
        if !lock(&inner.watchdog).is_alive(slot) {
            return; // retired by the supervisor while running
        }
    }
}

/// Execute one job to a terminal outcome, or to `None` when a shutdown
/// interrupt stopped it early (the job stays in-flight and resumable).
/// Panics inside the run are caught and reported as a failed job; the
/// daemon itself never dies. Signal priority: cancel > deadline >
/// interrupt > normal completion.
fn run_job(inner: &Arc<Inner>, handle: &Arc<JobHandle>) -> Option<JobOutcome> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_spec(inner, handle))) {
        Ok(Ok((best_reward, samples))) => {
            let state = if handle.cancel.load(Ordering::SeqCst) {
                JobState::Cancelled
            } else if handle.timed_out.load(Ordering::SeqCst) {
                JobState::TimedOut
            } else if inner.interrupt.load(Ordering::SeqCst) {
                return None;
            } else {
                JobState::Done
            };
            Some(JobOutcome {
                state,
                best_reward,
                samples,
                error: None,
            })
        }
        Ok(Err(err)) => Some(JobOutcome::failed(err.to_string())),
        Err(_) => Some(JobOutcome::failed("job panicked")),
    }
}

/// Run the job's spec down the one job path: every run, race and sweep
/// streams its trace to the job's watchers, every agent stops at the
/// job's cancel, deadline or interrupt, and every journal lives in the
/// store, so a killed daemon resumes the job bit-identically (sweeps,
/// deterministic in the spec, rerun from scratch).
fn run_spec(inner: &Arc<Inner>, handle: &Arc<JobHandle>) -> Result<(Option<f64>, u64)> {
    let recorder = || {
        let recorder = Recorder::new();
        recorder.set_trace(EventSink {
            handle: Arc::clone(handle),
            buf: Vec::new(),
        });
        Some(recorder)
    };
    let deadline = *lock(&handle.deadline);
    let wrap = |agent| -> BoxedAgent {
        Box::new(Cancellable {
            inner: agent,
            flag: Arc::clone(handle),
            interrupt: Arc::clone(&inner.interrupt),
            deadline,
        })
    };
    let hooks = Hooks {
        recorder: &recorder,
        wrap: &wrap,
        journal: Journal::Store(&inner.store, handle.id),
        ..Hooks::default()
    };
    let (_, outcome) = job::run(&handle.spec, &hooks)?;
    Ok(outcome.best_and_samples())
}

fn error(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
        retry_after_ms: None,
    }
}

fn submit(inner: &Arc<Inner>, tenant: String, name: Option<String>, spec: JobSpec) -> Response {
    if inner.shutdown.load(Ordering::SeqCst) || inner.draining.load(Ordering::SeqCst) {
        return Response::Rejected {
            reason: "daemon is shutting down".into(),
            retry_after_ms: inner.config.quota.retry_after_ms,
        };
    }
    // Resolve the roster now, so a bad env, agent or race filter is a
    // typed reject at submit time, not a failed job later.
    if let Err(err) = job::check(&spec) {
        return error(ErrorCode::BadSpec, err.to_string());
    }
    let id = {
        let mut next = lock(&inner.next_id);
        let id = JobId(*next);
        *next += 1;
        id
    };
    if let Some(name) = &name {
        let mut names = lock(&inner.names);
        if let Some(existing) = names.get(name) {
            return error(
                ErrorCode::DuplicateJob,
                format!("job name '{name}' is already taken by {existing}"),
            );
        }
        names.insert(name.clone(), id);
    }
    let job = PersistedJob {
        id,
        tenant: tenant.clone(),
        name: name.clone(),
        spec,
    };
    if let Err(err) = inner.store.record_submitted(&job) {
        if let Some(name) = &name {
            lock(&inner.names).remove(name);
        }
        return error(ErrorCode::Internal, format!("could not persist job: {err}"));
    }
    let handle = Arc::new(JobHandle::new(&job, JobState::Queued));
    lock(&inner.jobs).insert(id.0, Arc::clone(&handle));
    let admission = lock(&inner.sched).submit(id, &tenant);
    match admission {
        Admission::Enqueued { position } => {
            inner.work_cv.notify_all();
            Response::Accepted {
                job: id,
                position: position as u64,
            }
        }
        Admission::Rejected {
            reason,
            retry_after_ms,
        } => {
            lock(&inner.jobs).remove(&id.0);
            if let Some(name) = &name {
                lock(&inner.names).remove(name);
            }
            inner.store.discard(id);
            Response::Rejected {
                reason,
                retry_after_ms,
            }
        }
    }
}

fn lookup(inner: &Arc<Inner>, job: JobId) -> Option<Arc<JobHandle>> {
    lock(&inner.jobs).get(&job.0).cloned()
}

fn cancel(inner: &Arc<Inner>, job: JobId) -> Response {
    let Some(handle) = lookup(inner, job) else {
        return error(ErrorCode::UnknownJob, format!("no job {job}"));
    };
    let state = lock(&handle.progress).state;
    if state.is_terminal() {
        return error(
            ErrorCode::BadState,
            format!("{job} already finished as {}", state.name()),
        );
    }
    let was_queued = lock(&inner.sched).cancel_queued(job);
    if was_queued {
        let outcome = JobOutcome {
            state: JobState::Cancelled,
            best_reward: None,
            samples: 0,
            error: None,
        };
        if handle.claim_outcome() {
            if let Err(err) = inner.store.record_outcome(job, &outcome) {
                eprintln!("archgymd: failed to persist cancel for {job}: {err}");
            }
            handle.finish(&outcome);
        }
    } else {
        // Running (or about to be claimed): the cancel flag makes the
        // agent stop proposing and the worker records the outcome.
        handle.cancel.store(true, Ordering::SeqCst);
    }
    Response::Status(handle.status())
}

fn list_jobs(inner: &Arc<Inner>) -> Response {
    let jobs = lock(&inner.jobs);
    let mut statuses: Vec<JobStatus> = jobs.values().map(|handle| handle.status()).collect();
    statuses.sort_by_key(|status| status.job);
    Response::Jobs(statuses)
}

fn send(out: &mut TcpStream, response: &Response) -> bool {
    write_frame(out, &response.to_line()).is_ok()
}

/// Attach `out` to the job's event stream: replay the backlog in one
/// write, closed by the `done` frame when the job is terminal, or else
/// register `out` as a live watcher.
fn watch(handle: &Arc<JobHandle>, mut out: TcpStream) {
    // The events lock is held until registration, so no event or
    // `done` frame can slip between the replay and the live stream.
    let events = lock(&handle.events);
    let progress = lock(&handle.progress).clone();
    if !progress.state.is_terminal() {
        if out.write_all(events.as_bytes()).is_ok() {
            lock(&handle.watchers).push(out);
        }
        return;
    }
    let mut replay = events.clone();
    let done = Response::Done {
        job: handle.id,
        state: progress.state,
        best_reward: progress.best_reward,
        samples: progress.samples,
    };
    push_frame(&mut replay, &done.to_line());
    let _ = out.write_all(replay.as_bytes());
}

/// Drain: close admission, then wait (bounded by the drain deadline)
/// until the scheduler holds no queued or running jobs. Returns `true`
/// when everything finished; `false` on deadline (the leftovers are
/// interrupted by the caller and resume on the next start).
fn drain(inner: &Arc<Inner>, deadline_ms: u64) -> bool {
    inner.draining.store(true, Ordering::SeqCst);
    let deadline = Instant::now()
        + Duration::from_millis(if deadline_ms == 0 {
            60_000
        } else {
            deadline_ms
        });
    let mut sched = lock(&inner.sched);
    while sched.queue_len() + sched.running_len() > 0 {
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        let wait = (deadline - now).min(Duration::from_millis(100));
        let (guard, _) = inner
            .work_cv
            .wait_timeout(sched, wait)
            .unwrap_or_else(|e| e.into_inner());
        sched = guard;
    }
    true
}

fn handle_conn(inner: &Arc<Inner>, local: SocketAddr, stream: TcpStream) {
    let Ok(reader_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_half);
    let mut out = stream;
    loop {
        let mut buf = Vec::new();
        let n = match (&mut reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(n) => n,
            Err(_) => return,
        };
        if n == 0 {
            return; // clean EOF
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        if buf.len() > MAX_LINE_BYTES {
            let _ = send(
                &mut out,
                &error(
                    ErrorCode::OversizedFrame,
                    format!("frame exceeds {MAX_LINE_BYTES} bytes"),
                ),
            );
            return;
        }
        let Ok(text) = std::str::from_utf8(&buf) else {
            if !send(&mut out, &error(ErrorCode::NonUtf8, "frame is not UTF-8")) {
                return;
            }
            continue;
        };
        if text.trim().is_empty() {
            continue;
        }
        let request = match Request::from_line(text.trim()) {
            Ok(request) => request,
            Err(err) => {
                if !send(&mut out, &error(ErrorCode::BadFrame, err.to_string())) {
                    return;
                }
                continue;
            }
        };
        let reply = match request {
            Request::Submit { tenant, name, spec } => submit(inner, tenant, name, spec),
            Request::Status { job } => match lookup(inner, job) {
                Some(handle) => Response::Status(handle.status()),
                None => error(ErrorCode::UnknownJob, format!("no job {job}")),
            },
            Request::List => list_jobs(inner),
            Request::Cancel { job } => cancel(inner, job),
            Request::Ping => Response::Pong {
                version: PROTOCOL_VERSION,
            },
            Request::Watch { job } => match lookup(inner, job) {
                Some(handle) => {
                    // The write half now belongs to the watch stream;
                    // this connection is stream-only.
                    watch(&handle, out);
                    return;
                }
                None => error(ErrorCode::UnknownJob, format!("no job {job}")),
            },
            Request::Shutdown {
                drain: drain_first,
                deadline_ms,
            } => {
                if drain_first {
                    // The `stopping` reply is sent only after the drain
                    // settles, so a client blocking on it knows every
                    // admitted job reached a terminal state (or the
                    // drain deadline passed).
                    drain(inner, deadline_ms);
                }
                let _ = send(&mut out, &Response::Stopping);
                // Any job still in flight stops at its next batch
                // boundary and stays journaled for the next start.
                inner.interrupt.store(true, Ordering::SeqCst);
                inner.shutdown.store(true, Ordering::SeqCst);
                inner.work_cv.notify_all();
                // Poke the accept loop so it observes the flag.
                let _ = TcpStream::connect(local);
                return;
            }
        };
        if !send(&mut out, &reply) {
            return;
        }
    }
}
