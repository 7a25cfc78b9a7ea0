//! Multi-tenant job scheduling primitives for the `archgymd` service.
//!
//! The daemon separates three concerns (see `DESIGN.md`, "Service layer"):
//! the **scheduler** (this module) decides *which* accepted job runs next,
//! the **worker fleet** (in `archgymd`) decides *where* it runs, and the
//! **results store** persists specs, journals, and outcomes. Keeping the
//! scheduler a pure in-memory state machine — no threads, no clocks, no
//! I/O — makes admission control and quota behaviour testable
//! deterministically, with no sleeps.
//!
//! Admission control is two-layered: a global bounded queue protects the
//! daemon, and per-tenant quotas (max queued, max running) stop one
//! tenant's flood from starving another's single job. A rejected submit
//! carries an explicit `retry_after_ms` hint so clients can back off.

use crate::codec::{parse_json, push_json_str, Json};
use crate::error::{ArchGymError, Result};
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a submitted job. Rendered as `job-<n>`; the counter is
/// monotonic within a daemon's state directory, surviving restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

impl JobId {
    /// Parse the `job-<n>` form produced by [`Display`](fmt::Display).
    pub fn parse(text: &str) -> Option<JobId> {
        let digits = text.strip_prefix("job-")?;
        digits.parse::<u64>().ok().map(JobId)
    }
}

/// The kind of work a job runs, mirroring the CLI's offline subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A single agent searching one environment ([`SearchLoop`](crate::search::SearchLoop)).
    Search,
    /// One agent across several seeds ([`Sweep`](crate::sweep::Sweep)).
    Sweep,
    /// Several agents raced on one environment, one journaled run each.
    Compare,
    /// The full agent × hyperparameter roster raced online under
    /// successive halving on one shared budget
    /// ([`Race`](crate::race::Race)); lanes journal per rung for
    /// bit-identical crash resume.
    Race,
}

impl JobKind {
    /// The wire name of this kind.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Search => "search",
            JobKind::Sweep => "sweep",
            JobKind::Compare => "compare",
            JobKind::Race => "race",
        }
    }

    /// Parse a wire name back into a kind.
    pub fn parse(name: &str) -> Result<JobKind> {
        match name {
            "search" => Ok(JobKind::Search),
            "sweep" => Ok(JobKind::Sweep),
            "compare" => Ok(JobKind::Compare),
            "race" => Ok(JobKind::Race),
            other => Err(ArchGymError::InvalidConfig(format!(
                "unknown job kind '{other}' (expected search|sweep|compare|race)"
            ))),
        }
    }
}

/// Lifecycle of a job inside the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a worker (admission passed).
    Queued,
    /// Claimed by a worker; a journal is being written.
    Running,
    /// Finished successfully; final result persisted.
    Done,
    /// The run itself errored; the message is kept in the results store.
    Failed,
    /// Cancelled by a client before or during execution.
    Cancelled,
    /// Exceeded its [`JobSpec::deadline_ms`] and was stopped at a batch
    /// boundary; the best-so-far result is persisted like any outcome.
    TimedOut,
}

impl JobState {
    /// The wire name of this state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed-out",
        }
    }

    /// Parse a wire name back into a state.
    pub fn parse(name: &str) -> Result<JobState> {
        match name {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed),
            "cancelled" => Ok(JobState::Cancelled),
            "timed-out" => Ok(JobState::TimedOut),
            other => Err(ArchGymError::InvalidConfig(format!(
                "unknown job state '{other}'"
            ))),
        }
    }

    /// Whether the job can make no further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled | JobState::TimedOut
        )
    }
}

/// A job submission: what to run and with what budget. This is the unit
/// the daemon journals per job ID, so a restarted daemon can rebuild and
/// resume every accepted job bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// What kind of work to run.
    pub kind: JobKind,
    /// Environment spec, e.g. `dram/stream` or `timeloop/resnet`.
    pub env: String,
    /// Objective override, e.g. `power:1.0`; empty = environment default.
    pub objective: String,
    /// Agent for `search`/`sweep` jobs, e.g. `ga`.
    pub agent: String,
    /// Agent roster for `compare` jobs (empty = the extended default
    /// set), or the families a `race` job keeps (empty = all of them).
    pub agents: Vec<String>,
    /// Sample budget per run.
    pub budget: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Evaluation batch size; `0` lets the agent's hint decide. A
    /// `sweep` job takes no batch (`0`): its runs use the library
    /// `RunConfig` batch of 16.
    pub batch: usize,
    /// `EnvPool` replicas evaluating one job's batches in parallel, or a
    /// `sweep` job's worker threads over its runs; `0` = every core.
    pub eval_jobs: usize,
    /// Number of seeds for `sweep` jobs (seed, seed+1, ...).
    pub sweep_seeds: u64,
    /// Online proxy screening policy; `None` runs unscreened, and a
    /// `sweep` job must. Encoded only when present, so specs from older
    /// clients decode unchanged.
    pub proxy: Option<crate::screen::ScreenPolicy>,
    /// Wall-clock deadline for the whole job in milliseconds; `0` means
    /// no deadline. Enforced cooperatively at batch boundaries: an
    /// exceeded deadline stops the run and records a
    /// [`JobState::TimedOut`] outcome with the best-so-far result.
    /// Encoded only when nonzero, so specs from older clients decode
    /// unchanged.
    pub deadline_ms: u64,
    /// Successive-halving elimination factor for `race` jobs; `0` means
    /// the default every surface shares, `archgymd::job::RACE_ETA` (3).
    /// Encoded only when nonzero.
    pub race_eta: usize,
    /// Hyperparameter configurations per agent family in a `race` job's
    /// roster; `0` means the default every surface shares,
    /// `archgymd::job::RACE_CAP` (4). Encoded only when nonzero.
    pub race_cap: usize,
    /// Drive a `race` job's final rung with the reward-weighted
    /// survivor ensemble instead of the solo winner. Encoded only when
    /// `true`.
    pub race_ensemble: bool,
}

impl JobSpec {
    /// A search-job spec with the daemon's defaults for the rest.
    pub fn search(env: &str, agent: &str, budget: u64, seed: u64) -> JobSpec {
        JobSpec {
            kind: JobKind::Search,
            env: env.to_owned(),
            objective: String::new(),
            agent: agent.to_owned(),
            agents: Vec::new(),
            budget,
            seed,
            batch: 0,
            eval_jobs: 1,
            sweep_seeds: 3,
            proxy: None,
            deadline_ms: 0,
            race_eta: 0,
            race_cap: 0,
            race_ensemble: false,
        }
    }

    /// A race-job spec over the default roster with the daemon's
    /// defaults for the rest.
    pub fn race(env: &str, budget: u64, seed: u64) -> JobSpec {
        let mut spec = JobSpec::search(env, "", budget, seed);
        spec.kind = JobKind::Race;
        spec
    }

    /// Cheap structural validation, applied at admission time so malformed
    /// submissions are rejected with a typed error instead of a failed job.
    pub fn validate(&self) -> Result<()> {
        if self.env.is_empty() {
            return Err(ArchGymError::InvalidConfig("job env is empty".into()));
        }
        if self.budget == 0 {
            return Err(ArchGymError::InvalidConfig("job budget is zero".into()));
        }
        // Compare and race jobs pick their own rosters; only single-agent
        // kinds need an agent name.
        if !matches!(self.kind, JobKind::Compare | JobKind::Race) && self.agent.is_empty() {
            return Err(ArchGymError::InvalidConfig("job agent is empty".into()));
        }
        if self.race_eta == 1 {
            return Err(ArchGymError::InvalidConfig(
                "race eta must be at least 2".into(),
            ));
        }
        if self.kind == JobKind::Sweep && self.sweep_seeds == 0 {
            return Err(ArchGymError::InvalidConfig(
                "sweep job needs at least one seed".into(),
            ));
        }
        if self.kind == JobKind::Sweep && self.seed.checked_add(self.sweep_seeds).is_none() {
            return Err(ArchGymError::InvalidConfig(
                "sweep seeds run past u64::MAX".into(),
            ));
        }
        // Sweep runs are unscreened at the library batch; a spec asking
        // otherwise would run without what it asked for.
        if self.kind == JobKind::Sweep && self.proxy.is_some() {
            return Err(ArchGymError::InvalidConfig(
                "sweep jobs run unscreened: `proxy` must be unset".into(),
            ));
        }
        if self.kind == JobKind::Sweep && self.batch != 0 {
            return Err(ArchGymError::InvalidConfig(
                "sweep jobs run at the library batch: `batch` must be 0".into(),
            ));
        }
        if let Some(policy) = &self.proxy {
            policy.validate().map_err(ArchGymError::InvalidConfig)?;
        }
        Ok(())
    }

    /// Canonical JSON encoding (codec-framed, bit-exact round-trip).
    pub fn encode(&self) -> String {
        let mut out = String::from("{\"kind\":");
        push_json_str(&mut out, self.kind.name());
        out.push_str(",\"env\":");
        push_json_str(&mut out, &self.env);
        out.push_str(",\"objective\":");
        push_json_str(&mut out, &self.objective);
        out.push_str(",\"agent\":");
        push_json_str(&mut out, &self.agent);
        out.push_str(",\"agents\":[");
        for (i, a) in self.agents.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, a);
        }
        out.push_str("],");
        let _ = fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "\"budget\":{},\"seed\":{},\"batch\":{},\"eval_jobs\":{},\"sweep_seeds\":{}",
                self.budget, self.seed, self.batch, self.eval_jobs, self.sweep_seeds
            ),
        );
        // Optional trailing fields: absent when at their defaults,
        // keeping the encoding byte-identical to older daemons/clients.
        if self.deadline_ms > 0 {
            let _ = fmt::Write::write_fmt(
                &mut out,
                format_args!(",\"deadline_ms\":{}", self.deadline_ms),
            );
        }
        if let Some(policy) = &self.proxy {
            out.push_str(",\"proxy\":");
            out.push_str(&policy.encode());
        }
        if self.race_eta > 0 {
            let _ =
                fmt::Write::write_fmt(&mut out, format_args!(",\"race_eta\":{}", self.race_eta));
        }
        if self.race_cap > 0 {
            let _ =
                fmt::Write::write_fmt(&mut out, format_args!(",\"race_cap\":{}", self.race_cap));
        }
        if self.race_ensemble {
            out.push_str(",\"race_ensemble\":true");
        }
        out.push('}');
        out
    }

    /// Decode a spec from a parsed [`Json`] object.
    pub fn from_json(json: &Json) -> Result<JobSpec> {
        let bad = |msg: String| ArchGymError::InvalidConfig(msg);
        let kind = JobKind::parse(json.field("kind").and_then(Json::as_str).map_err(bad)?)?;
        let mut agents = Vec::new();
        for entry in json.field("agents").and_then(Json::as_arr).map_err(bad)? {
            agents.push(entry.as_str().map_err(bad)?.to_owned());
        }
        Ok(JobSpec {
            kind,
            env: json
                .field("env")
                .and_then(Json::as_str)
                .map_err(bad)?
                .to_owned(),
            objective: json
                .field("objective")
                .and_then(Json::as_str)
                .map_err(bad)?
                .to_owned(),
            agent: json
                .field("agent")
                .and_then(Json::as_str)
                .map_err(bad)?
                .to_owned(),
            agents,
            budget: json.field("budget").and_then(Json::as_u64).map_err(bad)?,
            seed: json.field("seed").and_then(Json::as_u64).map_err(bad)?,
            batch: json.field("batch").and_then(Json::as_usize).map_err(bad)?,
            eval_jobs: json
                .field("eval_jobs")
                .and_then(Json::as_usize)
                .map_err(bad)?,
            sweep_seeds: json
                .field("sweep_seeds")
                .and_then(Json::as_u64)
                .map_err(bad)?,
            // Tolerant decode: specs from pre-proxy clients lack the field.
            proxy: match json.field("proxy") {
                Ok(value) => Some(crate::screen::ScreenPolicy::from_json(value).map_err(bad)?),
                Err(_) => None,
            },
            // Tolerant decode: specs from pre-deadline clients lack the
            // field; absent means no deadline.
            deadline_ms: json
                .field("deadline_ms")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            // Tolerant decode: specs from pre-race clients lack the
            // fields; absent means the daemon defaults.
            race_eta: json.field("race_eta").and_then(Json::as_usize).unwrap_or(0),
            race_cap: json.field("race_cap").and_then(Json::as_usize).unwrap_or(0),
            race_ensemble: json
                .field("race_ensemble")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }

    /// Decode a spec from its canonical text encoding.
    pub fn decode(text: &str) -> Result<JobSpec> {
        let json = parse_json(text).map_err(ArchGymError::InvalidConfig)?;
        JobSpec::from_json(&json)
    }
}

/// Admission-control limits, per tenant and globally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaPolicy {
    /// Jobs a single tenant may have running at once.
    pub max_running_per_tenant: usize,
    /// Jobs a single tenant may have queued at once.
    pub max_queued_per_tenant: usize,
    /// Total queued jobs across all tenants (bounded queue).
    pub queue_capacity: usize,
    /// Back-off hint returned with every rejection.
    pub retry_after_ms: u64,
}

impl Default for QuotaPolicy {
    fn default() -> Self {
        QuotaPolicy {
            max_running_per_tenant: 2,
            max_queued_per_tenant: 16,
            queue_capacity: 64,
            retry_after_ms: 500,
        }
    }
}

/// Outcome of admission control on a submit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Accepted; `position` is the 0-based place in the global queue.
    Enqueued {
        /// 0-based position in the global queue at admission time.
        position: usize,
    },
    /// Turned away with a reason and an explicit back-off hint.
    Rejected {
        /// Human-readable reason (`queue full`, `tenant queue full`).
        reason: String,
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

/// A pure, deterministic multi-tenant scheduler.
///
/// Workers pull with [`next_runnable`](Scheduler::next_runnable): the
/// *oldest* queued job whose tenant is under its running quota. A tenant at
/// quota is skipped — not blocked — so later jobs from other tenants
/// overtake it and a flood cannot starve a singleton.
#[derive(Debug)]
pub struct Scheduler {
    policy: QuotaPolicy,
    queue: VecDeque<(JobId, String)>,
    running: Vec<(JobId, String)>,
}

impl Scheduler {
    /// A scheduler enforcing `policy`.
    pub fn new(policy: QuotaPolicy) -> Scheduler {
        Scheduler {
            policy,
            queue: VecDeque::new(),
            running: Vec::new(),
        }
    }

    /// The policy this scheduler enforces.
    pub fn policy(&self) -> &QuotaPolicy {
        &self.policy
    }

    /// Jobs currently queued, across all tenants.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently running, across all tenants.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Jobs `tenant` has queued.
    pub fn queued_for(&self, tenant: &str) -> usize {
        self.queue.iter().filter(|(_, t)| t == tenant).count()
    }

    /// Jobs `tenant` has running.
    pub fn running_for(&self, tenant: &str) -> usize {
        self.running.iter().filter(|(_, t)| t == tenant).count()
    }

    /// Apply admission control to a new job from `tenant`.
    pub fn submit(&mut self, id: JobId, tenant: &str) -> Admission {
        if self.queue.len() >= self.policy.queue_capacity {
            return Admission::Rejected {
                reason: format!("queue full ({} jobs)", self.queue.len()),
                retry_after_ms: self.policy.retry_after_ms,
            };
        }
        if self.queued_for(tenant) >= self.policy.max_queued_per_tenant {
            return Admission::Rejected {
                reason: format!(
                    "tenant '{tenant}' queue full ({} jobs)",
                    self.queued_for(tenant)
                ),
                retry_after_ms: self.policy.retry_after_ms,
            };
        }
        self.queue.push_back((id, tenant.to_owned()));
        Admission::Enqueued {
            position: self.queue.len() - 1,
        }
    }

    /// Claim the oldest queued job whose tenant is under its running
    /// quota, marking it running. `None` means no job is eligible (queue
    /// empty, or every queued tenant is at quota).
    pub fn next_runnable(&mut self) -> Option<JobId> {
        let slot = self.queue.iter().position(|(_, tenant)| {
            self.running_for(tenant) < self.policy.max_running_per_tenant
        })?;
        let (id, tenant) = self.queue.remove(slot).expect("position within queue");
        self.running.push((id, tenant));
        Some(id)
    }

    /// Release a running job's quota slot (done, failed, or cancelled).
    pub fn finish(&mut self, id: JobId) {
        self.running.retain(|(running, _)| *running != id);
    }

    /// Remove a still-queued job. Returns `false` if it is not queued
    /// (already claimed by a worker, or never admitted).
    pub fn cancel_queued(&mut self, id: JobId) -> bool {
        let before = self.queue.len();
        self.queue.retain(|(queued, _)| *queued != id);
        self.queue.len() < before
    }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct WorkerSlot {
    alive: bool,
    job: Option<JobId>,
    epoch: u64,
    last_progress_ms: u64,
}

/// A pure, deterministic liveness monitor over the worker fleet.
///
/// Like the [`Scheduler`], the watchdog is a clock-free state machine:
/// the daemon's supervisor thread feeds it heartbeat *epochs* (a
/// counter each worker bumps per batch of progress) together with an
/// explicit `now_ms`, so stall detection is unit-testable with a fake
/// clock. A worker is **stalled** when it is busy on a job and its
/// epoch has not advanced for longer than `stall_after_ms` — wall time
/// since claim is deliberately not used, so a slow-but-progressing job
/// is never killed.
///
/// [`Watchdog::scan`] reports each stalled slot exactly once and
/// retires it; the supervisor fails the job, detaches the wedged
/// thread, and registers a replacement slot for the respawned worker.
#[derive(Debug, Clone)]
pub struct Watchdog {
    stall_after_ms: u64,
    slots: Vec<WorkerSlot>,
}

impl Watchdog {
    /// A watchdog that flags a busy worker whose heartbeat epoch has
    /// not advanced for `stall_after_ms`. `0` disables stall detection
    /// ([`Watchdog::scan`] never reports).
    pub fn new(stall_after_ms: u64) -> Watchdog {
        Watchdog {
            stall_after_ms,
            slots: Vec::new(),
        }
    }

    /// The configured stall threshold (`0` = disabled).
    pub fn stall_after_ms(&self) -> u64 {
        self.stall_after_ms
    }

    /// Register a new worker slot, returning its id.
    pub fn register(&mut self) -> usize {
        self.slots.push(WorkerSlot {
            alive: true,
            job: None,
            epoch: 0,
            last_progress_ms: 0,
        });
        self.slots.len() - 1
    }

    /// Whether `slot` is still part of the fleet (not retired).
    pub fn is_alive(&self, slot: usize) -> bool {
        self.slots.get(slot).is_some_and(|s| s.alive)
    }

    /// The job `slot` is busy on, if any.
    pub fn busy_on(&self, slot: usize) -> Option<JobId> {
        self.slots.get(slot).and_then(|s| s.job)
    }

    /// Mark `slot` busy on `job`, resetting its heartbeat baseline.
    pub fn start(&mut self, slot: usize, job: JobId, now_ms: u64) {
        if let Some(s) = self.slots.get_mut(slot) {
            s.job = Some(job);
            s.epoch = 0;
            s.last_progress_ms = now_ms;
        }
    }

    /// Mark `slot` idle (its job finished or was handed off).
    pub fn end(&mut self, slot: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            s.job = None;
        }
    }

    /// Record a heartbeat observation for `slot`: if `epoch` advanced
    /// past the last observed value, the stall timer resets to `now_ms`.
    pub fn observe(&mut self, slot: usize, epoch: u64, now_ms: u64) {
        if let Some(s) = self.slots.get_mut(slot) {
            if epoch > s.epoch {
                s.epoch = epoch;
                s.last_progress_ms = now_ms;
            }
        }
    }

    /// Report and retire every live, busy slot that has made no
    /// progress for longer than the stall threshold. Each stalled slot
    /// is reported exactly once; the caller respawns a replacement via
    /// [`Watchdog::register`].
    pub fn scan(&mut self, now_ms: u64) -> Vec<(usize, JobId)> {
        if self.stall_after_ms == 0 {
            return Vec::new();
        }
        let mut stalled = Vec::new();
        for (slot, s) in self.slots.iter_mut().enumerate() {
            if !s.alive {
                continue;
            }
            if let Some(job) = s.job {
                if now_ms.saturating_sub(s.last_progress_ms) > self.stall_after_ms {
                    s.alive = false;
                    s.job = None;
                    stalled.push((slot, job));
                }
            }
        }
        stalled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(running: usize, queued: usize, capacity: usize) -> QuotaPolicy {
        QuotaPolicy {
            max_running_per_tenant: running,
            max_queued_per_tenant: queued,
            queue_capacity: capacity,
            retry_after_ms: 250,
        }
    }

    #[test]
    fn job_id_round_trips_through_display() {
        let id = JobId(42);
        assert_eq!(id.to_string(), "job-42");
        assert_eq!(JobId::parse("job-42"), Some(id));
        assert_eq!(JobId::parse("job-"), None);
        assert_eq!(JobId::parse("run-42"), None);
    }

    #[test]
    fn job_spec_encodes_and_decodes_bit_identically() {
        let mut spec = JobSpec::search("dram/stream", "ga", 5000, 7);
        spec.objective = "power:1.0".into();
        spec.agents = vec!["ga".into(), "aco\u{1F600}".into()];
        spec.batch = 8;
        spec.eval_jobs = 4;
        let text = spec.encode();
        let back = JobSpec::decode(&text).expect("decode");
        assert_eq!(back, spec);
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn job_spec_proxy_field_round_trips_and_stays_optional() {
        use crate::screen::ScreenPolicy;
        // With a proxy policy: bit-exact round trip including the field.
        let mut spec = JobSpec::search("dram/stream", "ga", 5000, 7);
        spec.proxy = Some(ScreenPolicy::default().top_k(6).warmup(48));
        let text = spec.encode();
        assert!(text.contains("\"proxy\":{"), "{text}");
        let back = JobSpec::decode(&text).expect("decode");
        assert_eq!(back, spec);
        assert_eq!(back.encode(), text);
        // Without: the encoding is byte-identical to the pre-proxy shape,
        // and a pre-proxy line (no field) decodes to proxy = None.
        let plain = JobSpec::search("dram/stream", "ga", 5000, 7);
        assert!(!plain.encode().contains("proxy"), "{}", plain.encode());
        let legacy = "{\"kind\":\"search\",\"env\":\"dram/stream\",\"objective\":\"\",\
                      \"agent\":\"ga\",\"agents\":[],\"budget\":5000,\"seed\":7,\
                      \"batch\":0,\"eval_jobs\":1,\"sweep_seeds\":3}";
        let decoded = JobSpec::decode(legacy).expect("legacy decode");
        assert_eq!(decoded, plain);
        // A degenerate policy is caught at admission, not at run time.
        let mut bad = JobSpec::search("dram/stream", "ga", 100, 1);
        bad.proxy = Some(ScreenPolicy::default().oversample(1));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn job_spec_validation_catches_structural_errors() {
        let mut spec = JobSpec::search("dram/stream", "ga", 100, 1);
        spec.validate().expect("valid");
        spec.budget = 0;
        assert!(spec.validate().is_err());
        spec.budget = 100;
        spec.agent.clear();
        assert!(spec.validate().is_err());
        spec.kind = JobKind::Compare;
        spec.validate().expect("compare uses roster, not agent");
        spec.env.clear();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn sweep_specs_reject_a_proxy_or_a_batch() {
        use crate::screen::ScreenPolicy;
        let mut spec = JobSpec::search("dram/stream", "ga", 100, 1);
        spec.kind = JobKind::Sweep;
        spec.validate().expect("plain sweep");
        spec.proxy = Some(ScreenPolicy::default());
        let err = spec.validate().expect_err("screened sweep").to_string();
        assert!(err.contains("`proxy`"), "{err}");
        spec.proxy = None;
        spec.batch = 8;
        let err = spec.validate().expect_err("batched sweep").to_string();
        assert!(err.contains("`batch`"), "{err}");
        // Search jobs keep both.
        spec.kind = JobKind::Search;
        spec.proxy = Some(ScreenPolicy::default());
        spec.validate().expect("screened, batched search");
    }

    #[test]
    fn tenant_over_running_quota_is_queued_not_run() {
        let mut sched = Scheduler::new(policy(1, 8, 32));
        for n in 0..3 {
            assert_eq!(
                sched.submit(JobId(n), "acme"),
                Admission::Enqueued {
                    position: n as usize
                }
            );
        }
        assert_eq!(sched.next_runnable(), Some(JobId(0)));
        // Tenant at quota: the other two stay queued even with idle workers.
        assert_eq!(sched.next_runnable(), None);
        assert_eq!(sched.queue_len(), 2);
        sched.finish(JobId(0));
        assert_eq!(sched.next_runnable(), Some(JobId(1)));
        assert_eq!(sched.next_runnable(), None);
    }

    #[test]
    fn full_global_queue_gets_a_clean_reject_with_retry_after() {
        let mut sched = Scheduler::new(policy(2, 8, 2));
        assert!(matches!(
            sched.submit(JobId(0), "a"),
            Admission::Enqueued { .. }
        ));
        assert!(matches!(
            sched.submit(JobId(1), "b"),
            Admission::Enqueued { .. }
        ));
        match sched.submit(JobId(2), "c") {
            Admission::Rejected {
                reason,
                retry_after_ms,
            } => {
                assert!(reason.contains("queue full"), "reason: {reason}");
                assert_eq!(retry_after_ms, 250);
            }
            other => panic!("expected reject, got {other:?}"),
        }
        // State is untouched by the reject.
        assert_eq!(sched.queue_len(), 2);
    }

    #[test]
    fn full_tenant_queue_gets_a_clean_reject() {
        let mut sched = Scheduler::new(policy(2, 2, 32));
        assert!(matches!(
            sched.submit(JobId(0), "acme"),
            Admission::Enqueued { .. }
        ));
        assert!(matches!(
            sched.submit(JobId(1), "acme"),
            Admission::Enqueued { .. }
        ));
        match sched.submit(JobId(2), "acme") {
            Admission::Rejected { reason, .. } => {
                assert!(reason.contains("tenant 'acme'"), "reason: {reason}")
            }
            other => panic!("expected reject, got {other:?}"),
        }
        // Another tenant is unaffected by acme's full queue.
        assert!(matches!(
            sched.submit(JobId(3), "zeta"),
            Admission::Enqueued { .. }
        ));
    }

    #[test]
    fn one_tenants_flood_cannot_starve_anothers_single_job() {
        let mut sched = Scheduler::new(policy(2, 16, 64));
        // "flood" submits ten jobs before "solo" submits one.
        for n in 0..10 {
            assert!(matches!(
                sched.submit(JobId(n), "flood"),
                Admission::Enqueued { .. }
            ));
        }
        assert!(matches!(
            sched.submit(JobId(100), "solo"),
            Admission::Enqueued { .. }
        ));
        // Three idle workers pull: flood caps at its running quota of two,
        // so the third claim skips ahead to solo's job.
        assert_eq!(sched.next_runnable(), Some(JobId(0)));
        assert_eq!(sched.next_runnable(), Some(JobId(1)));
        assert_eq!(sched.next_runnable(), Some(JobId(100)));
        assert_eq!(sched.next_runnable(), None);
        assert_eq!(sched.running_for("flood"), 2);
        assert_eq!(sched.running_for("solo"), 1);
        // As flood's jobs finish, its backlog drains in FIFO order.
        sched.finish(JobId(0));
        assert_eq!(sched.next_runnable(), Some(JobId(2)));
    }

    #[test]
    fn job_spec_deadline_field_round_trips_and_stays_optional() {
        let mut spec = JobSpec::search("dram/stream", "ga", 5000, 7);
        spec.deadline_ms = 1500;
        let text = spec.encode();
        assert!(text.contains("\"deadline_ms\":1500"), "{text}");
        let back = JobSpec::decode(&text).expect("decode");
        assert_eq!(back, spec);
        assert_eq!(back.encode(), text);
        // No deadline: the field is absent and a legacy line (without
        // the field) decodes to deadline_ms = 0.
        let plain = JobSpec::search("dram/stream", "ga", 5000, 7);
        assert!(
            !plain.encode().contains("deadline_ms"),
            "{}",
            plain.encode()
        );
        let legacy = "{\"kind\":\"search\",\"env\":\"dram/stream\",\"objective\":\"\",\
                      \"agent\":\"ga\",\"agents\":[],\"budget\":5000,\"seed\":7,\
                      \"batch\":0,\"eval_jobs\":1,\"sweep_seeds\":3}";
        assert_eq!(JobSpec::decode(legacy).expect("legacy decode"), plain);
    }

    #[test]
    fn job_spec_race_fields_round_trip_and_stay_optional() {
        let mut spec = JobSpec::race("dram/stream", 5000, 7);
        spec.race_eta = 2;
        spec.race_cap = 3;
        spec.race_ensemble = true;
        spec.validate().expect("race spec without agent is valid");
        let text = spec.encode();
        assert!(text.contains("\"kind\":\"race\""), "{text}");
        assert!(text.contains("\"race_eta\":2"), "{text}");
        assert!(text.contains("\"race_cap\":3"), "{text}");
        assert!(text.contains("\"race_ensemble\":true"), "{text}");
        let back = JobSpec::decode(&text).expect("decode");
        assert_eq!(back, spec);
        assert_eq!(back.encode(), text);
        // At the defaults: the fields are absent, and a legacy line
        // (without the fields) decodes to the defaults.
        let plain = JobSpec::search("dram/stream", "ga", 5000, 7);
        assert!(!plain.encode().contains("race_"), "{}", plain.encode());
        let legacy = "{\"kind\":\"search\",\"env\":\"dram/stream\",\"objective\":\"\",\
                      \"agent\":\"ga\",\"agents\":[],\"budget\":5000,\"seed\":7,\
                      \"batch\":0,\"eval_jobs\":1,\"sweep_seeds\":3}";
        assert_eq!(JobSpec::decode(legacy).expect("legacy decode"), plain);
        // Degenerate eta is rejected at admission.
        let mut bad = JobSpec::race("dram/stream", 5000, 7);
        bad.race_eta = 1;
        assert!(bad.validate().is_err());
        assert_eq!(JobKind::parse("race").unwrap(), JobKind::Race);
    }

    #[test]
    fn timed_out_state_is_terminal_and_round_trips() {
        assert_eq!(JobState::TimedOut.name(), "timed-out");
        assert_eq!(JobState::parse("timed-out").unwrap(), JobState::TimedOut);
        assert!(JobState::TimedOut.is_terminal());
    }

    #[test]
    fn watchdog_flags_silent_workers_once_and_spares_progressing_ones() {
        let mut wd = Watchdog::new(100);
        let a = wd.register();
        let b = wd.register();
        wd.start(a, JobId(1), 0);
        wd.start(b, JobId(2), 0);
        // Both heartbeat at t=50.
        wd.observe(a, 1, 50);
        wd.observe(b, 1, 50);
        assert!(wd.scan(120).is_empty(), "both progressed recently");
        // Only b keeps heartbeating; a goes silent.
        wd.observe(b, 2, 140);
        wd.observe(a, 1, 140); // same epoch: no progress
        assert_eq!(wd.scan(151).as_slice(), &[(a, JobId(1))]);
        assert!(!wd.is_alive(a), "stalled slot retired");
        assert!(wd.scan(160).is_empty(), "reported exactly once");
        // b survives as long as its epoch keeps advancing.
        wd.observe(b, 3, 230);
        assert!(wd.scan(300).is_empty());
        wd.end(b);
        // The replacement slot starts clean.
        let c = wd.register();
        wd.start(c, JobId(3), 600);
        assert!(wd.scan(650).is_empty());
        assert_eq!(wd.scan(701).as_slice(), &[(c, JobId(3))]);
    }

    #[test]
    fn watchdog_ignores_idle_workers_and_disables_at_zero() {
        let mut wd = Watchdog::new(100);
        let a = wd.register();
        assert!(wd.scan(10_000).is_empty(), "idle workers never stall");
        wd.start(a, JobId(1), 0);
        wd.end(a);
        assert!(wd.scan(10_000).is_empty(), "finished job clears the slot");
        let mut off = Watchdog::new(0);
        let s = off.register();
        off.start(s, JobId(9), 0);
        assert!(off.scan(u64::MAX).is_empty(), "0 disables detection");
    }

    #[test]
    fn cancel_removes_queued_jobs_only() {
        let mut sched = Scheduler::new(policy(2, 8, 32));
        sched.submit(JobId(0), "a");
        sched.submit(JobId(1), "a");
        assert_eq!(sched.next_runnable(), Some(JobId(0)));
        assert!(!sched.cancel_queued(JobId(0)), "running, not queued");
        assert!(sched.cancel_queued(JobId(1)));
        assert!(!sched.cancel_queued(JobId(1)), "already gone");
        assert_eq!(sched.queue_len(), 0);
    }
}
