//! The daemon's results store: one state directory owning every job's
//! spec, run journal, and final outcome.
//!
//! Layout, keyed by job ID:
//!
//! ```text
//! <state_dir>/job-3.job        accepted submission (tenant, name, spec)
//! <state_dir>/job-3.jsonl      write-ahead run journal (search jobs)
//! <state_dir>/job-3-<agent>.jsonl   per-agent journals (compare jobs)
//! <state_dir>/job-3-race-l000-r00.jsonl   per-lane, per-rung journals
//!                              (race jobs; `lNNN` lane, `rNN` rung)
//! <state_dir>/job-3.done       terminal outcome (state, best reward)
//! ```
//!
//! A `.job` file without a matching `.done` is an in-flight job: on
//! startup the daemon re-admits it and the run journal replays it
//! bit-identically to an uninterrupted run. Both files are written via
//! temp-file + rename so a crash never leaves a torn record; each write
//! uses a unique tmp name (`<file>.tmp.<pid>.<seq>`) so concurrent
//! atomic writes for one job can never tear each other.
//!
//! Durability and verification: record bodies are CRC32-framed
//! ([`archgym_core::storeio`]) and verified on load. A `.job` or
//! `.done` file that fails verification is quarantined to
//! `<file>.corrupt` instead of wedging the daemon: a corrupt spec is
//! skipped (its ID is still never reused), and a corrupt outcome
//! demotes the job to in-flight so the journal re-derives the result.
//! All file I/O goes through the [`StoreIo`] seam, so crash paths are
//! testable with injected faults, and tmp files are fsynced before the
//! rename under any [`Durability`] other than `none`.

use crate::protocol::JobStatus;
use archgym_core::codec::{parse_json, push_json_str, Json};
use archgym_core::error::{ArchGymError, Result};
use archgym_core::jobs::{JobId, JobSpec, JobState};
use archgym_core::journal::corrupt_path;
use archgym_core::storeio::{frame_line, real_io, unframe_line, Durability, FrameError, StoreIo};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn bad(msg: String) -> ArchGymError {
    ArchGymError::InvalidConfig(msg)
}

/// An accepted submission as persisted in a `.job` file.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedJob {
    /// The assigned job ID.
    pub id: JobId,
    /// Submitting tenant.
    pub tenant: String,
    /// Optional unique job name.
    pub name: Option<String>,
    /// What to run.
    pub spec: JobSpec,
}

/// A terminal outcome as persisted in a `.done` file.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Terminal state (`done`, `failed`, `cancelled`, or `timed-out`).
    pub state: JobState,
    /// Final best reward, if any batch settled.
    pub best_reward: Option<f64>,
    /// Total simulator samples consumed.
    pub samples: u64,
    /// Failure message for `failed` jobs.
    pub error: Option<String>,
}

impl JobOutcome {
    /// A `failed` outcome with no result and the given message.
    pub fn failed(error: impl Into<String>) -> JobOutcome {
        JobOutcome {
            state: JobState::Failed,
            best_reward: None,
            samples: 0,
            error: Some(error.into()),
        }
    }

    /// Combine with the identity half into a wire-ready status.
    pub fn status(&self, job: &PersistedJob) -> JobStatus {
        JobStatus {
            job: job.id,
            tenant: job.tenant.clone(),
            state: self.state,
            best_reward: self.best_reward,
            samples: self.samples,
            budget: job.spec.budget,
            error: self.error.clone(),
        }
    }
}

/// Filesystem-backed job store rooted at one state directory.
#[derive(Debug)]
pub struct JobStore {
    dir: PathBuf,
    io: Arc<dyn StoreIo>,
    durability: Durability,
    tmp_seq: AtomicU64,
}

impl JobStore {
    /// Open (creating if needed) the store at `dir` on the real
    /// filesystem with the daemon's default durability (`batch`).
    pub fn open(dir: impl Into<PathBuf>) -> Result<JobStore> {
        Self::open_with(dir, real_io(), Durability::Batch)
    }

    /// Open (creating if needed) the store at `dir`, routing file I/O
    /// through `io` and fsyncing tmp files before rename under any
    /// `durability` other than [`Durability::None`].
    pub fn open_with(
        dir: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
        durability: Durability,
    ) -> Result<JobStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(JobStore {
            dir,
            io,
            durability,
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The I/O seam this store writes through.
    pub fn io(&self) -> &Arc<dyn StoreIo> {
        &self.io
    }

    /// The store's fsync policy.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// The run-journal path for a search job.
    pub fn journal_path(&self, id: JobId) -> PathBuf {
        self.dir.join(format!("{id}.jsonl"))
    }

    /// The run-journal path for one roster entry of a compare job.
    pub fn agent_journal_path(&self, id: JobId, agent: &str) -> PathBuf {
        self.dir.join(format!("{id}-{agent}.jsonl"))
    }

    /// The journal prefix for a race job. The racing scheduler derives
    /// one file per `(lane, rung)` slice from it
    /// (`{id}-race-l{lane:03}-r{rung:02}.jsonl`), all flat in the store
    /// directory so the store needs no subdirectory management.
    pub fn race_journal_prefix(&self, id: JobId) -> PathBuf {
        self.dir.join(format!("{id}-race"))
    }

    fn job_path(&self, id: JobId) -> PathBuf {
        self.dir.join(format!("{id}.job"))
    }

    fn done_path(&self, id: JobId) -> PathBuf {
        self.dir.join(format!("{id}.done"))
    }

    /// Atomic tmp+rename write with a per-write unique tmp name. The
    /// old `path.with_extension("tmp")` scheme mapped `job-3.job` and
    /// `job-3.jsonl` to the same `job-3.tmp`, so two concurrent atomic
    /// writes for one job could tear each other; suffixing the full
    /// file name with pid and a store-wide sequence number makes every
    /// in-flight tmp file distinct.
    fn write_atomic(&self, path: &Path, body: &str) -> Result<()> {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(format!(".tmp.{}.{seq}", std::process::id()));
        let tmp = path.with_file_name(tmp_name);
        let framed = format!("{}\n", frame_line(body.trim_end_matches('\n')));
        let sync = self.durability != Durability::None;
        self.io
            .write_file(&tmp, framed.as_bytes(), sync)
            .map_err(|e| bad(format!("cannot write {}: {e}", tmp.display())))?;
        self.io
            .rename(&tmp, path)
            .map_err(|e| bad(format!("cannot publish {}: {e}", path.display())))
    }

    /// Persist an accepted submission (atomic).
    pub fn record_submitted(&self, job: &PersistedJob) -> Result<()> {
        let mut body = String::from("{\"id\":");
        push_json_str(&mut body, &job.id.to_string());
        body.push_str(",\"tenant\":");
        push_json_str(&mut body, &job.tenant);
        body.push_str(",\"name\":");
        match &job.name {
            Some(name) => push_json_str(&mut body, name),
            None => body.push_str("null"),
        }
        body.push_str(",\"spec\":");
        body.push_str(&job.spec.encode());
        body.push('}');
        self.write_atomic(&self.job_path(job.id), &body)
    }

    /// Persist a terminal outcome (atomic).
    pub fn record_outcome(&self, id: JobId, outcome: &JobOutcome) -> Result<()> {
        let mut body = String::from("{\"state\":");
        push_json_str(&mut body, outcome.state.name());
        body.push_str(",\"best_reward\":");
        match outcome.best_reward {
            Some(v) => archgym_core::codec::push_json_f64(&mut body, v),
            None => body.push_str("null"),
        }
        let _ = write!(body, ",\"samples\":{}", outcome.samples);
        body.push_str(",\"error\":");
        match &outcome.error {
            Some(msg) => push_json_str(&mut body, msg),
            None => body.push_str("null"),
        }
        body.push('}');
        self.write_atomic(&self.done_path(id), &body)
    }

    /// Remove every trace of a job that failed admission after its spec
    /// was persisted (best effort).
    pub fn discard(&self, id: JobId) {
        let _ = self.io.remove_file(&self.job_path(id));
        let _ = self.io.remove_file(&self.done_path(id));
    }

    /// Verify and strip a record's checksum frame. Unframed text is
    /// accepted for store files written before framing (the JSON parse
    /// still validates it); a present-but-mismatched checksum is
    /// corruption.
    fn unframe_or_legacy(text: &str) -> Result<&str> {
        let line = text.trim();
        match unframe_line(line) {
            Ok(payload) => Ok(payload),
            Err(FrameError::Unframed) => Ok(line),
            Err(err @ FrameError::Mismatch { .. }) => Err(bad(err.to_string())),
        }
    }

    fn parse_job(text: &str) -> Result<PersistedJob> {
        let json = parse_json(Self::unframe_or_legacy(text)?).map_err(bad)?;
        let id_text = json.field("id").and_then(Json::as_str).map_err(bad)?;
        let id = JobId::parse(id_text)
            .ok_or_else(|| bad(format!("malformed job id '{id_text}' in store")))?;
        let name = match json.field("name") {
            Ok(Json::Null) | Err(_) => None,
            Ok(value) => Some(value.as_str().map_err(bad)?.to_owned()),
        };
        Ok(PersistedJob {
            id,
            tenant: json
                .field("tenant")
                .and_then(Json::as_str)
                .map_err(bad)?
                .to_owned(),
            name,
            spec: JobSpec::from_json(json.field("spec").map_err(bad)?)?,
        })
    }

    fn parse_outcome(text: &str) -> Result<JobOutcome> {
        let json = parse_json(Self::unframe_or_legacy(text)?).map_err(bad)?;
        let best_reward = match json.field("best_reward") {
            Ok(Json::Null) | Err(_) => None,
            Ok(value) => Some(value.as_f64().map_err(bad)?),
        };
        let error = match json.field("error") {
            Ok(Json::Null) | Err(_) => None,
            Ok(value) => Some(value.as_str().map_err(bad)?.to_owned()),
        };
        Ok(JobOutcome {
            state: JobState::parse(json.field("state").and_then(Json::as_str).map_err(bad)?)?,
            best_reward,
            samples: json.field("samples").and_then(Json::as_u64).map_err(bad)?,
            error,
        })
    }

    /// Move a record that failed verification aside (best effort) so
    /// the daemon keeps serving the rest of the store.
    fn quarantine(&self, path: &Path, why: &str) {
        let aside = corrupt_path(path);
        match self.io.rename(path, &aside) {
            Ok(()) => eprintln!(
                "archgymd: store record {} corrupt ({why}); quarantined to {}",
                path.display(),
                aside.display()
            ),
            Err(e) => eprintln!(
                "archgymd: store record {} corrupt ({why}); quarantine failed: {e}",
                path.display()
            ),
        }
    }

    /// Load every persisted job with its outcome (if terminal), sorted
    /// by job ID so recovery re-admits in-flight jobs in submit order.
    ///
    /// Verification failures never wedge the daemon: a corrupt `.job`
    /// is quarantined and skipped (its ID stays burned via
    /// [`JobStore::next_id`]); a corrupt `.done` is quarantined and the
    /// job reported as in-flight, so it is re-admitted and its journal
    /// re-derives the outcome bit-identically.
    pub fn load(&self) -> Result<Vec<(PersistedJob, Option<JobOutcome>)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("job") {
                continue;
            }
            let job = match self
                .io
                .read_to_string(&path)
                .map_err(|e| bad(e.to_string()))
                .and_then(|text| Self::parse_job(&text))
            {
                Ok(job) => job,
                Err(e) => {
                    self.quarantine(&path, &e.to_string());
                    continue;
                }
            };
            let done_path = self.done_path(job.id);
            let outcome = if self.io.exists(&done_path) {
                match self
                    .io
                    .read_to_string(&done_path)
                    .map_err(|e| bad(e.to_string()))
                    .and_then(|text| Self::parse_outcome(&text))
                {
                    Ok(outcome) => Some(outcome),
                    Err(e) => {
                        self.quarantine(&done_path, &e.to_string());
                        None
                    }
                }
            } else {
                None
            };
            out.push((job, outcome));
        }
        out.sort_by_key(|(job, _)| job.id);
        Ok(out)
    }

    /// The next unused job number, so restarted daemons never reuse an
    /// ID. Derived from *file names* (`job-<n>.*`), not parsed records,
    /// so even a job whose spec was quarantined keeps its ID burned —
    /// reusing it would let a new job overwrite the old journal.
    pub fn next_id(&self) -> Result<u64> {
        let mut next = 0;
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(id) = Self::id_in_file_name(name) {
                next = next.max(id + 1);
            }
        }
        Ok(next)
    }

    fn id_in_file_name(name: &str) -> Option<u64> {
        let rest = name.strip_prefix("job-")?;
        let digits: &str = &rest[..rest.chars().take_while(|c| c.is_ascii_digit()).count()];
        if digits.is_empty() {
            return None;
        }
        digits.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("archgymd-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn jobs_and_outcomes_round_trip_through_disk() {
        let dir = tmp_dir("roundtrip");
        let store = JobStore::open(&dir).unwrap();
        let job = PersistedJob {
            id: JobId(4),
            tenant: "ci".into(),
            name: Some("nightly".into()),
            spec: JobSpec::search("dram/stream", "ga", 500, 9),
        };
        store.record_submitted(&job).unwrap();
        assert_eq!(store.next_id().unwrap(), 5);
        let loaded = store.load().unwrap();
        assert_eq!(loaded, vec![(job.clone(), None)]);

        let outcome = JobOutcome {
            state: JobState::Done,
            best_reward: Some(0.25),
            samples: 500,
            error: None,
        };
        store.record_outcome(job.id, &outcome).unwrap();
        let loaded = store.load().unwrap();
        assert_eq!(loaded, vec![(job, Some(outcome))]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_sorts_by_id_and_discard_removes() {
        let dir = tmp_dir("sorted");
        let store = JobStore::open(&dir).unwrap();
        for id in [7, 2, 5] {
            store
                .record_submitted(&PersistedJob {
                    id: JobId(id),
                    tenant: "t".into(),
                    name: None,
                    spec: JobSpec::search("dram/stream", "rw", 100, id),
                })
                .unwrap();
        }
        let ids: Vec<u64> = store.load().unwrap().iter().map(|(j, _)| j.id.0).collect();
        assert_eq!(ids, vec![2, 5, 7]);
        store.discard(JobId(5));
        let ids: Vec<u64> = store.load().unwrap().iter().map(|(j, _)| j.id.0).collect();
        assert_eq!(ids, vec![2, 7]);
        assert_eq!(store.next_id().unwrap(), 8);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_writes_use_distinct_tmp_names_per_target() {
        // Regression: `path.with_extension("tmp")` collapsed
        // `job-3.job` and `job-3.jsonl` to one `job-3.tmp`, so
        // concurrent atomic writes for a single job could tear each
        // other. Interleave the two write phases explicitly and check
        // both finished files verify.
        let dir = tmp_dir("tmpnames");
        let store = JobStore::open(&dir).unwrap();
        let a = dir.join("job-3.job");
        let b = dir.join("job-3.done");
        let seq_a = store.tmp_seq.load(Ordering::Relaxed);
        store.write_atomic(&a, "{\"which\":\"job\"}").unwrap();
        let seq_b = store.tmp_seq.load(Ordering::Relaxed);
        assert!(seq_b > seq_a, "every write consumes a fresh tmp sequence");
        store.write_atomic(&b, "{\"which\":\"done\"}").unwrap();
        // No stale tmp files and both targets hold their own payload.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let text_a = fs::read_to_string(&a).unwrap();
        let text_b = fs::read_to_string(&b).unwrap();
        assert!(unframe_line(text_a.trim()).unwrap().contains("\"job\""));
        assert!(unframe_line(text_b.trim()).unwrap().contains("\"done\""));
        // And many concurrent writers to sibling files never tear.
        let store = Arc::new(store);
        let handles: Vec<_> = (0..8)
            .map(|n| {
                let store = Arc::clone(&store);
                let dir = dir.clone();
                std::thread::spawn(move || {
                    for round in 0..50 {
                        let path = dir.join(format!("job-9.{}", ["job", "done"][n % 2]));
                        store
                            .write_atomic(&path, &format!("{{\"n\":{n},\"round\":{round}}}"))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for suffix in ["job", "done"] {
            let text = fs::read_to_string(dir.join(format!("job-9.{suffix}"))).unwrap();
            unframe_line(text.trim()).expect("concurrent atomic writes never tear");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_job_is_quarantined_and_its_id_stays_burned() {
        let dir = tmp_dir("quarantine-job");
        let store = JobStore::open(&dir).unwrap();
        for id in [1, 3] {
            store
                .record_submitted(&PersistedJob {
                    id: JobId(id),
                    tenant: "t".into(),
                    name: None,
                    spec: JobSpec::search("dram/stream", "rw", 100, id),
                })
                .unwrap();
        }
        // Flip a byte inside job-3's record.
        let path = dir.join("job-3.job");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        fs::write(&path, &bytes).unwrap();

        let loaded = store.load().unwrap();
        assert_eq!(loaded.len(), 1, "corrupt job skipped, not fatal");
        assert_eq!(loaded[0].0.id, JobId(1));
        assert!(dir.join("job-3.job.corrupt").exists());
        // The quarantined job's ID is still burned: a new submission
        // must not reuse it and overwrite the old journal.
        assert_eq!(store.next_id().unwrap(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_outcome_demotes_job_to_in_flight() {
        let dir = tmp_dir("quarantine-done");
        let store = JobStore::open(&dir).unwrap();
        let job = PersistedJob {
            id: JobId(2),
            tenant: "t".into(),
            name: None,
            spec: JobSpec::search("dram/stream", "rw", 100, 2),
        };
        store.record_submitted(&job).unwrap();
        store
            .record_outcome(
                job.id,
                &JobOutcome {
                    state: JobState::Done,
                    best_reward: Some(1.0),
                    samples: 100,
                    error: None,
                },
            )
            .unwrap();
        let path = dir.join("job-2.done");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x02;
        fs::write(&path, &bytes).unwrap();

        let loaded = store.load().unwrap();
        assert_eq!(loaded.len(), 1);
        assert!(
            loaded[0].1.is_none(),
            "corrupt outcome reads as in-flight so the journal re-derives it"
        );
        assert!(dir.join("job-2.done.corrupt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_unframed_records_still_load() {
        let dir = tmp_dir("legacy");
        let store = JobStore::open(&dir).unwrap();
        // A pre-checksum store record: plain JSON, no frame.
        fs::write(
            dir.join("job-5.job"),
            "{\"id\":\"job-5\",\"tenant\":\"old\",\"name\":null,\"spec\":\
             {\"kind\":\"search\",\"env\":\"dram/stream\",\"objective\":\"\",\
             \"agent\":\"rw\",\"agents\":[],\"budget\":100,\"seed\":5,\
             \"batch\":0,\"eval_jobs\":1,\"sweep_seeds\":3}}\n",
        )
        .unwrap();
        let loaded = store.load().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0.tenant, "old");
        assert_eq!(store.next_id().unwrap(), 6);
        let _ = fs::remove_dir_all(&dir);
    }
}
