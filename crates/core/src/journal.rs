//! Crash-safe run journal — write-ahead logging for [`SearchLoop`]
//! (see [`crate::search::SearchLoop::run_with`]).
//!
//! A journal is an append-only JSONL file: a header record naming the
//! run configuration, then for each evaluated batch a `batch` record
//! (the proposed actions, written *before* evaluation — write-ahead)
//! followed by one `step` record per settled evaluation. The log is the
//! only state: a resumed run replays it to rebuild the best-so-far.
//!
//! Every line is checksum-framed (`<8-hex-crc32>|<json>`, see
//! [`crate::storeio`]) and verified on replay, so corruption anywhere
//! in the file is *detected* instead of replayed bit-for-bit as
//! garbage. Recovery is prefix-oriented: a process killed mid-write
//! leaves at most one damaged line at the *tail* of the log, which
//! [`RunJournal::open`] silently drops (truncating the file back to
//! the last good record); damage anywhere else — a flipped byte, a
//! hole — is quarantined: the damaged file is copied to
//! `<journal>.corrupt`, the log is truncated back to the last
//! checksummed prefix, and the resumed run replays that prefix and
//! re-evaluates forward, which keeps the final result bit-identical to
//! an undamaged run.
//!
//! All file operations go through the [`StoreIo`] seam, so the chaos
//! suite can inject deterministic write/fsync faults; the fsync policy
//! is a [`Durability`] knob (`none` / `batch` / `always`) applied at
//! write-ahead batch boundaries.
//!
//! The records are encoded with the hand-rolled JSON codec in
//! [`crate::codec`] rather than serde: the journal must keep working in
//! offline verification builds where the serde facade is stubbed out,
//! and it needs bit-exact `f64` round-trips (Rust's `{:?}` shortest
//! representation) for the resume-bit-identity guarantee. Non-finite
//! rewards — a corrupted evaluation is journaled too — are encoded as
//! the quoted strings `"NaN"`, `"inf"` and `"-inf"`.

use crate::codec::{parse_json, push_json_f64, push_json_str, Json};
use crate::error::{ArchGymError, Result};
use crate::storeio::{
    frame_line, real_io, unframe_line, AppendFile, Durability, FrameError, StoreIo,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Journal format version; bumped on incompatible record changes.
/// Version 2 introduced per-line CRC32 checksum framing.
pub const JOURNAL_VERSION: u64 = 2;

fn bad(msg: impl Into<String>) -> ArchGymError {
    ArchGymError::Journal(msg.into())
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// The run identity a journal belongs to; resume refuses to replay a
/// journal whose header does not match the live configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Format version ([`JOURNAL_VERSION`]).
    pub version: u64,
    /// Environment name.
    pub env: String,
    /// Agent name.
    pub agent: String,
    /// Total sample budget of the run.
    pub budget: u64,
    /// Requested batch size.
    pub batch: u64,
}

/// One settled evaluation within a journaled batch.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalStep {
    /// Position of this action within its batch.
    pub index: usize,
    /// Settled reward (may be the degrade penalty).
    pub reward: f64,
    /// Settled observation vector.
    pub observation: Vec<f64>,
    /// Terminal flag from the settled result.
    pub done: bool,
    /// Feasibility flag from the settled result.
    pub feasible: bool,
    /// Auxiliary metrics from the settled result.
    pub info: BTreeMap<String, f64>,
    /// Retry rounds this action consumed while settling.
    pub retries: u64,
    /// Failed evaluation outcomes observed while settling.
    pub faults: u64,
    /// Whether the action exhausted its retries and was degraded to the
    /// infeasible penalty.
    pub degraded: bool,
}

/// One line of the append-only journal log.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Run identity; always the first record.
    Header(JournalHeader),
    /// A proposed batch of actions, written before evaluation.
    Batch(Vec<Vec<usize>>),
    /// The proxy screen's admission decision for the most recent batch:
    /// the candidate indices forwarded to true evaluation, sorted
    /// ascending. Written between the batch record and its steps, so a
    /// resumed run replays the exact screened decision instead of
    /// re-deriving it from a possibly-drifted model state.
    Screen(Vec<usize>),
    /// A settled evaluation within the most recent batch.
    Step(JournalStep),
}

impl JournalRecord {
    /// Encode as a single JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        match self {
            JournalRecord::Header(h) => {
                out.push_str("{\"type\":\"header\",\"version\":");
                let _ = write!(out, "{}", h.version);
                out.push_str(",\"env\":");
                push_json_str(&mut out, &h.env);
                out.push_str(",\"agent\":");
                push_json_str(&mut out, &h.agent);
                let _ = write!(out, ",\"budget\":{},\"batch\":{}}}", h.budget, h.batch);
            }
            JournalRecord::Batch(actions) => {
                out.push_str("{\"type\":\"batch\",\"actions\":[");
                for (i, action) in actions.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('[');
                    for (j, index) in action.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{index}");
                    }
                    out.push(']');
                }
                out.push_str("]}");
            }
            JournalRecord::Screen(admitted) => {
                out.push_str("{\"type\":\"screen\",\"admitted\":[");
                for (i, index) in admitted.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{index}");
                }
                out.push_str("]}");
            }
            JournalRecord::Step(s) => {
                let _ = write!(out, "{{\"type\":\"step\",\"index\":{},\"reward\":", s.index);
                push_json_f64(&mut out, s.reward);
                out.push_str(",\"obs\":[");
                for (i, v) in s.observation.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_f64(&mut out, *v);
                }
                let _ = write!(
                    out,
                    "],\"done\":{},\"feasible\":{},\"info\":{{",
                    s.done, s.feasible
                );
                for (i, (key, value)) in s.info.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(&mut out, key);
                    out.push(':');
                    push_json_f64(&mut out, *value);
                }
                let _ = write!(
                    out,
                    "}},\"retries\":{},\"faults\":{},\"degraded\":{}}}",
                    s.retries, s.faults, s.degraded
                );
            }
        }
        out
    }

    /// Decode one JSONL line.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Journal`] on malformed lines.
    pub fn from_line(line: &str) -> Result<Self> {
        Self::decode(line).map_err(bad)
    }

    fn decode(line: &str) -> std::result::Result<Self, String> {
        let value = parse_json(line)?;
        match value.field("type")?.as_str()? {
            "header" => Ok(JournalRecord::Header(JournalHeader {
                version: value.field("version")?.as_u64()?,
                env: value.field("env")?.as_str()?.to_owned(),
                agent: value.field("agent")?.as_str()?.to_owned(),
                budget: value.field("budget")?.as_u64()?,
                batch: value.field("batch")?.as_u64()?,
            })),
            "batch" => {
                let mut actions = Vec::new();
                for item in value.field("actions")?.as_arr()? {
                    let indices = item
                        .as_arr()?
                        .iter()
                        .map(Json::as_usize)
                        .collect::<std::result::Result<Vec<_>, String>>()?;
                    actions.push(indices);
                }
                Ok(JournalRecord::Batch(actions))
            }
            "screen" => {
                let admitted = value
                    .field("admitted")?
                    .as_arr()?
                    .iter()
                    .map(Json::as_usize)
                    .collect::<std::result::Result<Vec<_>, String>>()?;
                Ok(JournalRecord::Screen(admitted))
            }
            "step" => {
                let mut info = BTreeMap::new();
                match value.field("info")? {
                    Json::Obj(fields) => {
                        for (key, v) in fields {
                            info.insert(key.clone(), v.as_f64()?);
                        }
                    }
                    _ => return Err("step `info` is not an object".into()),
                }
                Ok(JournalRecord::Step(JournalStep {
                    index: value.field("index")?.as_usize()?,
                    reward: value.field("reward")?.as_f64()?,
                    observation: value
                        .field("obs")?
                        .as_arr()?
                        .iter()
                        .map(Json::as_f64)
                        .collect::<std::result::Result<Vec<_>, String>>()?,
                    done: value.field("done")?.as_bool()?,
                    feasible: value.field("feasible")?.as_bool()?,
                    info,
                    retries: value.field("retries")?.as_u64()?,
                    faults: value.field("faults")?.as_u64()?,
                    degraded: value.field("degraded")?.as_bool()?,
                }))
            }
            other => Err(format!("unknown journal record type `{other}`")),
        }
    }
}

// ---------------------------------------------------------------------------
// RunJournal
// ---------------------------------------------------------------------------

/// An open write-ahead run journal: the records recovered from disk
/// plus an append handle flushing each new record before evaluation
/// proceeds.
pub struct RunJournal {
    path: PathBuf,
    durability: Durability,
    file: Box<dyn AppendFile>,
    records: Vec<JournalRecord>,
    recovered_partial_tail: bool,
    quarantined: bool,
    telemetry: crate::telemetry::Recorder,
}

impl std::fmt::Debug for RunJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunJournal")
            .field("path", &self.path)
            .field("durability", &self.durability)
            .field("records", &self.records.len())
            .field("recovered_partial_tail", &self.recovered_partial_tail)
            .field("quarantined", &self.quarantined)
            .finish()
    }
}

/// The quarantine path paired with a damaged journal or store file.
pub fn corrupt_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".corrupt");
    path.with_file_name(name)
}

impl RunJournal {
    /// Open (or create) the journal at `path` on the real filesystem
    /// with no fsyncing — see [`RunJournal::open_with`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(path, real_io(), Durability::None)
    }

    /// Open (or create) the journal at `path`, recovering any existing
    /// records through `io` and applying `durability` to every
    /// subsequent write.
    ///
    /// Recovery is prefix-oriented. An unterminated or unparsable
    /// *final* line — the artifact of a crash mid-write — is dropped
    /// and the file truncated back to the last good record. Damage
    /// anywhere earlier (a checksum mismatch, an unframed or torn
    /// mid-file line) is quarantined: the whole damaged file is copied
    /// to `<journal>.corrupt`, the log is truncated back to the last
    /// checksummed prefix, and the open succeeds with that prefix so
    /// resume can re-evaluate forward deterministically.
    pub fn open_with(
        path: impl AsRef<Path>,
        io: Arc<dyn StoreIo>,
        durability: Durability,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut records = Vec::new();
        let mut recovered_partial_tail = false;
        let mut quarantined = false;

        if io.exists(&path) {
            let text = io
                .read_to_string(&path)
                .map_err(|e| bad(format!("cannot read journal {}: {e}", path.display())))?;

            // (trimmed line, start offset, complete?) for non-blank lines.
            let mut entries: Vec<(&str, usize, bool)> = Vec::new();
            let mut offset = 0;
            for chunk in text.split_inclusive('\n') {
                let complete = chunk.ends_with('\n');
                let line = chunk.trim_end_matches(['\n', '\r']);
                if !line.trim().is_empty() {
                    entries.push((line, offset, complete));
                }
                offset += chunk.len();
            }

            let mut good_end = 0usize;
            for (i, (line, start, complete)) in entries.iter().enumerate() {
                let last = i + 1 == entries.len();
                // A damaged last line is the expected artifact of a
                // crash mid-write; damage anywhere earlier is silent
                // corruption and quarantines the file.
                let payload = if !complete {
                    // Unterminated: can't trust it even if it parses.
                    Err("unterminated journal line".to_string())
                } else {
                    match unframe_line(line) {
                        Ok(payload) => Ok(payload),
                        Err(FrameError::Unframed) => {
                            if i == 0 && JournalRecord::from_line(line).is_ok() {
                                return Err(bad(format!(
                                    "journal {} predates checksum framing (format version < \
                                     {JOURNAL_VERSION}); delete it to start fresh",
                                    path.display()
                                )));
                            }
                            Err("journal line is not checksum-framed".to_string())
                        }
                        Err(err @ FrameError::Mismatch { .. }) => Err(err.to_string()),
                    }
                };
                match payload.and_then(|p| JournalRecord::from_line(p).map_err(|e| e.to_string())) {
                    Ok(record) => {
                        records.push(record);
                        good_end = start
                            + line.len()
                            + (text.as_bytes()[start + line.len()..]
                                .iter()
                                .take_while(|&&b| b == b'\r' || b == b'\n')
                                .count());
                    }
                    Err(_) if last => {
                        recovered_partial_tail = true;
                        break;
                    }
                    Err(err) => {
                        // Mid-file corruption: quarantine a copy, keep
                        // the checksummed prefix, drop everything after
                        // the damage (it cannot be trusted to align
                        // with the records before the hole).
                        records.truncate(Self::count_good(&records));
                        io.write_file(&corrupt_path(&path), text.as_bytes(), false)
                            .map_err(|e| {
                                bad(format!(
                                    "corrupt journal record at line {} ({err}) and quarantine \
                                     failed: {e}",
                                    i + 1
                                ))
                            })?;
                        eprintln!(
                            "archgym: journal {} corrupt at line {} ({err}); quarantined to {} \
                             and resuming from the last {} good record(s)",
                            path.display(),
                            i + 1,
                            corrupt_path(&path).display(),
                            records.len()
                        );
                        quarantined = true;
                        break;
                    }
                }
            }

            if recovered_partial_tail || quarantined {
                io.truncate(&path, good_end as u64)
                    .map_err(|e| bad(format!("cannot truncate damaged journal tail: {e}")))?;
            }
        }

        if let Some(first) = records.first() {
            match first {
                JournalRecord::Header(h) if h.version == JOURNAL_VERSION => {}
                JournalRecord::Header(h) => {
                    return Err(bad(format!(
                        "journal version {} unsupported (expected {JOURNAL_VERSION})",
                        h.version
                    )))
                }
                _ => return Err(bad("journal does not start with a header record")),
            }
        }

        let file = io
            .open_append(&path)
            .map_err(|e| bad(format!("cannot open journal {}: {e}", path.display())))?;

        Ok(RunJournal {
            path,
            durability,
            file,
            records,
            recovered_partial_tail,
            quarantined,
            telemetry: crate::telemetry::Recorder::default(),
        })
    }

    // Records form a good prefix by construction; this is a seam for
    // future partial-prefix policies and keeps truncate() call sites
    // honest.
    fn count_good(records: &[JournalRecord]) -> usize {
        records.len()
    }

    /// Install a telemetry recorder: each [`RunJournal::append`] counts
    /// one journal-append and times its write+flush.
    pub fn set_telemetry(&mut self, recorder: &crate::telemetry::Recorder) {
        self.telemetry = recorder.clone();
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records recovered when the journal was opened (resume replays
    /// these; records appended later are not reflected here).
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Whether the journal held no recovered records when opened.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The recovered header, if any.
    pub fn header(&self) -> Option<&JournalHeader> {
        match self.records.first() {
            Some(JournalRecord::Header(h)) => Some(h),
            _ => None,
        }
    }

    /// Whether a damaged tail line was dropped during recovery.
    pub fn recovered_partial_tail(&self) -> bool {
        self.recovered_partial_tail
    }

    /// Whether mid-file corruption was detected during recovery and the
    /// damaged file quarantined to `<journal>.corrupt`.
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// Append one checksum-framed record and flush it to the OS before
    /// returning — write-ahead semantics for batch records. Under
    /// [`Durability::Always`] every append is fsynced; under
    /// [`Durability::Batch`] the log is fsynced whenever a batch record
    /// lands, so the write-ahead batch (and every step before it) is on
    /// stable storage before its evaluations begin.
    pub fn append(&mut self, record: &JournalRecord) -> Result<()> {
        let _span = self.telemetry.span(crate::telemetry::Phase::JournalAppend);
        self.telemetry
            .incr(crate::telemetry::Counter::JournalAppends);
        let mut line = frame_line(&record.to_line());
        line.push('\n');
        self.file
            .append(line.as_bytes())
            .map_err(|e| bad(format!("cannot append to journal: {e}")))?;
        let sync = match self.durability {
            Durability::Always => true,
            Durability::Batch => matches!(record, JournalRecord::Batch(_)),
            Durability::None => false,
        };
        if sync {
            self.file
                .sync()
                .map_err(|e| bad(format!("cannot fsync journal: {e}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storeio::{FaultyIo, IoFaultPlan};
    use std::fs;

    fn framed(record: &JournalRecord) -> String {
        frame_line(&record.to_line())
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "archgym-journal-{tag}-{}.jsonl",
            std::process::id()
        ));
        let _ = fs::remove_file(&path);
        path
    }

    fn header() -> JournalRecord {
        JournalRecord::Header(JournalHeader {
            version: JOURNAL_VERSION,
            env: "dram/stream".into(),
            agent: "ga".into(),
            budget: 64,
            batch: 8,
        })
    }

    fn step(index: usize, reward: f64) -> JournalRecord {
        let mut info = BTreeMap::new();
        info.insert("power".into(), 0.125);
        info.insert("weird \"key\"\n".into(), -0.5);
        JournalRecord::Step(JournalStep {
            index,
            reward,
            observation: vec![1.0, -2.5e-3, 0.1 + 0.2],
            done: false,
            feasible: true,
            info,
            retries: 2,
            faults: 3,
            degraded: false,
        })
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        for record in [
            header(),
            JournalRecord::Batch(vec![vec![0, 7, 3], vec![], vec![usize::MAX >> 12]]),
            JournalRecord::Screen(vec![0, 3, 17]),
            JournalRecord::Screen(Vec::new()),
            step(0, 0.1 + 0.2),
            step(5, f64::NEG_INFINITY),
            step(9, -1.0e-308),
        ] {
            let line = record.to_line();
            let back = JournalRecord::from_line(&line).unwrap();
            assert_eq!(back, record, "line: {line}");
            // Encoding is canonical: a second round trip is identical text.
            assert_eq!(back.to_line(), line);
        }
    }

    #[test]
    fn nan_rewards_survive_the_round_trip() {
        let line = step(1, f64::NAN).to_line();
        match JournalRecord::from_line(&line).unwrap() {
            JournalRecord::Step(s) => assert!(s.reward.is_nan()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn open_append_reopen_recovers_everything() {
        let path = temp_path("roundtrip");
        {
            let mut journal = RunJournal::open(&path).unwrap();
            assert!(journal.is_empty());
            journal.append(&header()).unwrap();
            journal
                .append(&JournalRecord::Batch(vec![vec![1, 2], vec![3, 4]]))
                .unwrap();
            journal.append(&step(0, 1.5)).unwrap();
        }
        let journal = RunJournal::open(&path).unwrap();
        assert_eq!(journal.records().len(), 3);
        assert_eq!(journal.header().unwrap().agent, "ga");
        assert!(!journal.recovered_partial_tail());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_is_dropped_and_file_repaired() {
        let path = temp_path("tail");
        {
            let mut journal = RunJournal::open(&path).unwrap();
            journal.append(&header()).unwrap();
            journal
                .append(&JournalRecord::Batch(vec![vec![1]]))
                .unwrap();
            journal.append(&step(0, 2.0)).unwrap();
        }
        // Simulate a crash mid-write: chop bytes off the final line.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 7]).unwrap();

        let mut journal = RunJournal::open(&path).unwrap();
        assert!(journal.recovered_partial_tail());
        assert_eq!(journal.records().len(), 2, "damaged step dropped");
        // The file was truncated back to a clean record boundary, so
        // appending resumes a valid log.
        journal.append(&step(0, 2.0)).unwrap();
        drop(journal);
        let journal = RunJournal::open(&path).unwrap();
        assert!(!journal.recovered_partial_tail());
        assert_eq!(journal.records().len(), 3);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_middle_line_is_quarantined_and_prefix_survives() {
        let path = temp_path("middle");
        fs::write(
            &path,
            format!(
                "{}\nnot json at all\n{}\n",
                framed(&header()),
                framed(&step(0, 1.0))
            ),
        )
        .unwrap();
        let journal = RunJournal::open(&path).unwrap();
        assert!(journal.quarantined());
        // Only the checksummed prefix before the hole survives; the
        // step after the damage cannot be trusted to align with it.
        assert_eq!(journal.records().len(), 1);
        assert!(journal.header().is_some());
        let quarantine = corrupt_path(&path);
        assert!(quarantine.exists(), "damaged file copied aside");
        assert!(fs::read_to_string(&quarantine)
            .unwrap()
            .contains("not json at all"));
        // The repaired file reopens cleanly.
        let journal = RunJournal::open(&path).unwrap();
        assert!(!journal.quarantined());
        assert_eq!(journal.records().len(), 1);
        fs::remove_file(&path).unwrap();
        fs::remove_file(&quarantine).unwrap();
    }

    #[test]
    fn flipped_byte_mid_file_is_detected_and_quarantined() {
        let path = temp_path("bitflip");
        {
            let mut journal = RunJournal::open(&path).unwrap();
            journal.append(&header()).unwrap();
            journal
                .append(&JournalRecord::Batch(vec![vec![1]]))
                .unwrap();
            journal.append(&step(0, 2.0)).unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        // Flip a byte inside the *payload* of the middle (batch) record
        // — the pre-checksum format would replay this bit-for-bit.
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[first_nl + 12] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let journal = RunJournal::open(&path).unwrap();
        assert!(journal.quarantined());
        assert_eq!(journal.records().len(), 1, "only the header prefix replays");
        fs::remove_file(&path).unwrap();
        let _ = fs::remove_file(corrupt_path(&path));
    }

    #[test]
    fn journal_must_start_with_a_header() {
        let path = temp_path("noheader");
        fs::write(&path, format!("{}\n", framed(&step(0, 1.0)))).unwrap();
        let err = RunJournal::open(&path).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pre_checksum_journals_are_refused_with_a_typed_error() {
        let path = temp_path("legacy");
        // A version-1 journal: valid records, no checksum frames.
        fs::write(
            &path,
            format!("{}\n{}\n", header().to_line(), step(0, 1.0).to_line()),
        )
        .unwrap();
        let err = RunJournal::open(&path).unwrap_err();
        assert!(matches!(err, ArchGymError::Journal(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durability_always_syncs_every_append() {
        let path = temp_path("durable");
        let io = FaultyIo::new(real_io(), IoFaultPlan::new(3).sync_fail(1.0));
        let mut journal =
            RunJournal::open_with(&path, Arc::new(io.clone()), Durability::Always).unwrap();
        let err = journal.append(&header()).unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        assert!(io.stats().syncs_failed() > 0);
        // Under Durability::None the same plan never syncs, so appends
        // succeed.
        let io = FaultyIo::new(real_io(), IoFaultPlan::new(3).sync_fail(1.0));
        let path2 = temp_path("durable-none");
        let mut journal =
            RunJournal::open_with(&path2, Arc::new(io.clone()), Durability::None).unwrap();
        journal.append(&header()).unwrap();
        assert_eq!(io.stats().total(), 0);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&path2);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Every step record round-trips through its JSONL line,
            /// with bit-exact floats (NaN compared by is_nan).
            #[test]
            fn prop_step_records_round_trip(
                index in 0usize..1024,
                reward in proptest::num::f64::ANY,
                obs in proptest::collection::vec(proptest::num::f64::ANY, 0..6),
                done in any::<bool>(),
                feasible in any::<bool>(),
                info in proptest::collection::btree_map(
                    "[a-z_\"\\\\]{1,8}", proptest::num::f64::ANY, 0..4),
                retries in any::<u64>(),
                faults in any::<u64>(),
                degraded in any::<bool>(),
            ) {
                let record = JournalRecord::Step(JournalStep {
                    index, reward, observation: obs, done, feasible,
                    info, retries, faults, degraded,
                });
                let back = JournalRecord::from_line(&record.to_line()).unwrap();
                let (JournalRecord::Step(a), JournalRecord::Step(b)) = (&record, &back)
                    else { panic!("variant changed") };
                // NaN payload bits collapse to the canonical NaN; every
                // other value must round-trip bit-exactly.
                fn same(x: f64, y: f64) -> bool {
                    (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits()
                }
                prop_assert_eq!(a.index, b.index);
                prop_assert!(same(a.reward, b.reward));
                prop_assert_eq!(a.observation.len(), b.observation.len());
                for (x, y) in a.observation.iter().zip(&b.observation) {
                    prop_assert!(same(*x, *y));
                }
                prop_assert_eq!(a.info.len(), b.info.len());
                for ((ka, va), (kb, vb)) in a.info.iter().zip(&b.info) {
                    prop_assert_eq!(ka, kb);
                    prop_assert!(same(*va, *vb));
                }
            }

            /// Batch records round-trip for arbitrary index matrices.
            #[test]
            fn prop_batch_records_round_trip(
                actions in proptest::collection::vec(
                    proptest::collection::vec(0usize..1_000_000, 0..5), 0..5),
            ) {
                let record = JournalRecord::Batch(actions);
                prop_assert_eq!(
                    JournalRecord::from_line(&record.to_line()).unwrap(),
                    record
                );
            }
        }
    }
}
