//! Standardized exploration datasets (the paper's Section 3.4 and Fig. 9).
//!
//! Because every agent speaks the same action/observation/reward interface,
//! every agent↔environment interaction can be recorded as a [`Transition`].
//! A [`Dataset`] aggregates transitions across agents, hyperparameter runs
//! and experiments; datasets can be merged (for *size*) or sampled per
//! agent (for *diversity*) and exported to JSON/CSV — the Rust stand-in for
//! the paper's TFDS/RLDS artifacts. Section 7 trains random-forest proxy
//! cost models directly from these datasets.

use crate::codec::{parse_json, Json};
use crate::env::StepResult;
use crate::error::{ArchGymError, Result};
use crate::space::Action;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::Arc;

/// One recorded agent↔environment interaction.
///
/// The two labels are shared: a run allocates each once and every
/// transition it records points at it. Each row still carries its own
/// labels, so merged datasets keep their sources apart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Environment identifier (e.g. `"dram"`).
    pub env: Arc<str>,
    /// Agent identifier (e.g. `"aco"`). This is the *source* label that
    /// dataset-diversity experiments stratify on.
    pub agent: Arc<str>,
    /// Index-encoded design point.
    pub action: Action,
    /// Raw observation metrics.
    pub observation: Vec<f64>,
    /// Scalar reward/fitness.
    pub reward: f64,
    /// Whether the design was feasible.
    pub feasible: bool,
}

impl Transition {
    /// Record a step outcome. Pass `Arc<str>` labels to share them
    /// across a run's transitions; a `&str` is copied into a new one.
    pub fn new(
        env: impl Into<Arc<str>>,
        agent: impl Into<Arc<str>>,
        action: Action,
        result: &StepResult,
    ) -> Self {
        Transition {
            env: env.into(),
            agent: agent.into(),
            action,
            observation: result.observation.as_slice().to_vec(),
            reward: result.reward,
            feasible: result.feasible,
        }
    }

    /// Encode as an offline-safe JSON value — bit-exact `f64`
    /// round-trips, quoted `"NaN"`/`"inf"`/`"-inf"` for non-finite
    /// values.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("env".into(), Json::Str(self.env.to_string())),
            ("agent".into(), Json::Str(self.agent.to_string())),
            (
                "action".into(),
                Json::Arr(
                    self.action
                        .iter()
                        .map(|&i| Json::num_u64(i as u64))
                        .collect(),
                ),
            ),
            (
                "observation".into(),
                Json::Arr(self.observation.iter().map(|&v| Json::num_f64(v)).collect()),
            ),
            ("reward".into(), Json::num_f64(self.reward)),
            ("feasible".into(), Json::Bool(self.feasible)),
        ])
    }

    /// Decode a value produced by [`Transition::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on schema mismatches.
    pub fn from_json(value: &Json) -> std::result::Result<Self, String> {
        Self::from_json_sharing(value, &mut Labels::default())
    }

    /// [`Transition::from_json`], taking each label from `labels` when
    /// its text matches the previous row's.
    fn from_json_sharing(value: &Json, labels: &mut Labels) -> std::result::Result<Self, String> {
        Ok(Transition {
            env: Labels::share(&mut labels.env, value.field("env")?.as_str()?),
            agent: Labels::share(&mut labels.agent, value.field("agent")?.as_str()?),
            action: Action::new(
                value
                    .field("action")?
                    .as_arr()?
                    .iter()
                    .map(Json::as_usize)
                    .collect::<std::result::Result<Vec<_>, String>>()?,
            ),
            observation: value
                .field("observation")?
                .as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<std::result::Result<Vec<_>, String>>()?,
            reward: value.field("reward")?.as_f64()?,
            feasible: value.field("feasible")?.as_bool()?,
        })
    }

    /// Encode as a single JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().encode()
    }

    /// Decode one JSONL line produced by [`Transition::to_line`].
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] on malformed lines.
    pub fn from_line(line: &str) -> Result<Self> {
        Self::from_line_sharing(line, &mut Labels::default())
    }

    /// [`Transition::from_line`], sharing labels through `labels`.
    fn from_line_sharing(line: &str, labels: &mut Labels) -> Result<Self> {
        parse_json(line)
            .and_then(|v| Self::from_json_sharing(&v, labels))
            .map_err(|e| ArchGymError::Dataset(format!("bad line: {e}")))
    }
}

/// The labels of the last row read back, so that a row with the same text
/// shares them instead of allocating its own: a dataset read back from one
/// run holds one copy of each label, as the run that wrote it did.
#[derive(Debug, Default)]
struct Labels {
    env: Option<Arc<str>>,
    agent: Option<Arc<str>>,
}

impl Labels {
    /// The label in `last` if its text is `text`; otherwise a new one,
    /// which replaces it.
    fn share(last: &mut Option<Arc<str>>, text: &str) -> Arc<str> {
        match last {
            Some(label) if **label == *text => Arc::clone(label),
            _ => Arc::clone(last.insert(text.into())),
        }
    }
}

/// An ordered collection of [`Transition`]s with merge/sample/export
/// utilities — the "ArchGym Dataset" of Fig. 1.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Dataset {
    transitions: Vec<Transition>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Number of transitions.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Whether the dataset holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Append one transition.
    pub fn push(&mut self, transition: Transition) {
        self.transitions.push(transition);
    }

    /// The transitions in insertion order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Iterate over transitions.
    pub fn iter(&self) -> std::slice::Iter<'_, Transition> {
        self.transitions.iter()
    }

    /// Merge another dataset into this one (the *size* axis of Fig. 10).
    pub fn merge(&mut self, other: Dataset) {
        self.transitions.extend(other.transitions);
    }

    /// The set of distinct agent labels present, with per-agent counts —
    /// the *composition* reported in Fig. 10(a).
    pub fn composition(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for t in &self.transitions {
            *counts.entry(t.agent.to_string()).or_insert(0) += 1;
        }
        counts
    }

    /// Keep only transitions produced by `agent` (the "single-source"
    /// datasets of Section 7.1).
    pub fn filter_agent(&self, agent: &str) -> Dataset {
        Dataset {
            transitions: self
                .transitions
                .iter()
                .filter(|t| &*t.agent == agent)
                .cloned()
                .collect(),
        }
    }

    /// Keep only feasible transitions.
    pub fn filter_feasible(&self) -> Dataset {
        Dataset {
            transitions: self
                .transitions
                .iter()
                .filter(|t| t.feasible)
                .cloned()
                .collect(),
        }
    }

    /// Uniformly sample `n` transitions without replacement (clamped to the
    /// dataset size) — the pandas-style sampling used to build the
    /// fixed-size dataset tiers of Fig. 10.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        let mut picked = self.transitions.clone();
        picked.shuffle(rng);
        picked.truncate(n);
        Dataset {
            transitions: picked,
        }
    }

    /// Split into `(train, test)` with `train_frac` of the data (after a
    /// shuffle) in the training split.
    ///
    /// # Panics
    ///
    /// Panics if `train_frac` is outside `(0, 1)`.
    pub fn split<R: Rng + ?Sized>(&self, train_frac: f64, rng: &mut R) -> (Dataset, Dataset) {
        assert!(
            train_frac > 0.0 && train_frac < 1.0,
            "train_frac {train_frac} outside (0, 1)"
        );
        let mut shuffled = self.transitions.clone();
        shuffled.shuffle(rng);
        let cut = ((shuffled.len() as f64) * train_frac).round() as usize;
        let test = shuffled.split_off(cut.min(shuffled.len()));
        (
            Dataset {
                transitions: shuffled,
            },
            Dataset { transitions: test },
        )
    }

    /// Serialize as JSON-lines (one transition per line) to a writer
    /// via the offline-safe codec with bit-exact float round-trips.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl<W: Write>(&self, mut writer: W) -> Result<()> {
        for t in &self.transitions {
            writeln!(writer, "{}", t.to_line())?;
        }
        Ok(())
    }

    /// Parse a JSON-lines stream produced by [`Dataset::write_jsonl`].
    ///
    /// Equivalent to [`Dataset::read_jsonl_counting`] with the skip count
    /// discarded: a truncated final line (the artifact a crash mid-write
    /// leaves behind) is silently dropped.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] on malformed lines.
    pub fn read_jsonl<R: Read>(reader: R) -> Result<Dataset> {
        Ok(Self::read_jsonl_counting(reader)?.0)
    }

    /// Parse a JSON-lines stream, tolerating a truncated final line.
    ///
    /// A process killed mid-`write_jsonl` leaves a prefix of the last
    /// record with no trailing newline. If the stream does not end in
    /// `'\n'` and its final line fails to parse, that line is dropped and
    /// counted in the returned skip count instead of aborting the read.
    /// Malformed lines anywhere else — or a malformed final line in a
    /// newline-terminated stream — are still hard errors.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] on malformed complete lines and
    /// propagates I/O failures.
    pub fn read_jsonl_counting<R: Read>(mut reader: R) -> Result<(Dataset, usize)> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        let complete_tail = bytes.last() == Some(&b'\n');
        // A crash can also cut a multi-byte character in half; lossy
        // decoding turns that into a replacement character the tail-line
        // parser then rejects, so the partial record is still skipped.
        let text = String::from_utf8_lossy(&bytes);
        let lines: Vec<&str> = text.lines().collect();
        let mut dataset = Dataset::new();
        let mut skipped = 0;
        let mut labels = Labels::default();
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match Transition::from_line_sharing(line, &mut labels) {
                Ok(t) => dataset.push(t),
                Err(_) if !complete_tail && i + 1 == lines.len() => skipped += 1,
                Err(e) => return Err(e),
            }
        }
        Ok((dataset, skipped))
    }

    /// Serialize as CSV with a header row. Action indices become columns
    /// `a0..a{d-1}` and observation metrics `o0..o{m-1}`; all transitions
    /// must share the same action and observation widths.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] if widths are inconsistent, and
    /// propagates I/O failures.
    pub fn write_csv<W: Write>(&self, mut writer: W) -> Result<()> {
        let Some(first) = self.transitions.first() else {
            return Ok(());
        };
        let (ad, od) = (first.action.len(), first.observation.len());
        let mut header = vec!["env".to_owned(), "agent".to_owned()];
        header.extend((0..ad).map(|i| format!("a{i}")));
        header.extend((0..od).map(|i| format!("o{i}")));
        header.push("reward".into());
        header.push("feasible".into());
        writeln!(writer, "{}", header.join(","))?;
        for t in &self.transitions {
            if t.action.len() != ad || t.observation.len() != od {
                return Err(ArchGymError::Dataset(format!(
                    "inconsistent widths: expected {ad} action / {od} observation columns"
                )));
            }
            let mut row = vec![t.env.to_string(), t.agent.to_string()];
            row.extend(t.action.iter().map(|i| i.to_string()));
            row.extend(t.observation.iter().map(|v| format!("{v}")));
            row.push(format!("{}", t.reward));
            row.push(format!("{}", t.feasible));
            writeln!(writer, "{}", row.join(","))?;
        }
        Ok(())
    }

    /// Parse a CSV stream produced by [`Dataset::write_csv`].
    ///
    /// Equivalent to [`Dataset::read_csv_counting`] with the skip count
    /// discarded: a truncated final row (the artifact a crash mid-write
    /// leaves behind) is silently dropped.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] on malformed headers or rows.
    pub fn read_csv<R: Read>(reader: R) -> Result<Dataset> {
        Ok(Self::read_csv_counting(reader)?.0)
    }

    /// Parse a CSV stream, tolerating a truncated final row.
    ///
    /// Mirrors [`Dataset::read_jsonl_counting`]: if the stream does not
    /// end in `'\n'` and its final row fails to parse, that row is dropped
    /// and counted in the returned skip count. Malformed complete rows —
    /// and malformed headers — are still hard errors.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] on malformed headers or complete
    /// rows, and propagates I/O failures.
    pub fn read_csv_counting<R: Read>(mut reader: R) -> Result<(Dataset, usize)> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        let complete_tail = bytes.last() == Some(&b'\n');
        let text = String::from_utf8_lossy(&bytes);
        let mut lines = text.lines();
        let Some(header) = lines.next() else {
            return Ok((Dataset::new(), 0));
        };
        let columns: Vec<&str> = header.split(',').collect();
        let n_actions = columns
            .iter()
            .filter(|c| c.starts_with('a') && c[1..].parse::<usize>().is_ok())
            .count();
        let n_obs = columns
            .iter()
            .filter(|c| c.starts_with('o') && c[1..].parse::<usize>().is_ok())
            .count();
        let expected = 2 + n_actions + n_obs + 2;
        if columns.len() != expected
            || columns.first() != Some(&"env")
            || columns.get(1) != Some(&"agent")
        {
            return Err(ArchGymError::Dataset(format!(
                "unrecognized CSV header `{header}`"
            )));
        }
        let rows: Vec<&str> = lines.collect();
        let mut dataset = Dataset::new();
        let mut skipped = 0;
        let mut labels = Labels::default();
        for (i, line) in rows.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match Self::parse_csv_row(line, i + 2, n_actions, n_obs, expected, &mut labels) {
                Ok(t) => dataset.push(t),
                Err(_) if !complete_tail && i + 1 == rows.len() => skipped += 1,
                Err(e) => return Err(e),
            }
        }
        Ok((dataset, skipped))
    }

    /// Parse one data row of a [`Dataset::write_csv`] stream, sharing its
    /// labels through `labels`.
    fn parse_csv_row(
        line: &str,
        lineno: usize,
        n_actions: usize,
        n_obs: usize,
        expected: usize,
        labels: &mut Labels,
    ) -> Result<Transition> {
        let bad = |what: &str| ArchGymError::Dataset(format!("CSV row {lineno}: {what}"));
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != expected {
            return Err(bad("wrong column count"));
        }
        let action: Vec<usize> = fields[2..2 + n_actions]
            .iter()
            .map(|f| f.parse().map_err(|_| bad("bad action index")))
            .collect::<Result<_>>()?;
        let observation: Vec<f64> = fields[2 + n_actions..2 + n_actions + n_obs]
            .iter()
            .map(|f| f.parse().map_err(|_| bad("bad observation value")))
            .collect::<Result<_>>()?;
        let reward: f64 = fields[expected - 2]
            .parse()
            .map_err(|_| bad("bad reward"))?;
        let feasible: bool = fields[expected - 1]
            .parse()
            .map_err(|_| bad("bad feasible flag"))?;
        Ok(Transition {
            env: Labels::share(&mut labels.env, fields[0]),
            agent: Labels::share(&mut labels.agent, fields[1]),
            action: Action::new(action),
            observation,
            reward,
            feasible,
        })
    }

    /// Feature/target matrices for proxy-model training: features are the
    /// raw action indices as `f64`, the target is observation metric
    /// `metric`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] on an empty dataset or an
    /// out-of-range metric index.
    pub fn features_targets(&self, metric: usize) -> Result<(Vec<Vec<f64>>, Vec<f64>)> {
        if self.transitions.is_empty() {
            return Err(ArchGymError::Dataset("empty dataset".into()));
        }
        let mut xs = Vec::with_capacity(self.len());
        let mut ys = Vec::with_capacity(self.len());
        for t in &self.transitions {
            if metric >= t.observation.len() {
                return Err(ArchGymError::Dataset(format!(
                    "metric index {metric} out of range ({} metrics)",
                    t.observation.len()
                )));
            }
            xs.push(t.action.iter().map(|&i| i as f64).collect());
            ys.push(t.observation[metric]);
        }
        Ok((xs, ys))
    }

    /// The transition with the highest reward, if any. Ties keep the
    /// earliest transition and NaN rewards are skipped — the same rule
    /// [`SearchLoop`](crate::search::SearchLoop) applies when tracking
    /// its best sample, so on a dataset recorded by a run the two agree
    /// on the winning action, not just the winning reward.
    pub fn best(&self) -> Option<&Transition> {
        let mut best: Option<&Transition> = None;
        for t in &self.transitions {
            if best.map_or(!t.reward.is_nan(), |b| t.reward > b.reward) {
                best = Some(t);
            }
        }
        best
    }
}

impl FromIterator<Transition> for Dataset {
    fn from_iter<I: IntoIterator<Item = Transition>>(iter: I) -> Self {
        Dataset {
            transitions: iter.into_iter().collect(),
        }
    }
}

impl Extend<Transition> for Dataset {
    fn extend<I: IntoIterator<Item = Transition>>(&mut self, iter: I) {
        self.transitions.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Observation;
    use crate::seeded_rng;

    fn transition(agent: &str, reward: f64) -> Transition {
        Transition::new(
            "toy",
            agent,
            Action::new(vec![1, 2]),
            &StepResult::terminal(Observation::new(vec![reward * 2.0, 7.0]), reward),
        )
    }

    fn sample_dataset() -> Dataset {
        let mut d = Dataset::new();
        for i in 0..10 {
            d.push(transition(if i % 2 == 0 { "aco" } else { "ga" }, i as f64));
        }
        d
    }

    #[test]
    fn push_merge_and_composition() {
        let mut d = sample_dataset();
        assert_eq!(d.len(), 10);
        let comp = d.composition();
        assert_eq!(comp["aco"], 5);
        assert_eq!(comp["ga"], 5);
        let mut other = Dataset::new();
        other.push(transition("bo", 1.0));
        d.merge(other);
        assert_eq!(d.len(), 11);
        assert_eq!(d.composition()["bo"], 1);
    }

    #[test]
    fn filter_agent_keeps_only_that_source() {
        let d = sample_dataset();
        let aco = d.filter_agent("aco");
        assert_eq!(aco.len(), 5);
        assert!(aco.iter().all(|t| &*t.agent == "aco"));
    }

    #[test]
    fn filter_feasible_drops_infeasible() {
        let mut d = sample_dataset();
        let mut bad = transition("rl", 0.0);
        bad.feasible = false;
        d.push(bad);
        assert_eq!(d.filter_feasible().len(), 10);
    }

    #[test]
    fn sample_without_replacement() {
        let d = sample_dataset();
        let mut rng = seeded_rng(3);
        let s = d.sample(4, &mut rng);
        assert_eq!(s.len(), 4);
        let s_all = d.sample(100, &mut rng);
        assert_eq!(s_all.len(), 10);
    }

    #[test]
    fn split_partitions_everything() {
        let d = sample_dataset();
        let mut rng = seeded_rng(5);
        let (train, test) = d.split(0.8, &mut rng);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(train.len(), 8);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1)")]
    fn split_rejects_bad_fraction() {
        let d = sample_dataset();
        let mut rng = seeded_rng(5);
        let _ = d.split(1.0, &mut rng);
    }

    #[test]
    fn jsonl_roundtrip() {
        let d = sample_dataset();
        let mut buf = Vec::new();
        d.write_jsonl(&mut buf).unwrap();
        let back = Dataset::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn read_back_rows_share_their_labels_and_write_the_same_bytes() {
        let env: Arc<str> = "dram/stream".into();
        let agent: Arc<str> = "ga".into();
        let d: Dataset = (0..6)
            .map(|i| {
                let result = StepResult::terminal(Observation::new(vec![i as f64, -0.5]), 1.0);
                Transition::new(env.clone(), agent.clone(), Action::new(vec![i, 1]), &result)
            })
            .collect();
        let (mut csv, mut jsonl) = (Vec::new(), Vec::new());
        d.write_csv(&mut csv).unwrap();
        d.write_jsonl(&mut jsonl).unwrap();
        for back in [
            Dataset::read_csv(csv.as_slice()).unwrap(),
            Dataset::read_jsonl(jsonl.as_slice()).unwrap(),
        ] {
            assert_eq!(back, d);
            let first = &back.transitions()[0];
            for t in back.iter() {
                assert!(Arc::ptr_eq(&t.env, &first.env));
                assert!(Arc::ptr_eq(&t.agent, &first.agent));
            }
            let (mut csv_again, mut jsonl_again) = (Vec::new(), Vec::new());
            back.write_csv(&mut csv_again).unwrap();
            back.write_jsonl(&mut jsonl_again).unwrap();
            assert_eq!(csv_again, csv);
            assert_eq!(jsonl_again, jsonl);
        }
        // Alternating agents still read back with their own labels.
        let mixed = sample_dataset();
        let mut buf = Vec::new();
        mixed.write_csv(&mut buf).unwrap();
        assert_eq!(Dataset::read_csv(buf.as_slice()).unwrap(), mixed);
    }

    #[test]
    fn jsonl_rejects_garbage() {
        // Newline-terminated garbage is a *complete* malformed line, not a
        // crash artifact, so it must stay a hard error.
        let err = Dataset::read_jsonl("not json\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ArchGymError::Dataset(_)));
        // Garbage before the final line is always a hard error, even when
        // the stream also has a truncated tail.
        let err = Dataset::read_jsonl_counting("not json\nalso not".as_bytes()).unwrap_err();
        assert!(matches!(err, ArchGymError::Dataset(_)));
    }

    #[test]
    fn jsonl_reader_skips_truncated_final_line() {
        let d = sample_dataset();
        let mut buf = Vec::new();
        d.write_jsonl(&mut buf).unwrap();
        // Chop into the last record, as a crash mid-write would.
        let cut = buf.len() - 7;
        let (back, skipped) = Dataset::read_jsonl_counting(&buf[..cut]).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(back.len(), d.len() - 1);
        assert_eq!(back.transitions(), &d.transitions()[..d.len() - 1]);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let d = sample_dataset();
        let mut buf = Vec::new();
        d.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 11);
        assert_eq!(lines[0], "env,agent,a0,a1,o0,o1,reward,feasible");
        assert!(lines[1].starts_with("toy,aco,1,2,"));
    }

    #[test]
    fn csv_roundtrip() {
        let d = sample_dataset();
        let mut buf = Vec::new();
        d.write_csv(&mut buf).unwrap();
        let back = Dataset::read_csv(buf.as_slice()).unwrap();
        assert_eq!(back.len(), d.len());
        for (a, b) in d.iter().zip(back.iter()) {
            assert_eq!(a.env, b.env);
            assert_eq!(a.agent, b.agent);
            assert_eq!(a.action, b.action);
            assert_eq!(a.reward, b.reward);
            assert_eq!(a.feasible, b.feasible);
            for (x, y) in a.observation.iter().zip(&b.observation) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn csv_reader_rejects_malformed_input() {
        assert!(Dataset::read_csv("not,a,header\n".as_bytes()).is_err());
        let missing_col = "env,agent,a0,o0,reward,feasible\ntoy,rw,1,2.0,0.5\n";
        assert!(Dataset::read_csv(missing_col.as_bytes()).is_err());
        let bad_action = "env,agent,a0,o0,reward,feasible\ntoy,rw,x,2.0,0.5,true\n";
        assert!(Dataset::read_csv(bad_action.as_bytes()).is_err());
        let bad_flag = "env,agent,a0,o0,reward,feasible\ntoy,rw,1,2.0,0.5,maybe\n";
        assert!(Dataset::read_csv(bad_flag.as_bytes()).is_err());
        // An empty stream is an empty dataset, not an error.
        assert!(Dataset::read_csv("".as_bytes()).unwrap().is_empty());
    }

    #[test]
    fn csv_reader_skips_truncated_final_row() {
        let d = sample_dataset();
        let mut buf = Vec::new();
        d.write_csv(&mut buf).unwrap();
        assert_eq!(buf.last(), Some(&b'\n'));
        // Chop into the last row, as a crash mid-write would.
        let cut = buf.len() - 7;
        let (back, skipped) = Dataset::read_csv_counting(&buf[..cut]).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(back.len(), d.len() - 1);
        // A newline-terminated stream gets no such tolerance: the same
        // malformed row as the complete final line is a hard error.
        let mut terminated = buf[..cut].to_vec();
        terminated.push(b'\n');
        assert!(Dataset::read_csv_counting(terminated.as_slice()).is_err());
        // An intact stream reports zero skips.
        let (full, skipped) = Dataset::read_csv_counting(buf.as_slice()).unwrap();
        assert_eq!((full.len(), skipped), (d.len(), 0));
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        let mut d = sample_dataset();
        d.push(Transition::new(
            "toy",
            "rw",
            Action::new(vec![1]),
            &StepResult::terminal(Observation::new(vec![0.0]), 0.0),
        ));
        let mut buf = Vec::new();
        assert!(d.write_csv(&mut buf).is_err());
    }

    #[test]
    fn features_targets_shape() {
        let d = sample_dataset();
        let (xs, ys) = d.features_targets(1).unwrap();
        assert_eq!(xs.len(), 10);
        assert_eq!(xs[0], vec![1.0, 2.0]);
        assert!(ys.iter().all(|&y| y == 7.0));
        assert!(d.features_targets(9).is_err());
        assert!(Dataset::new().features_targets(0).is_err());
    }

    #[test]
    fn best_finds_max_reward() {
        let d = sample_dataset();
        assert_eq!(d.best().unwrap().reward, 9.0);
        assert!(Dataset::new().best().is_none());
    }

    #[test]
    fn collect_from_iterator() {
        let d: Dataset = (0..3).map(|i| transition("rw", i as f64)).collect();
        assert_eq!(d.len(), 3);
    }
}
