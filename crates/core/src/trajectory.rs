//! Standardized exploration datasets (the paper's Section 3.4 and Fig. 9).
//!
//! Because every agent speaks the same action/observation/reward interface,
//! every agent↔environment interaction can be recorded as a [`Transition`].
//! A [`Dataset`] aggregates transitions across agents, hyperparameter runs
//! and experiments; datasets can be merged (for *size*) or sampled per
//! agent (for *diversity*) and exported to JSON/CSV — the Rust stand-in for
//! the paper's TFDS/RLDS artifacts. Section 7 trains random-forest proxy
//! cost models directly from these datasets.
//!
//! A [`Dataset`] is stored by column, not by row: one table of distinct
//! `(env, agent)` label pairs with a small index per row, every row's
//! action indices end to end in one vector and its observation values in
//! another (each with per-row end offsets, so rows of different widths
//! still merge), and a reward and a feasibility column. Recording a sample
//! appends to those vectors and allocates nothing of its own once they have
//! grown, and dropping a dataset frees the same few blocks however many rows
//! it holds. Reading goes through [`Row`], a borrowed view of one row;
//! [`Transition`] is the owned row, for [`Dataset::push`] and read-back.

use crate::codec::{parse_json, Json};
use crate::env::StepResult;
use crate::error::{ArchGymError, Result};
use crate::space::Action;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// One recorded agent↔environment interaction, owned.
///
/// A [`Dataset`] keeps its rows by column; this is the form a row takes
/// on its own, to [`push`](Dataset::push) or to read back. Each row
/// carries its own labels, so merged datasets keep their sources apart.
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

    /// This transition as a borrowed [`Row`].
    pub fn row(&self) -> Row<'_> {
        Row {
            env: Arc::clone(&self.env),
            agent: Arc::clone(&self.agent),
            action: Cells(self.action.as_slice()),
            observation: Cells(&self.observation),
            reward: self.reward,
            feasible: self.feasible,
        }
    }

    /// Encode as an offline-safe JSON value (see [`Row::to_json`]).
    pub fn to_json(&self) -> Json {
        self.row().to_json()
    }

    /// Decode a value produced by [`Transition::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on schema mismatches.
    pub fn from_json(value: &Json) -> std::result::Result<Self, String> {
        Ok(Transition {
            env: value.field("env")?.as_str()?.into(),
            agent: value.field("agent")?.as_str()?.into(),
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
        self.row().to_line()
    }

    /// Decode one JSONL line produced by [`Transition::to_line`].
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] on malformed lines.
    pub fn from_line(line: &str) -> Result<Self> {
        parse_json(line)
            .and_then(|v| Self::from_json(&v))
            .map_err(|e| ArchGymError::Dataset(format!("bad line: {e}")))
    }
}

/// A borrowed run of one row's cells: its action indices or its
/// observation values. It derefs to the slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cells<'a, T>(&'a [T]);

impl<'a, T> Cells<'a, T> {
    /// The cells as a slice.
    pub fn as_slice(&self) -> &'a [T] {
        self.0
    }
}

impl Cells<'_, usize> {
    /// The indices as an owned [`Action`].
    pub fn to_action(&self) -> Action {
        Action::new(self.0.to_vec())
    }
}

impl<T> Deref for Cells<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.0
    }
}

impl<'a, T> IntoIterator for Cells<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<'a, T> IntoIterator for &Cells<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl PartialEq<Action> for Cells<'_, usize> {
    fn eq(&self, other: &Action) -> bool {
        self.0 == other.as_slice()
    }
}

/// One row of a [`Dataset`], borrowed: the fields of a [`Transition`],
/// with the action and observation as [`Cells`] and the labels shared
/// with the dataset's. Two rows are equal when their label texts and
/// values are.
#[derive(Debug, Clone, PartialEq)]
pub struct Row<'a> {
    /// Environment identifier (e.g. `"dram"`).
    pub env: Arc<str>,
    /// Agent identifier (e.g. `"aco"`).
    pub agent: Arc<str>,
    /// Index-encoded design point.
    pub action: Cells<'a, usize>,
    /// Raw observation metrics.
    pub observation: Cells<'a, f64>,
    /// Scalar reward/fitness.
    pub reward: f64,
    /// Whether the design was feasible.
    pub feasible: bool,
}

impl Row<'_> {
    /// The row as an owned [`Transition`].
    pub fn to_transition(&self) -> Transition {
        Transition {
            env: Arc::clone(&self.env),
            agent: Arc::clone(&self.agent),
            action: self.action.to_action(),
            observation: self.observation.to_vec(),
            reward: self.reward,
            feasible: self.feasible,
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

    /// Encode as a single JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().encode()
    }
}

/// An ordered collection of transitions with merge/sample/export
/// utilities — the "ArchGym Dataset" of Fig. 1 — stored by column (see
/// the module docs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// Each distinct `(env, agent)` label pair, in first-seen order.
    labels: Vec<(Arc<str>, Arc<str>)>,
    /// Each row's position in `labels`.
    label: Vec<u32>,
    /// Every row's action indices, end to end.
    actions: Vec<usize>,
    /// Where each row's indices end in `actions`.
    action_ends: Vec<usize>,
    /// Every row's observation values, end to end.
    observations: Vec<f64>,
    /// Where each row's values end in `observations`.
    observation_ends: Vec<usize>,
    rewards: Vec<f64>,
    feasible: Vec<bool>,
}

/// The span of row `i` in a column whose rows end at `ends`.
fn span(ends: &[usize], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] };
    start..ends[i]
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Number of transitions.
    pub fn len(&self) -> usize {
        self.rewards.len()
    }

    /// Whether the dataset holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.rewards.is_empty()
    }

    /// The position of the label pair with these texts, added (made by
    /// `owned`) if none has them. The last row's pair is tried first:
    /// a run records one pair throughout.
    fn label_of(
        &mut self,
        env: &str,
        agent: &str,
        owned: impl FnOnce() -> (Arc<str>, Arc<str>),
    ) -> u32 {
        let is = |&i: &u32| {
            let (e, a) = &self.labels[i as usize];
            **e == *env && **a == *agent
        };
        if let Some(last) = self.label.last().copied().filter(is) {
            return last;
        }
        if let Some(found) = (0..self.labels.len() as u32).find(is) {
            return found;
        }
        self.labels.push(owned());
        (self.labels.len() - 1) as u32
    }

    /// Append one row from its parts.
    fn push_parts(
        &mut self,
        label: u32,
        action: &[usize],
        observation: &[f64],
        reward: f64,
        feasible: bool,
    ) {
        self.label.push(label);
        self.actions.extend_from_slice(action);
        self.action_ends.push(self.actions.len());
        self.observations.extend_from_slice(observation);
        self.observation_ends.push(self.observations.len());
        self.rewards.push(reward);
        self.feasible.push(feasible);
    }

    /// Append one transition.
    pub fn push(&mut self, transition: Transition) {
        let Transition {
            env,
            agent,
            action,
            observation,
            reward,
            feasible,
        } = transition;
        let label = self.label_of(&env, &agent, || (env.clone(), agent.clone()));
        self.push_parts(label, action.as_slice(), &observation, reward, feasible);
    }

    /// Append a step outcome under the labels `env` and `agent`, which
    /// the dataset shares rather than copies: the row's action and
    /// observation go straight into the columns, with no owned row on
    /// the way.
    pub fn record(
        &mut self,
        env: &Arc<str>,
        agent: &Arc<str>,
        action: &Action,
        result: &StepResult,
    ) {
        let label = self.label_of(env, agent, || (Arc::clone(env), Arc::clone(agent)));
        self.push_parts(
            label,
            action.as_slice(),
            result.observation.as_slice(),
            result.reward,
            result.feasible,
        );
    }

    /// Row `i`, if the dataset has one.
    pub fn get(&self, i: usize) -> Option<Row<'_>> {
        let &label = self.label.get(i)?;
        let (env, agent) = &self.labels[label as usize];
        Some(Row {
            env: Arc::clone(env),
            agent: Arc::clone(agent),
            action: Cells(&self.actions[span(&self.action_ends, i)]),
            observation: Cells(&self.observations[span(&self.observation_ends, i)]),
            reward: self.rewards[i],
            feasible: self.feasible[i],
        })
    }

    /// Iterate over the rows in insertion order.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            dataset: self,
            next: 0..self.len(),
        }
    }

    /// Merge another dataset into this one (the *size* axis of Fig. 10):
    /// its columns are appended, and its labels mapped onto this one's.
    pub fn merge(&mut self, other: Dataset) {
        if self.labels.is_empty() {
            *self = other;
            return;
        }
        let labels: Vec<u32> = other
            .labels
            .iter()
            .map(|(env, agent)| self.label_of(env, agent, || (env.clone(), agent.clone())))
            .collect();
        self.label
            .extend(other.label.iter().map(|&l| labels[l as usize]));
        let base = self.actions.len();
        self.actions.extend_from_slice(&other.actions);
        self.action_ends
            .extend(other.action_ends.iter().map(|end| base + end));
        let base = self.observations.len();
        self.observations.extend_from_slice(&other.observations);
        self.observation_ends
            .extend(other.observation_ends.iter().map(|end| base + end));
        self.rewards.extend_from_slice(&other.rewards);
        self.feasible.extend_from_slice(&other.feasible);
    }

    /// A dataset of the rows at `rows`, in that order, with this one's
    /// label table.
    fn select(&self, rows: impl IntoIterator<Item = usize>) -> Dataset {
        let mut picked = Dataset {
            labels: self.labels.clone(),
            ..Dataset::default()
        };
        for i in rows {
            picked.push_parts(
                self.label[i],
                &self.actions[span(&self.action_ends, i)],
                &self.observations[span(&self.observation_ends, i)],
                self.rewards[i],
                self.feasible[i],
            );
        }
        picked
    }

    /// The set of distinct agent labels present, with per-agent counts —
    /// the *composition* reported in Fig. 10(a).
    pub fn composition(&self) -> BTreeMap<String, usize> {
        let mut per_label = vec![0; self.labels.len()];
        for &l in &self.label {
            per_label[l as usize] += 1;
        }
        let mut counts = BTreeMap::new();
        for ((_, agent), n) in self.labels.iter().zip(per_label) {
            if n > 0 {
                *counts.entry(agent.to_string()).or_insert(0) += n;
            }
        }
        counts
    }

    /// Keep only transitions produced by `agent` (the "single-source"
    /// datasets of Section 7.1).
    pub fn filter_agent(&self, agent: &str) -> Dataset {
        self.select((0..self.len()).filter(|&i| &*self.labels[self.label[i] as usize].1 == agent))
    }

    /// Keep only feasible transitions.
    pub fn filter_feasible(&self) -> Dataset {
        self.select((0..self.len()).filter(|&i| self.feasible[i]))
    }

    /// The row positions in an order shuffled by `rng`: the permutation
    /// a shuffle of the rows themselves would draw.
    fn shuffled<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        order
    }

    /// Uniformly sample `n` transitions without replacement (clamped to the
    /// dataset size) — the pandas-style sampling used to build the
    /// fixed-size dataset tiers of Fig. 10.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        let mut order = self.shuffled(rng);
        order.truncate(n);
        self.select(order)
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
        let order = self.shuffled(rng);
        let cut = ((order.len() as f64) * train_frac).round() as usize;
        let (train, test) = order.split_at(cut.min(order.len()));
        (
            self.select(train.iter().copied()),
            self.select(test.iter().copied()),
        )
    }

    /// Serialize as JSON-lines (one transition per line) to a writer
    /// via the offline-safe codec with bit-exact float round-trips.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl<W: Write>(&self, mut writer: W) -> Result<()> {
        for t in self {
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
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match Transition::from_line(line) {
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
        let Some(first) = self.get(0) else {
            return Ok(());
        };
        let (ad, od) = (first.action.len(), first.observation.len());
        let mut header = vec!["env".to_owned(), "agent".to_owned()];
        header.extend((0..ad).map(|i| format!("a{i}")));
        header.extend((0..od).map(|i| format!("o{i}")));
        header.push("reward".into());
        header.push("feasible".into());
        writeln!(writer, "{}", header.join(","))?;
        for t in self {
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
        for (i, line) in rows.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match Self::parse_csv_row(line, i + 2, n_actions, n_obs, expected) {
                Ok(t) => dataset.push(t),
                Err(_) if !complete_tail && i + 1 == rows.len() => skipped += 1,
                Err(e) => return Err(e),
            }
        }
        Ok((dataset, skipped))
    }

    /// Parse one data row of a [`Dataset::write_csv`] stream.
    fn parse_csv_row(
        line: &str,
        lineno: usize,
        n_actions: usize,
        n_obs: usize,
        expected: usize,
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
            env: fields[0].into(),
            agent: fields[1].into(),
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
        if self.is_empty() {
            return Err(ArchGymError::Dataset("empty dataset".into()));
        }
        let mut xs = Vec::with_capacity(self.len());
        let mut ys = Vec::with_capacity(self.len());
        for t in self {
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
    pub fn best(&self) -> Option<Row<'_>> {
        let mut best: Option<usize> = None;
        for (i, &reward) in self.rewards.iter().enumerate() {
            if best.map_or(!reward.is_nan(), |b| reward > self.rewards[b]) {
                best = Some(i);
            }
        }
        self.get(best?)
    }
}

/// Row by row, by label text and value: the label tables and the
/// columns' spare capacity do not matter.
impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// The rows of a [`Dataset`], in insertion order.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    dataset: &'a Dataset,
    next: Range<usize>,
}

impl<'a> Iterator for Rows<'a> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        self.next.next().and_then(|i| self.dataset.get(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.next.size_hint()
    }
}

impl DoubleEndedIterator for Rows<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.next.next_back().and_then(|i| self.dataset.get(i))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl<'a> IntoIterator for &'a Dataset {
    type Item = Row<'a>;
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

impl FromIterator<Transition> for Dataset {
    fn from_iter<I: IntoIterator<Item = Transition>>(iter: I) -> Self {
        let mut dataset = Dataset::new();
        dataset.extend(iter);
        dataset
    }
}

impl Extend<Transition> for Dataset {
    fn extend<I: IntoIterator<Item = Transition>>(&mut self, iter: I) {
        for transition in iter {
            self.push(transition);
        }
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
    fn merged_rows_of_different_widths_and_labels_read_back_whole() {
        let narrow = transition("aco", 1.0);
        let wide = Transition::new(
            "dram",
            "ga",
            Action::new(vec![4, 0, 9]),
            &StepResult::terminal(Observation::new(vec![0.5]), -2.0),
        );
        let mut d: Dataset = [narrow.clone(), wide.clone()].into_iter().collect();
        let other: Dataset = [wide.clone(), narrow.clone(), narrow.clone()]
            .into_iter()
            .collect();
        d.merge(other);
        let rows: Vec<Transition> = d.iter().map(|r| r.to_transition()).collect();
        assert_eq!(
            rows,
            [&narrow, &wide, &wide, &narrow, &narrow].map(Clone::clone)
        );
        assert_eq!(d.get(2).unwrap().action, wide.action);
        assert_eq!(d.get(2).unwrap().observation.as_slice(), &[0.5]);
        assert!(d.get(5).is_none());
        // The merged-in rows reuse this dataset's two label pairs.
        assert_eq!(d.labels.len(), 2);
    }

    #[test]
    fn equality_reads_label_text_not_the_label_table() {
        let (a, b) = (transition("aco", 1.0), transition("ga", 2.0));
        // A filtered dataset keeps its source's label table.
        let first = [b, a.clone()]
            .into_iter()
            .collect::<Dataset>()
            .filter_agent("aco");
        let second: Dataset = [a].into_iter().collect();
        assert_ne!(first.labels, second.labels);
        assert_eq!(first, second);
    }

    #[test]
    fn sample_and_split_draw_the_permutation_a_row_shuffle_draws() {
        let d = sample_dataset();
        let rows: Vec<Transition> = d.iter().map(|r| r.to_transition()).collect();
        let shuffled = |seed| {
            let mut rows = rows.clone();
            rows.shuffle(&mut seeded_rng(seed));
            rows
        };
        let picked: Vec<Transition> = d
            .sample(6, &mut seeded_rng(11))
            .iter()
            .map(|r| r.to_transition())
            .collect();
        assert_eq!(picked, shuffled(11)[..6]);
        let (train, test) = d.split(0.7, &mut seeded_rng(12));
        let order = shuffled(12);
        assert!(train
            .iter()
            .map(|r| r.to_transition())
            .eq(order[..7].iter().cloned()));
        assert!(test
            .iter()
            .map(|r| r.to_transition())
            .eq(order[7..].iter().cloned()));
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
            let first = back.get(0).unwrap();
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
        assert!(back.iter().eq(d.iter().take(d.len() - 1)));
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
