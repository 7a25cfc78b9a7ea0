//! Self-describing dataset artifacts.
//!
//! The paper's Section 3.4 envisions community-shared exploration
//! datasets in standardized exchange formats (TFDS/RLDS). A raw
//! [`Dataset`] carries transitions but not their *schema*; a
//! [`DatasetBundle`] adds the parameter space, observation labels and
//! provenance so a stranger (or a future session) can interpret — and
//! validate — every row without the environment's source code.

use crate::codec::{parse_json, Json};
use crate::env::Environment;
use crate::error::{ArchGymError, Result};
use crate::space::ParamSpace;
use crate::trajectory::{Dataset, Transition};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// A dataset plus everything needed to interpret it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetBundle {
    /// Environment identifier the data came from.
    pub env: String,
    /// The design space the actions index into.
    pub space: ParamSpace,
    /// Names of the observation metrics, in order.
    pub observation_labels: Vec<String>,
    /// Free-form provenance note (objective, scale, date, ...).
    pub note: String,
    /// The transitions.
    pub dataset: Dataset,
}

impl DatasetBundle {
    /// Bundle a dataset with its environment's schema.
    pub fn new<E: Environment + ?Sized>(env: &E, dataset: Dataset, note: &str) -> Self {
        DatasetBundle {
            env: env.name().to_owned(),
            space: env.space().clone(),
            observation_labels: env.observation_labels(),
            note: note.to_owned(),
            dataset,
        }
    }

    /// Check every transition against the declared schema.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] naming the first offending row.
    pub fn validate(&self) -> Result<()> {
        let n_obs = self.observation_labels.len();
        for (i, t) in self.dataset.iter().enumerate() {
            self.space
                .validate(&t.action.to_action())
                .map_err(|e| ArchGymError::Dataset(format!("transition {i}: {e}")))?;
            if t.observation.len() != n_obs {
                return Err(ArchGymError::Dataset(format!(
                    "transition {i}: {} observation metrics, schema declares {n_obs}",
                    t.observation.len()
                )));
            }
        }
        Ok(())
    }

    /// Encode as an offline-safe JSON value (see [`crate::codec`]).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("env".into(), Json::Str(self.env.clone())),
            ("space".into(), self.space.to_json()),
            (
                "observation_labels".into(),
                Json::Arr(
                    self.observation_labels
                        .iter()
                        .map(|l| Json::Str(l.clone()))
                        .collect(),
                ),
            ),
            ("note".into(), Json::Str(self.note.clone())),
            (
                "dataset".into(),
                Json::Arr(self.dataset.iter().map(|t| t.to_json()).collect()),
            ),
        ])
    }

    fn from_json(value: &Json) -> std::result::Result<Self, String> {
        Ok(DatasetBundle {
            env: value.field("env")?.as_str()?.to_owned(),
            space: ParamSpace::from_json(value.field("space")?)?,
            observation_labels: value
                .field("observation_labels")?
                .as_arr()?
                .iter()
                .map(|l| l.as_str().map(str::to_owned))
                .collect::<std::result::Result<Vec<_>, String>>()?,
            note: value.field("note")?.as_str()?.to_owned(),
            dataset: value
                .field("dataset")?
                .as_arr()?
                .iter()
                .map(Transition::from_json)
                .collect::<std::result::Result<Dataset, String>>()?,
        })
    }

    /// Serialize the whole bundle as JSON via the offline-safe codec.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_json<W: Write>(&self, mut writer: W) -> Result<()> {
        writer.write_all(self.to_json().encode().as_bytes())?;
        Ok(())
    }

    /// Parse a bundle written by [`DatasetBundle::write_json`] and
    /// validate its schema.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] on parse or validation failure.
    pub fn read_json<R: Read>(mut reader: R) -> Result<DatasetBundle> {
        let mut text = String::new();
        reader.read_to_string(&mut text)?;
        let bundle = parse_json(&text)
            .and_then(|v| Self::from_json(&v))
            .map_err(|e| ArchGymError::Dataset(format!("bad bundle: {e}")))?;
        bundle.validate()?;
        Ok(bundle)
    }

    /// Merge another bundle into this one.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] when the schemas differ — data
    /// from different design spaces must not be silently mixed.
    pub fn merge(&mut self, other: DatasetBundle) -> Result<()> {
        if other.space != self.space || other.observation_labels != self.observation_labels {
            return Err(ArchGymError::Dataset(format!(
                "schema mismatch: cannot merge `{}` into `{}`",
                other.env, self.env
            )));
        }
        self.dataset.merge(other.dataset);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, RandomWalker};
    use crate::env::Environment;
    use crate::toy::PeakEnv;
    use crate::trajectory::Transition;

    fn explored_bundle(seed: u64) -> (PeakEnv, DatasetBundle) {
        let mut env = PeakEnv::new(&[6, 6], vec![2, 4]);
        let mut walker = RandomWalker::new(env.space().clone(), seed);
        let mut dataset = Dataset::new();
        for action in walker.propose(20) {
            let result = env.step(&action);
            dataset.push(Transition::new(env.name(), "rw", action, &result));
        }
        let bundle = DatasetBundle::new(&env, dataset, "unit test");
        (env, bundle)
    }

    #[test]
    fn bundle_carries_schema_and_validates() {
        let (env, bundle) = explored_bundle(1);
        assert_eq!(bundle.env, "peak");
        assert_eq!(bundle.space, *env.space());
        assert_eq!(bundle.observation_labels, ["distance"]);
        bundle.validate().unwrap();
    }

    #[test]
    fn json_roundtrip_revalidates() {
        let (_, bundle) = explored_bundle(2);
        let mut bytes = Vec::new();
        bundle.write_json(&mut bytes).unwrap();
        let back = DatasetBundle::read_json(bytes.as_slice()).unwrap();
        assert_eq!(back, bundle);
    }

    #[test]
    fn validation_catches_out_of_space_actions() {
        let (_, mut bundle) = explored_bundle(3);
        let mut bad = bundle.dataset.get(0).unwrap().to_transition();
        bad.action = crate::space::Action::new(vec![99, 0]);
        bundle.dataset.push(bad);
        let err = bundle.validate().unwrap_err();
        assert!(err.to_string().contains("transition 20"));
    }

    #[test]
    fn validation_catches_observation_width_drift() {
        let (_, mut bundle) = explored_bundle(4);
        let mut bad = bundle.dataset.get(0).unwrap().to_transition();
        bad.observation = vec![1.0, 2.0];
        bundle.dataset.push(bad);
        assert!(bundle.validate().is_err());
    }

    #[test]
    fn merge_requires_matching_schemas() {
        let (_, mut a) = explored_bundle(5);
        let (_, b) = explored_bundle(6);
        let before = a.dataset.len();
        a.merge(b).unwrap();
        assert_eq!(a.dataset.len(), before * 2);

        // A bundle over a different space must be rejected.
        let mut env = PeakEnv::new(&[3, 3, 3], vec![0, 1, 2]);
        let mut walker = RandomWalker::new(env.space().clone(), 7);
        let mut other_data = Dataset::new();
        for action in walker.propose(5) {
            let result = env.step(&action);
            other_data.push(Transition::new(env.name(), "rw", action, &result));
        }
        let other = DatasetBundle::new(&env, other_data, "different space");
        assert!(a.merge(other).is_err());
    }
}
