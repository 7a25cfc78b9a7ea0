//! Finite, index-encoded architecture parameter spaces.
//!
//! Every ArchGym design space (the paper's Fig. 3) is a Cartesian product of
//! finite one-dimensional domains: linear integer ranges, power-of-two
//! ranges, and categorical choices. Each domain is *index-encoded*: its
//! values are enumerated `0..cardinality`, and an [`Action`] is simply a
//! vector with one index per dimension. This uniform encoding is what lets
//! every agent — RL, BO, GA, ACO, random walker — operate on every
//! environment without bespoke glue.

use crate::codec::Json;
use crate::error::{ArchGymError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One finite parameter domain.
///
/// The paper specifies numerical parameters as `(min, max, step)` tuples and
/// exponential parameters as `(min, max, 2^x)`; categorical parameters are
/// explicit value lists. All three appear in Fig. 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamDomain {
    /// Linear range `{min, min+step, ..., <= max}`.
    Int { min: i64, max: i64, step: i64 },
    /// Power-of-two range `{min, 2*min, 4*min, ..., <= max}`; `min` must be a
    /// power of two itself.
    Pow2 { min: u64, max: u64 },
    /// An explicit, ordered set of named choices.
    Categorical { choices: Vec<String> },
}

impl ParamDomain {
    /// Number of distinct values in the domain.
    pub fn cardinality(&self) -> usize {
        match self {
            ParamDomain::Int { min, max, step } => ((max - min) / step + 1) as usize,
            // `min · 2^k ≤ max` exactly when `2^k ≤ ⌊max / min⌋`.
            ParamDomain::Pow2 { min, max } if 1 <= *min && min <= max => {
                (max / min).ilog2() as usize + 1
            }
            ParamDomain::Pow2 { .. } => 0,
            ParamDomain::Categorical { choices } => choices.len(),
        }
    }

    /// Decode an index into the concrete value it denotes.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.cardinality()`; use [`ParamSpace::validate`]
    /// to check whole actions first.
    pub fn value(&self, index: usize) -> ParamValue {
        debug_assert!(
            index < self.cardinality(),
            "index {index} out of range for domain {self:?}"
        );
        match self {
            ParamDomain::Int { min, step, .. } => ParamValue::Int(min + step * index as i64),
            ParamDomain::Pow2 { min, .. } => ParamValue::Int((min << index) as i64),
            ParamDomain::Categorical { choices } => ParamValue::Cat(choices[index].clone()),
        }
    }

    /// Find the index of a concrete value, if it belongs to the domain.
    pub fn index_of(&self, value: &ParamValue) -> Option<usize> {
        match (self, value) {
            (ParamDomain::Int { min, max, step }, ParamValue::Int(v)) => {
                if v < min || v > max || (v - min) % step != 0 {
                    None
                } else {
                    Some(((v - min) / step) as usize)
                }
            }
            (ParamDomain::Pow2 { min, max }, ParamValue::Int(v)) => {
                let v = u64::try_from(*v).ok()?;
                if v < *min || v > *max || !v.is_power_of_two() || !min.is_power_of_two() {
                    return None;
                }
                Some((v.trailing_zeros() - min.trailing_zeros()) as usize)
            }
            (ParamDomain::Categorical { choices }, ParamValue::Cat(name)) => {
                choices.iter().position(|c| c == name)
            }
            _ => None,
        }
    }

    /// Encode as an offline-safe JSON value (see [`crate::codec`]).
    pub fn to_json(&self) -> Json {
        match self {
            ParamDomain::Int { min, max, step } => Json::Obj(vec![
                ("kind".into(), Json::Str("int".into())),
                ("min".into(), Json::num_i64(*min)),
                ("max".into(), Json::num_i64(*max)),
                ("step".into(), Json::num_i64(*step)),
            ]),
            ParamDomain::Pow2 { min, max } => Json::Obj(vec![
                ("kind".into(), Json::Str("pow2".into())),
                ("min".into(), Json::num_u64(*min)),
                ("max".into(), Json::num_u64(*max)),
            ]),
            ParamDomain::Categorical { choices } => Json::Obj(vec![
                ("kind".into(), Json::Str("categorical".into())),
                (
                    "choices".into(),
                    Json::Arr(choices.iter().map(|c| Json::Str(c.clone())).collect()),
                ),
            ]),
        }
    }

    /// Decode a value produced by [`ParamDomain::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on schema mismatches.
    pub fn from_json(value: &Json) -> std::result::Result<Self, String> {
        match value.field("kind")?.as_str()? {
            "int" => Ok(ParamDomain::Int {
                min: value.field("min")?.as_i64()?,
                max: value.field("max")?.as_i64()?,
                step: value.field("step")?.as_i64()?,
            }),
            "pow2" => Ok(ParamDomain::Pow2 {
                min: value.field("min")?.as_u64()?,
                max: value.field("max")?.as_u64()?,
            }),
            "categorical" => Ok(ParamDomain::Categorical {
                choices: value
                    .field("choices")?
                    .as_arr()?
                    .iter()
                    .map(|c| c.as_str().map(str::to_owned))
                    .collect::<std::result::Result<Vec<_>, String>>()?,
            }),
            other => Err(format!("unknown domain kind `{other}`")),
        }
    }

    fn validate(&self, name: &str) -> Result<()> {
        match self {
            ParamDomain::Int { min, max, step } => {
                if step <= &0 {
                    return Err(ArchGymError::InvalidSpace(format!(
                        "`{name}`: step {step} must be positive"
                    )));
                }
                if min > max {
                    return Err(ArchGymError::InvalidSpace(format!(
                        "`{name}`: min {min} > max {max}"
                    )));
                }
                Ok(())
            }
            ParamDomain::Pow2 { min, max } => {
                if !min.is_power_of_two() {
                    return Err(ArchGymError::InvalidSpace(format!(
                        "`{name}`: pow2 min {min} is not a power of two"
                    )));
                }
                if min > max {
                    return Err(ArchGymError::InvalidSpace(format!(
                        "`{name}`: min {min} > max {max}"
                    )));
                }
                Ok(())
            }
            ParamDomain::Categorical { choices } => {
                if choices.is_empty() {
                    return Err(ArchGymError::InvalidSpace(format!(
                        "`{name}`: empty categorical domain"
                    )));
                }
                Ok(())
            }
        }
    }
}

/// A concrete, decoded parameter value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// A numeric value (linear or power-of-two domains).
    Int(i64),
    /// A categorical choice by name.
    Cat(String),
}

impl ParamValue {
    /// The numeric payload, if this is an [`ParamValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            ParamValue::Cat(_) => None,
        }
    }

    /// The categorical payload, if this is a [`ParamValue::Cat`].
    pub fn as_cat(&self) -> Option<&str> {
        match self {
            ParamValue::Cat(name) => Some(name),
            ParamValue::Int(_) => None,
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Cat(name) => write!(f, "{name}"),
        }
    }
}

/// A named dimension of a [`ParamSpace`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamDef {
    name: String,
    domain: ParamDomain,
}

impl ParamDef {
    /// The dimension's name, e.g. `"PagePolicy"` or `"NumPEs"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dimension's domain.
    pub fn domain(&self) -> &ParamDomain {
        &self.domain
    }
}

/// An index-encoded point in a [`ParamSpace`]: one index per dimension.
///
/// Agents emit actions; environments decode them via
/// [`ParamSpace::decode`] into typed simulator configurations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Action(Vec<usize>);

impl Action {
    /// Wrap a vector of per-dimension indices.
    pub fn new(indices: Vec<usize>) -> Self {
        Action(indices)
    }

    /// The index chosen for dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of bounds.
    pub fn index(&self, dim: usize) -> usize {
        self.0[dim]
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the action has zero dimensions.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate over the per-dimension indices.
    pub fn iter(&self) -> std::slice::Iter<'_, usize> {
        self.0.iter()
    }

    /// View the indices as a slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }

    /// Mutable access to the indices (used by mutation operators).
    pub fn as_mut_slice(&mut self) -> &mut [usize] {
        &mut self.0
    }

    /// Consume the action, returning the underlying index vector.
    pub fn into_inner(self) -> Vec<usize> {
        self.0
    }
}

impl From<Vec<usize>> for Action {
    fn from(indices: Vec<usize>) -> Self {
        Action(indices)
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Index `idx` of a domain with `card` values on `[0, 1]`; a lone value
/// maps to `0.5`.
fn unit_coordinate(idx: usize, card: usize) -> f64 {
    if card <= 1 {
        0.5
    } else {
        idx as f64 / (card - 1) as f64
    }
}

/// A finite Cartesian design space: an ordered list of named domains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamSpace {
    params: Vec<ParamDef>,
}

impl ParamSpace {
    /// Start building a space; see [`SpaceBuilder`].
    pub fn builder() -> SpaceBuilder {
        SpaceBuilder::new()
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the space has zero dimensions.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The dimension definitions in order.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// Look up a dimension index by name.
    pub fn dim_of(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name == name)
    }

    /// Per-dimension cardinalities, in order.
    pub fn cardinalities(&self) -> Vec<usize> {
        self.params.iter().map(|p| p.domain.cardinality()).collect()
    }

    /// Total number of points in the space, as `f64` (spaces like the
    /// MAESTRO mapping space exceed `u64`).
    pub fn cardinality(&self) -> f64 {
        self.params
            .iter()
            .map(|p| p.domain.cardinality() as f64)
            .product()
    }

    /// Encode as an offline-safe JSON value (see [`crate::codec`]).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![(
            "params".into(),
            Json::Arr(
                self.params
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(p.name.clone())),
                            ("domain".into(), p.domain.to_json()),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    /// Decode a value produced by [`ParamSpace::to_json`], re-validating
    /// every domain.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on schema mismatches or invalid
    /// domains.
    pub fn from_json(value: &Json) -> std::result::Result<Self, String> {
        let mut params = Vec::new();
        for item in value.field("params")?.as_arr()? {
            let name = item.field("name")?.as_str()?.to_owned();
            let domain = ParamDomain::from_json(item.field("domain")?)?;
            domain.validate(&name).map_err(|e| e.to_string())?;
            params.push(ParamDef { name, domain });
        }
        Ok(ParamSpace { params })
    }

    /// Check that an action matches this space.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::InvalidAction`] when the dimensionality
    /// differs or any index is out of range.
    pub fn validate(&self, action: &Action) -> Result<()> {
        if action.len() != self.params.len() {
            return Err(ArchGymError::InvalidAction(format!(
                "expected {} dimensions, got {}",
                self.params.len(),
                action.len()
            )));
        }
        for (dim, (&idx, param)) in action.iter().zip(&self.params).enumerate() {
            let card = param.domain.cardinality();
            if idx >= card {
                return Err(ArchGymError::InvalidAction(format!(
                    "dimension {dim} (`{}`): index {idx} >= cardinality {card}",
                    param.name
                )));
            }
        }
        Ok(())
    }

    /// Decode an action into named, concrete parameter values.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::InvalidAction`] when the action does not
    /// validate against this space.
    pub fn decode(&self, action: &Action) -> Result<Vec<(String, ParamValue)>> {
        self.validate(action)?;
        Ok(self
            .params
            .iter()
            .zip(action.iter())
            .map(|(p, &idx)| (p.name.clone(), p.domain.value(idx)))
            .collect())
    }

    /// Decode a single named dimension of an action.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a dimension of this space or the action is
    /// shorter than the dimension index (use [`ParamSpace::validate`] first).
    pub fn decode_one(&self, action: &Action, name: &str) -> ParamValue {
        let dim = self
            .dim_of(name)
            .unwrap_or_else(|| panic!("no dimension named `{name}`"));
        self.params[dim].domain.value(action.index(dim))
    }

    /// Encode named concrete values back into an action.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::InvalidAction`] if any name is unknown, any
    /// value lies outside its domain, or any dimension is missing.
    pub fn encode(&self, values: &[(String, ParamValue)]) -> Result<Action> {
        let mut indices = vec![usize::MAX; self.params.len()];
        for (name, value) in values {
            let dim = self.dim_of(name).ok_or_else(|| {
                ArchGymError::InvalidAction(format!("unknown dimension `{name}`"))
            })?;
            indices[dim] = self.params[dim].domain.index_of(value).ok_or_else(|| {
                ArchGymError::InvalidAction(format!("value {value} not in domain of `{name}`"))
            })?;
        }
        if let Some(dim) = indices.iter().position(|&i| i == usize::MAX) {
            return Err(ArchGymError::InvalidAction(format!(
                "missing dimension `{}`",
                self.params[dim].name
            )));
        }
        Ok(Action(indices))
    }

    /// Draw a uniformly random action.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Action {
        Action(
            self.params
                .iter()
                .map(|p| rng.gen_range(0..p.domain.cardinality()))
                .collect(),
        )
    }

    /// Append the indices of `count` random actions to `out`, back to
    /// back: the draws `count` calls of [`ParamSpace::sample`] make, in
    /// the same order, with one allocation in all.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, count: usize, out: &mut Vec<usize>) {
        let cards = self.cardinalities();
        for _ in 0..count {
            out.extend(cards.iter().map(|&card| rng.gen_range(0..card)));
        }
    }

    /// Map an action to the normalized unit hypercube `[0, 1]^d`.
    ///
    /// Dimensions with a single value map to `0.5`. This is the feature
    /// encoding used by the Bayesian-optimization surrogate and the proxy
    /// cost models.
    pub fn normalize(&self, action: &Action) -> Vec<f64> {
        self.params
            .iter()
            .zip(action.iter())
            .map(|(p, &idx)| unit_coordinate(idx, p.domain.cardinality()))
            .collect()
    }

    /// [`ParamSpace::normalize`] of actions whose indices lie back to
    /// back in `indices`, appending their coordinates to `out`.
    pub fn normalize_into(&self, indices: &[usize], out: &mut Vec<f64>) {
        let cards = self.cardinalities();
        for action in indices.chunks_exact(cards.len().max(1)) {
            out.extend(
                action
                    .iter()
                    .zip(&cards)
                    .map(|(&idx, &card)| unit_coordinate(idx, card)),
            );
        }
    }

    /// Inverse of [`ParamSpace::normalize`]: snap a unit-hypercube point to
    /// the nearest valid action (coordinates are clamped to `[0, 1]`).
    pub fn denormalize(&self, point: &[f64]) -> Action {
        Action(
            self.params
                .iter()
                .zip(point)
                .map(|(p, &x)| {
                    let card = p.domain.cardinality();
                    let x = x.clamp(0.0, 1.0);
                    ((x * (card - 1) as f64).round() as usize).min(card - 1)
                })
                .collect(),
        )
    }

    /// Enumerate every action in the space, in lexicographic order.
    ///
    /// Intended for exhaustive sweeps of small spaces; iterating a space
    /// with astronomically many points is the caller's own misfortune.
    pub fn iter(&self) -> SpaceIter<'_> {
        SpaceIter {
            space: self,
            next: Some(vec![0; self.params.len()]),
        }
    }
}

/// Iterator over all actions of a [`ParamSpace`], lexicographic order.
#[derive(Debug)]
pub struct SpaceIter<'a> {
    space: &'a ParamSpace,
    next: Option<Vec<usize>>,
}

impl Iterator for SpaceIter<'_> {
    type Item = Action;

    fn next(&mut self) -> Option<Action> {
        let current = self.next.take()?;
        let mut succ = current.clone();
        let cards = self.space.cardinalities();
        let mut dim = succ.len();
        loop {
            if dim == 0 {
                self.next = None;
                break;
            }
            dim -= 1;
            succ[dim] += 1;
            if succ[dim] < cards[dim] {
                self.next = Some(succ);
                break;
            }
            succ[dim] = 0;
        }
        if self.space.is_empty() {
            self.next = None;
        }
        Some(Action(current))
    }
}

/// Builder for [`ParamSpace`] (C-BUILDER).
///
/// ```
/// use archgym_core::space::ParamSpace;
///
/// let space = ParamSpace::builder()
///     .int("RefreshMaxPostponed", 1, 8, 1)
///     .pow2("MaxActiveTransactions", 1, 128)
///     .categorical("PagePolicy", ["Open", "OpenAdaptive", "Closed", "ClosedAdaptive"])
///     .build()
///     .unwrap();
/// assert_eq!(space.len(), 3);
/// assert_eq!(space.cardinality(), 8.0 * 8.0 * 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpaceBuilder {
    params: Vec<ParamDef>,
}

impl SpaceBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        SpaceBuilder { params: Vec::new() }
    }

    /// Add a linear integer dimension `{min, min+step, ..., <= max}`.
    pub fn int(mut self, name: &str, min: i64, max: i64, step: i64) -> Self {
        self.params.push(ParamDef {
            name: name.to_owned(),
            domain: ParamDomain::Int { min, max, step },
        });
        self
    }

    /// Add a power-of-two dimension `{min, 2min, 4min, ..., <= max}`.
    pub fn pow2(mut self, name: &str, min: u64, max: u64) -> Self {
        self.params.push(ParamDef {
            name: name.to_owned(),
            domain: ParamDomain::Pow2 { min, max },
        });
        self
    }

    /// Add a categorical dimension with the given ordered choices.
    pub fn categorical<I, S>(mut self, name: &str, choices: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.params.push(ParamDef {
            name: name.to_owned(),
            domain: ParamDomain::Categorical {
                choices: choices.into_iter().map(Into::into).collect(),
            },
        });
        self
    }

    /// Finish the space.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::InvalidSpace`] for malformed domains or
    /// duplicate dimension names.
    pub fn build(self) -> Result<ParamSpace> {
        for (i, p) in self.params.iter().enumerate() {
            p.domain.validate(&p.name)?;
            if self.params[..i].iter().any(|q| q.name == p.name) {
                return Err(ArchGymError::InvalidSpace(format!(
                    "duplicate dimension name `{}`",
                    p.name
                )));
            }
        }
        Ok(ParamSpace {
            params: self.params,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use proptest::prelude::*;

    fn small_space() -> ParamSpace {
        ParamSpace::builder()
            .int("a", 1, 8, 1)
            .pow2("b", 1, 128)
            .categorical("c", ["x", "y", "z"])
            .build()
            .unwrap()
    }

    #[test]
    fn int_domain_cardinality_and_values() {
        let d = ParamDomain::Int {
            min: 14,
            max: 336,
            step: 14,
        };
        assert_eq!(d.cardinality(), 24);
        assert_eq!(d.value(0), ParamValue::Int(14));
        assert_eq!(d.value(23), ParamValue::Int(336));
    }

    #[test]
    fn pow2_domain_cardinality_and_values() {
        let d = ParamDomain::Pow2 { min: 1, max: 128 };
        assert_eq!(d.cardinality(), 8);
        assert_eq!(d.value(0), ParamValue::Int(1));
        assert_eq!(d.value(7), ParamValue::Int(128));
        let d = ParamDomain::Pow2 {
            min: 1024,
            max: 65536,
        };
        assert_eq!(d.cardinality(), 7);
        assert_eq!(d.value(6), ParamValue::Int(65536));
    }

    /// The doubling count `cardinality` computed before its closed form.
    fn pow2_cardinality_by_doubling(min: u64, max: u64) -> usize {
        let mut count = 0usize;
        let mut v = min;
        while v <= max {
            count += 1;
            match v.checked_mul(2) {
                Some(next) => v = next,
                None => break,
            }
        }
        count
    }

    #[test]
    fn pow2_domains_without_a_value_are_empty() {
        // The doubling loop never ended on `min: 0` (`0 * 2 == 0`).
        assert_eq!(ParamDomain::Pow2 { min: 0, max: 0 }.cardinality(), 0);
        assert_eq!(ParamDomain::Pow2 { min: 0, max: 64 }.cardinality(), 0);
        assert_eq!(ParamDomain::Pow2 { min: 8, max: 4 }.cardinality(), 0);
        let top = ParamDomain::Pow2 {
            min: 1,
            max: u64::MAX,
        };
        assert_eq!(top.cardinality(), 64);
    }

    #[test]
    fn categorical_domain_roundtrip() {
        let d = ParamDomain::Categorical {
            choices: vec!["Fifo".into(), "FrFcfsGrp".into(), "FrFcfs".into()],
        };
        assert_eq!(d.cardinality(), 3);
        let v = d.value(1);
        assert_eq!(d.index_of(&v), Some(1));
        assert_eq!(d.index_of(&ParamValue::Cat("nope".into())), None);
    }

    #[test]
    fn builder_rejects_bad_domains() {
        assert!(ParamSpace::builder().int("a", 5, 1, 1).build().is_err());
        assert!(ParamSpace::builder().int("a", 1, 5, 0).build().is_err());
        assert!(ParamSpace::builder().pow2("a", 3, 8).build().is_err());
        assert!(ParamSpace::builder()
            .categorical("a", Vec::<String>::new())
            .build()
            .is_err());
        assert!(ParamSpace::builder()
            .int("a", 1, 2, 1)
            .int("a", 1, 2, 1)
            .build()
            .is_err());
    }

    #[test]
    fn validate_rejects_wrong_shape_and_range() {
        let space = small_space();
        assert!(space.validate(&Action::new(vec![0, 0])).is_err());
        assert!(space.validate(&Action::new(vec![8, 0, 0])).is_err());
        assert!(space.validate(&Action::new(vec![0, 0, 3])).is_err());
        assert!(space.validate(&Action::new(vec![7, 7, 2])).is_ok());
    }

    #[test]
    fn decode_and_encode_roundtrip() {
        let space = small_space();
        let action = Action::new(vec![3, 5, 1]);
        let values = space.decode(&action).unwrap();
        assert_eq!(values[0], ("a".into(), ParamValue::Int(4)));
        assert_eq!(values[1], ("b".into(), ParamValue::Int(32)));
        assert_eq!(values[2], ("c".into(), ParamValue::Cat("y".into())));
        let back = space.encode(&values).unwrap();
        assert_eq!(back, action);
    }

    #[test]
    fn encode_detects_missing_dimension() {
        let space = small_space();
        let partial = vec![("a".into(), ParamValue::Int(4))];
        let err = space.encode(&partial).unwrap_err();
        assert!(matches!(err, ArchGymError::InvalidAction(_)));
    }

    #[test]
    fn normalize_denormalize_roundtrip() {
        let space = small_space();
        let action = Action::new(vec![7, 0, 2]);
        let point = space.normalize(&action);
        assert_eq!(point, vec![1.0, 0.0, 1.0]);
        assert_eq!(space.denormalize(&point), action);
    }

    #[test]
    fn batched_sample_and_normalize_match_one_action_at_a_time() {
        let s = small_space();
        let (mut one, mut many) = (seeded_rng(5), seeded_rng(5));
        let actions: Vec<Action> = (0..20).map(|_| s.sample(&mut one)).collect();
        let mut flat = Vec::new();
        s.sample_into(&mut many, 20, &mut flat);
        let want: Vec<usize> = actions.iter().flat_map(|a| a.iter().copied()).collect();
        assert_eq!(flat, want);
        assert_eq!(one.gen::<u64>(), many.gen::<u64>(), "rng streams diverged");
        let mut xs = Vec::new();
        s.normalize_into(&flat, &mut xs);
        let want: Vec<f64> = actions.iter().flat_map(|a| s.normalize(a)).collect();
        assert_eq!(xs, want);
    }

    #[test]
    fn iter_enumerates_whole_space_in_order() {
        let space = ParamSpace::builder()
            .int("a", 0, 1, 1)
            .categorical("b", ["p", "q", "r"])
            .build()
            .unwrap();
        let all: Vec<Action> = space.iter().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], Action::new(vec![0, 0]));
        assert_eq!(all[1], Action::new(vec![0, 1]));
        assert_eq!(all[5], Action::new(vec![1, 2]));
    }

    #[test]
    fn sample_is_always_valid_and_deterministic() {
        let space = small_space();
        let mut rng = seeded_rng(11);
        let a = space.sample(&mut rng);
        space.validate(&a).unwrap();
        let mut rng2 = seeded_rng(11);
        assert_eq!(space.sample(&mut rng2), a);
    }

    #[test]
    fn decode_one_by_name() {
        let space = small_space();
        let action = Action::new(vec![2, 3, 0]);
        assert_eq!(space.decode_one(&action, "b"), ParamValue::Int(8));
        assert_eq!(space.decode_one(&action, "c"), ParamValue::Cat("x".into()));
    }

    #[test]
    fn json_roundtrip() {
        let space = small_space();
        let json = space.to_json().encode();
        let back = ParamSpace::from_json(&crate::codec::parse_json(&json).unwrap()).unwrap();
        assert_eq!(space, back);
        // Canonical: re-encoding the decoded space yields identical text.
        assert_eq!(back.to_json().encode(), json);
    }

    proptest! {
        #[test]
        fn prop_int_roundtrip(min in -50i64..50, span in 0i64..40, step in 1i64..7, pick in 0usize..1000) {
            let d = ParamDomain::Int { min, max: min + span, step };
            let idx = pick % d.cardinality();
            let v = d.value(idx);
            prop_assert_eq!(d.index_of(&v), Some(idx));
        }

        #[test]
        fn prop_pow2_roundtrip(exp_min in 0u32..10, extra in 0u32..10, pick in 0usize..1000) {
            let min = 1u64 << exp_min;
            let max = 1u64 << (exp_min + extra);
            let d = ParamDomain::Pow2 { min, max };
            prop_assert_eq!(d.cardinality(), extra as usize + 1);
            let idx = pick % d.cardinality();
            let v = d.value(idx);
            prop_assert_eq!(d.index_of(&v), Some(idx));
        }

        #[test]
        fn prop_pow2_cardinality_matches_doubling(exp_min in 0u32..64, max in any::<u64>(), shift in 0u32..64) {
            // Power-of-two `min` against every `max`, including those
            // close to a power-of-two multiple of it.
            let min = 1u64 << exp_min;
            let multiple = min << (shift % (64 - exp_min));
            for max in [max, max >> shift, multiple, multiple - 1] {
                let d = ParamDomain::Pow2 { min, max };
                prop_assert_eq!(d.cardinality(), pow2_cardinality_by_doubling(min, max));
            }
        }

        #[test]
        fn prop_pow2_cardinality_matches_doubling_for_any_min(min in 1u64..=u64::MAX, max in any::<u64>(), shift in 0u32..64) {
            for (min, max) in [(min, max), (min >> shift | 1, max >> shift), (min >> shift | 1, max)] {
                let d = ParamDomain::Pow2 { min, max };
                prop_assert_eq!(d.cardinality(), pow2_cardinality_by_doubling(min, max));
            }
        }

        #[test]
        fn prop_sample_validates(seed in 0u64..1000) {
            let space = small_space();
            let mut rng = seeded_rng(seed);
            let a = space.sample(&mut rng);
            prop_assert!(space.validate(&a).is_ok());
        }

        #[test]
        fn prop_normalize_in_unit_cube(seed in 0u64..1000) {
            let space = small_space();
            let mut rng = seeded_rng(seed);
            let a = space.sample(&mut rng);
            let p = space.normalize(&a);
            prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
            prop_assert_eq!(space.denormalize(&p), a);
        }
    }
}
