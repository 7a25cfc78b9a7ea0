//! Benchmark-side timing wrappers around the library's public seams.
//!
//! Each wrapper forwards every method of its trait, defaulted ones
//! included, so a wrapped run takes exactly the decisions an unwrapped
//! one takes (GA and ACO advertise `batch_hint`; losing it would change
//! batching and results). Spans go to one shared [`Tracer`], so cloned
//! environment replicas in an `EnvPool` accumulate into the same record.

use crate::trace::{Family, Layer, Tracer, AGENT_KINDS};
use archgym_core::agent::Agent;
use archgym_core::env::{CloneEnvironment, Environment, Observation, StepResult};
use archgym_core::error::Result;
use archgym_core::pool::BatchEvaluator;
use archgym_core::screen::{ScreenPolicy, Screener};
use archgym_core::space::{Action, ParamSpace};
use archgym_core::storeio::{AppendFile, StoreIo};
use archgym_core::telemetry::Recorder;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Times `step`/`try_step` as the simulator layer of its family. Each
/// step span carries `items` (DRAM requests simulated per step).
#[derive(Clone)]
pub struct TimedEnv<E> {
    inner: E,
    layer: Layer,
    items: usize,
    tracer: Arc<Tracer>,
}

impl<E> TimedEnv<E> {
    pub fn new(inner: E, family: Family, items: usize, tracer: Arc<Tracer>) -> Self {
        TimedEnv {
            inner,
            layer: Layer::Step(family),
            items,
            tracer,
        }
    }
}

impl<E: Environment> Environment for TimedEnv<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }
    fn observation_labels(&self) -> Vec<String> {
        self.inner.observation_labels()
    }
    fn reset(&mut self) -> Observation {
        self.inner.reset()
    }
    fn step(&mut self, action: &Action) -> StepResult {
        let inner = &mut self.inner;
        self.tracer
            .time(self.layer, || inner.step(action), |_| self.items)
    }
    fn try_step(&mut self, action: &Action) -> Result<StepResult> {
        let inner = &mut self.inner;
        self.tracer
            .time(self.layer, || inner.try_step(action), |_| self.items)
    }
    fn set_telemetry(&mut self, recorder: &Recorder) {
        self.inner.set_telemetry(recorder);
    }
}

/// Wrap `env` for tracing when a tracer is given; the untraced path
/// returns it unchanged.
pub fn env(
    env: Box<dyn CloneEnvironment>,
    family: Family,
    items: usize,
    tracer: Option<&Arc<Tracer>>,
) -> Box<dyn CloneEnvironment> {
    match tracer {
        Some(t) => Box::new(TimedEnv::new(env, family, items, Arc::clone(t))),
        None => env,
    }
}

/// Times `propose`/`observe`; optionally closes a sweep-unit span when
/// dropped (see [`Tracer::unit_start`]).
pub struct TimedAgent {
    inner: Box<dyn Agent + Send>,
    kind: u8,
    tracer: Arc<Tracer>,
    closes_unit: bool,
}

impl TimedAgent {
    pub fn new(inner: Box<dyn Agent + Send>, tracer: Arc<Tracer>, closes_unit: bool) -> Self {
        let kind = AGENT_KINDS
            .iter()
            .position(|k| *k == inner.name())
            .unwrap_or_else(|| panic!("untimed agent kind `{}`", inner.name()))
            as u8;
        TimedAgent {
            inner,
            kind,
            tracer,
            closes_unit,
        }
    }
}

impl Agent for TimedAgent {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn propose(&mut self, max_batch: usize) -> Vec<Action> {
        let inner = &mut self.inner;
        self.tracer.time(
            Layer::Propose(self.kind),
            || inner.propose(max_batch),
            Vec::len,
        )
    }
    fn observe(&mut self, results: &[(Action, StepResult)]) {
        let inner = &mut self.inner;
        self.tracer.time(
            Layer::Observe(self.kind),
            || inner.observe(results),
            |_| results.len(),
        );
    }
    fn batch_hint(&self) -> Option<usize> {
        self.inner.batch_hint()
    }
}

impl Drop for TimedAgent {
    fn drop(&mut self) {
        if self.closes_unit {
            self.tracer.unit_end();
        }
    }
}

/// Wrap `agent` for tracing when a tracer is given.
pub fn agent(
    agent: Box<dyn Agent + Send>,
    tracer: Option<&Arc<Tracer>>,
    closes_unit: bool,
) -> Box<dyn Agent + Send> {
    match tracer {
        Some(t) => Box::new(TimedAgent::new(agent, Arc::clone(t), closes_unit)),
        None => agent,
    }
}

/// Times the batch evaluator (the `EnvPool` in the benchmark).
pub struct TimedEval<B> {
    inner: B,
    tracer: Arc<Tracer>,
}

impl<B> TimedEval<B> {
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Self {
        TimedEval { inner, tracer }
    }
}

impl<B: BatchEvaluator> BatchEvaluator for TimedEval<B> {
    fn env_name(&self) -> &str {
        self.inner.env_name()
    }
    fn reset_env(&mut self) -> Observation {
        self.inner.reset_env()
    }
    fn eval_batch(&mut self, actions: &[Action]) -> Vec<StepResult> {
        let inner = &mut self.inner;
        self.tracer
            .time(Layer::Pool, || inner.eval_batch(actions), |_| actions.len())
    }
    fn observation_width(&self) -> usize {
        self.inner.observation_width()
    }
    fn try_eval_batch(&mut self, actions: &[Action]) -> Vec<Result<StepResult>> {
        let inner = &mut self.inner;
        self.tracer.time(
            Layer::Pool,
            || inner.try_eval_batch(actions),
            |_| actions.len(),
        )
    }
    fn set_telemetry(&mut self, recorder: &Recorder) {
        self.inner.set_telemetry(recorder);
    }
}

/// Times the proxy screen. An `observe` call during which the refit
/// counter moved is recorded as a refit span.
pub struct TimedScreener {
    inner: Box<dyn Screener + Send>,
    tracer: Arc<Tracer>,
}

impl TimedScreener {
    pub fn new(inner: Box<dyn Screener + Send>, tracer: Arc<Tracer>) -> Self {
        TimedScreener { inner, tracer }
    }
}

impl Screener for TimedScreener {
    fn policy(&self) -> ScreenPolicy {
        self.inner.policy()
    }
    fn set_telemetry(&mut self, recorder: &Recorder) {
        self.inner.set_telemetry(recorder);
    }
    fn observe(&mut self, actions: &[Action], rewards: &[f64]) {
        let before = self.inner.refits();
        let start = self.tracer.now();
        self.inner.observe(actions, rewards);
        let end = self.tracer.now();
        let layer = if self.inner.refits() > before {
            Layer::ProxyRefit
        } else {
            Layer::ProxyObserve
        };
        self.tracer.record(layer, actions.len(), start, end);
    }
    fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }
    fn predict(&mut self, candidates: &[Action], means: &mut Vec<f64>, vars: &mut Vec<f64>) {
        let inner = &mut self.inner;
        self.tracer.time(
            Layer::ProxyPredict,
            || inner.predict(candidates, means, vars),
            |_| candidates.len(),
        );
    }
    fn revalidate(&mut self, predicted: &[f64], actual: &[f64]) {
        let inner = &mut self.inner;
        self.tracer.time(
            Layer::ProxyRevalidate,
            || inner.revalidate(predicted, actual),
            |_| actual.len(),
        );
    }
    fn refits(&self) -> u64 {
        self.inner.refits()
    }
}

/// Times the journal/store file seam.
pub struct TimedIo {
    inner: Arc<dyn StoreIo>,
    tracer: Arc<Tracer>,
}

impl TimedIo {
    pub fn new(inner: Arc<dyn StoreIo>, tracer: Arc<Tracer>) -> Self {
        TimedIo { inner, tracer }
    }
}

impl fmt::Debug for TimedIo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimedIo")
            .field("inner", &self.inner)
            .finish()
    }
}

impl StoreIo for TimedIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.tracer
            .time(Layer::OtherIo, || self.inner.read_to_string(path), |_| 0)
    }
    fn write_file(&self, path: &Path, data: &[u8], sync: bool) -> io::Result<()> {
        self.tracer.time(
            Layer::WriteFile,
            || self.inner.write_file(path, data, sync),
            |_| data.len(),
        )
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.tracer
            .time(Layer::Rename, || self.inner.rename(from, to), |_| 1)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.tracer
            .time(Layer::OtherIo, || self.inner.remove_file(path), |_| 0)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.tracer
            .time(Layer::OtherIo, || self.inner.truncate(path, len), |_| 0)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        let file = self
            .tracer
            .time(Layer::OtherIo, || self.inner.open_append(path), |_| 0)?;
        Ok(Box::new(TimedAppend {
            inner: file,
            tracer: Arc::clone(&self.tracer),
        }))
    }
    fn exists(&self, path: &Path) -> bool {
        self.tracer
            .time(Layer::OtherIo, || self.inner.exists(path), |_| 0)
    }
}

struct TimedAppend {
    inner: Box<dyn AppendFile>,
    tracer: Arc<Tracer>,
}

impl AppendFile for TimedAppend {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .time(Layer::Append, || inner.append(data), |_| data.len())
    }
    fn sync(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.tracer.time(Layer::Sync, || inner.sync(), |_| 1)
    }
}
