//! The per-layer metric set. Every traced run reports every metric; a
//! layer a workload bypasses reads zero there (README.md says which).

use crate::common::Metrics;
use crate::trace::{Family, Layer, SelfTimes, AGENT_KINDS};

/// Layer counts the spans cannot give: read off the cache, the run
/// results, and the service client.
#[derive(Debug, Default)]
pub struct Extras {
    pub cache: CacheTotals,
    /// Proxy funnel summed over the traced runs.
    pub screened: u64,
    pub admitted: u64,
    pub refits: u64,
    pub service: ServiceStats,
}

/// `EvalCache` stats summed over the caches of a phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheTotals {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
}

impl CacheTotals {
    pub fn add(&mut self, s: archgym_core::cache::CacheStats) {
        self.hits += s.hits;
        self.misses += s.misses;
        self.entries += s.entries;
    }

    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits as f64, self.lookups() as f64)
    }
}

#[derive(Debug, Default)]
pub struct ServiceStats {
    pub submit_rtt_ms: f64,
    pub first_event_ms: f64,
    pub events: u64,
    pub rejections: u64,
    pub search_task_p50_ms: f64,
    pub race_task_p50_ms: f64,
    pub default_objective_rejects: u64,
}

/// Agent kinds with per-layer metrics (the rest are timed but folded
/// into the table only).
const REPORTED_AGENTS: usize = 5;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn metrics(times: &SelfTimes, x: &Extras) -> Metrics {
    let mut m = Metrics::default();
    for family in Family::ALL {
        let t = times.get(Layer::Step(family));
        m.put(format!("{}.step_s", family.name()), t.self_s, "s");
        m.put(format!("{}.steps", family.name()), t.spans as f64, "count");
        if family == Family::Dram {
            m.put(
                "dram.ns_per_request",
                ratio(t.self_s * 1e9, t.items as f64),
                "ns",
            );
        }
    }
    let search = times.get(Layer::Search);
    m.put("search.self_s", search.self_s, "s");
    m.put("search.runs", search.spans as f64, "count");

    let pool = times.get(Layer::Pool);
    m.put("pool.eval_batch_s", pool.span_s, "s");
    m.put("pool.batches", pool.spans as f64, "count");
    m.put("pool.self_s", pool.self_s, "s");

    let lookups = x.cache.lookups();
    m.put("cache.lookups", lookups as f64, "count");
    m.put("cache.hit_rate", x.cache.hit_rate(), "frac");
    m.put("cache.entries", x.cache.entries as f64, "count");

    for (k, kind) in AGENT_KINDS.iter().enumerate().take(REPORTED_AGENTS) {
        let propose = times.get(Layer::Propose(k as u8));
        let observe = times.get(Layer::Observe(k as u8));
        m.put(format!("agents.{kind}.propose_s"), propose.self_s, "s");
        m.put(format!("agents.{kind}.observe_s"), observe.self_s, "s");
        m.put(
            format!("agents.{kind}.proposed"),
            propose.items as f64,
            "count",
        );
    }

    let predict = times.get(Layer::ProxyPredict);
    m.put("proxy.refit_s", times.get(Layer::ProxyRefit).self_s, "s");
    m.put("proxy.refits", x.refits as f64, "count");
    m.put(
        "proxy.observe_s",
        times.get(Layer::ProxyObserve).self_s,
        "s",
    );
    m.put("proxy.predict_s", predict.self_s, "s");
    m.put("proxy.predicted", predict.items as f64, "count");
    m.put(
        "proxy.revalidate_s",
        times.get(Layer::ProxyRevalidate).self_s,
        "s",
    );
    m.put(
        "proxy.admit_ratio",
        ratio(x.admitted as f64, x.screened as f64),
        "frac",
    );

    let append = times.get(Layer::Append);
    let sync = times.get(Layer::Sync);
    let rename = times.get(Layer::Rename);
    m.put("journal.append_s", append.self_s, "s");
    m.put("journal.appends", append.spans as f64, "count");
    m.put("journal.bytes", append.items as f64, "bytes");
    m.put("journal.sync_s", sync.self_s, "s");
    m.put("journal.syncs", sync.spans as f64, "count");
    m.put(
        "journal.write_file_s",
        times.get(Layer::WriteFile).self_s,
        "s",
    );
    m.put("journal.rename_s", rename.self_s, "s");
    m.put("journal.renames", rename.spans as f64, "count");

    let s = &x.service;
    m.put("service.submit_rtt_ms", s.submit_rtt_ms, "ms");
    m.put("service.first_event_ms", s.first_event_ms, "ms");
    m.put("service.events", s.events as f64, "count");
    m.put("service.rejections", s.rejections as f64, "count");
    m.put("service.search_task_p50_ms", s.search_task_p50_ms, "ms");
    m.put("service.race_task_p50_ms", s.race_task_p50_ms, "ms");
    m.put(
        "service.default_objective_rejects",
        s.default_objective_rejects as f64,
        "count",
    );

    println!(
        "ratios: cache.hit_rate {:.4} (base: {lookups} lookups); proxy.admit_ratio {:.4} (base: {} screened)",
        x.cache.hit_rate(),
        ratio(x.admitted as f64, x.screened as f64),
        x.screened
    );
    m
}
