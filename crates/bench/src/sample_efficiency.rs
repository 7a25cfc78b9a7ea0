//! Samples-to-target: how many simulator queries each agent needs before
//! it first meets the target specification — the paper's own definition
//! of search efficiency ("the number of requisite samples before reaching
//! an optimal solution", Section 2), reported directly instead of through
//! budget-sliced normalized rewards.
//!
//! [`run_proxy_study`] extends the question to the online screening
//! layer: with the same true-simulation budget, how many *true*
//! evaluations does a proxy-screened run need to first come within 1%
//! of the unscreened run's final best reward? The ratio of the two
//! counts is the proxy's sample-efficiency gain.

use crate::harness::Scale;
use archgym_accel::AccelEnv;
use archgym_agents::factory::{build_agent, default_grid, AgentKind};
use archgym_core::agent::HyperMap;
use archgym_core::env::Environment;
use archgym_core::error::Result;
use archgym_core::screen::ScreenPolicy;
use archgym_core::search::{RunConfig, RunIo, SearchLoop};
use archgym_dram::{DramEnv, DramWorkload, Objective};

/// One agent's samples-to-target distribution over its hyper sweep.
#[derive(Debug, Clone)]
pub struct EfficiencyRow {
    /// Agent family.
    pub agent: &'static str,
    /// Runs that reached the target, as `(samples_to_target)` values.
    pub reached: Vec<u64>,
    /// Number of runs that never reached it within the budget.
    pub missed: usize,
}

impl EfficiencyRow {
    /// Median samples-to-target among the runs that reached it.
    pub fn median(&self) -> Option<u64> {
        if self.reached.is_empty() {
            return None;
        }
        let mut sorted = self.reached.clone();
        sorted.sort_unstable();
        Some(sorted[sorted.len() / 2])
    }
}

/// Run the study: DRAM random trace, 1 W power target; a run "reaches the
/// target" when its reward crosses `1/tolerance` (within `tolerance` of
/// the target specification).
///
/// # Errors
///
/// Propagates agent-construction failures.
pub fn run(scale: Scale) -> Result<Vec<EfficiencyRow>> {
    let budget = match scale {
        Scale::Smoke => 256,
        Scale::Default => 2_000,
        Scale::Full => 20_000,
    };
    let tolerance = 0.05; // within 5% of the 1 W goal
    let threshold = 1.0 / tolerance;
    let mut rows = Vec::new();
    for kind in AgentKind::ALL {
        let mut reached = Vec::new();
        let mut missed = 0usize;
        for (i, hyper) in default_grid(kind).iter().take(scale.grid_cap()).enumerate() {
            let mut env = DramEnv::new(DramWorkload::Random, Objective::low_power(1.0));
            let mut agent = build_agent(kind, env.space(), &hyper, i as u64)?;
            let result = SearchLoop::new(RunConfig::with_budget(budget)).run(&mut agent, &mut env);
            match result.samples_to_reach(threshold) {
                Some(n) => reached.push(n),
                None => missed += 1,
            }
        }
        rows.push(EfficiencyRow {
            agent: kind.name(),
            reached,
            missed,
        });
    }
    Ok(rows)
}

/// Print the study.
pub fn print(rows: &[EfficiencyRow]) {
    println!("\n=== Samples to reach the 1 W target within 5% (DRAM, pointer-chase) ===");
    println!(
        "{:<6} {:>10} {:>8} {:>8}  per-run samples-to-target",
        "agent", "median", "reached", "missed"
    );
    for row in rows {
        let detail = row
            .reached
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<6} {:>10} {:>8} {:>8}  {detail}",
            row.agent,
            row.median().map_or("—".into(), |m| m.to_string()),
            row.reached.len(),
            row.missed
        );
    }
}

/// One seed's run on one side (proxy-off or proxy-on) of the study.
#[derive(Debug, Clone)]
pub struct ProxySeedPoint {
    /// Run seed.
    pub seed: u64,
    /// Final best reward within the shared true-eval budget.
    pub best: f64,
    /// True evaluations to first reach the row's shared target
    /// (`None` = never within the budget).
    pub to_target: Option<u64>,
}

/// One space's proxy study: both sides' per-seed points plus the shared
/// quality target they are measured against.
#[derive(Debug, Clone)]
pub struct ProxyStudyRow {
    /// Space label (`"dram"` or `"accel"`).
    pub space: &'static str,
    /// Agent family driving both runs.
    pub agent: &'static str,
    /// True-simulation budget shared by both runs.
    pub budget: u64,
    /// The shared quality bar: 99% of the *median* proxy-off final best.
    /// A per-seed bar would make every comparison hostage to that one
    /// baseline's spike luck; the median is what an unscreened search
    /// typically achieves.
    pub target: f64,
    /// Proxy-off runs, one per seed.
    pub baseline: Vec<ProxySeedPoint>,
    /// Proxy-on runs, one per seed.
    pub screened: Vec<ProxySeedPoint>,
}

/// Censored median of evals-to-target: runs that never reached it count
/// as slower than every run that did. `None` when the median itself
/// lands on a censored run.
fn censored_median(points: &[ProxySeedPoint]) -> Option<u64> {
    let mut v: Vec<Option<u64>> = points.iter().map(|p| p.to_target).collect();
    v.sort_by_key(|t| t.unwrap_or(u64::MAX));
    v[v.len() / 2]
}

fn median_best(points: &[ProxySeedPoint]) -> f64 {
    let mut v: Vec<f64> = points.iter().map(|p| p.best).collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

impl ProxyStudyRow {
    /// Censored-median true evaluations the unscreened runs needed to
    /// reach the target.
    pub fn baseline_to_target(&self) -> Option<u64> {
        censored_median(&self.baseline)
    }

    /// Censored-median true evaluations the screened runs needed.
    pub fn screened_to_target(&self) -> Option<u64> {
        censored_median(&self.screened)
    }

    /// The headline "N× fewer true simulations to the same quality".
    pub fn savings(&self) -> Option<f64> {
        let base = self.baseline_to_target()? as f64;
        let screened = self.screened_to_target()? as f64;
        Some(base / screened)
    }

    /// Relative gap of the median screened final best below the median
    /// baseline final best (negative = screening ended up ahead).
    pub fn reward_gap(&self) -> f64 {
        let base = median_best(&self.baseline);
        (base - median_best(&self.screened)) / base.abs().max(1e-12)
    }
}

fn study_space<E>(
    space_label: &'static str,
    kind: AgentKind,
    budget: u64,
    policy: ScreenPolicy,
    forest: archgym_proxy::ForestConfig,
    seeds: &[u64],
    make_env: impl Fn() -> E,
) -> Result<ProxyStudyRow>
where
    E: Environment + Clone + Send,
{
    let space = make_env().space().clone();
    let config = RunConfig::with_budget(budget);
    let mut baseline_runs = Vec::new();
    for &seed in seeds {
        let mut agent = build_agent(kind, &space, &HyperMap::new(), seed)?;
        baseline_runs.push((
            seed,
            SearchLoop::new(config.clone()).run_pooled(&mut agent, make_env()),
        ));
    }
    let mut bests: Vec<f64> = baseline_runs.iter().map(|(_, r)| r.best_reward).collect();
    bests.sort_by(f64::total_cmp);
    let target = bests[bests.len() / 2] * 0.99;

    let baseline = baseline_runs
        .iter()
        .map(|(seed, r)| ProxySeedPoint {
            seed: *seed,
            best: r.best_reward,
            to_target: r.samples_to_reach(target),
        })
        .collect();
    let mut screened = Vec::new();
    for &seed in seeds {
        let mut agent = build_agent(kind, &space, &HyperMap::new(), seed)?;
        let mut screener = archgym_proxy::OnlineProxy::new(policy, forest, seed)?;
        let run = SearchLoop::new(config.clone()).run_env_with(
            &mut agent,
            make_env(),
            RunIo::screened(&mut screener),
        )?;
        screened.push(ProxySeedPoint {
            seed,
            best: run.best_reward,
            to_target: run.samples_to_reach(target),
        });
    }
    Ok(ProxyStudyRow {
        space: space_label,
        agent: kind.name(),
        budget,
        target,
        baseline,
        screened,
    })
}

/// Run the proxy screening study on the DRAM and accelerator spaces.
///
/// Both runs of every pair get the *same* true-simulation budget; the
/// proxy's value shows up as how much earlier the screened run first
/// reaches within 1% of the unscreened run's final best.
///
/// # Errors
///
/// Propagates agent-construction and screener-construction failures.
pub fn run_proxy_study(scale: Scale) -> Result<Vec<ProxyStudyRow>> {
    let (dram_budget, accel_budget, warmup, seeds): (u64, u64, u64, Vec<u64>) = match scale {
        Scale::Smoke => (192, 128, 32, vec![1]),
        Scale::Default => (2_000, 1_200, 48, vec![1, 2, 3]),
        Scale::Full => (10_000, 6_000, 64, vec![1, 2, 3, 4, 5]),
    };
    // The shared shape: oversample aggressively, admit a thin
    // predicted-best slice, refit often enough to track the walker
    // across the space.
    let dram_policy = ScreenPolicy::default()
        .warmup(warmup)
        .oversample(8)
        .top_k(8)
        .refit_every(32)
        .revalidate_every(8);
    // The accelerator space is rugged (infeasibility cliffs at -1/-2
    // reward), so pure predicted-best admission gets trapped: lean on a
    // larger exploration slice and faster refits. Revalidation is kept
    // sparse — every revalidation admits a whole oversampled batch
    // unscreened, and on this space those 128-sample detours dominate
    // the screened run's budget long before drift ever shows up.
    let accel_policy = dram_policy
        .explore_frac(0.5)
        .refit_every(16)
        .revalidate_every(16);
    let accel_forest = archgym_proxy::online_forest_config();
    // Aspirational joint targets: no design reaches either target
    // exactly, so the reward surface stays smooth and uncapped and the
    // search genuinely needs its budget — a single-metric target on
    // these discrete spaces is hit exactly within a few dozen random
    // samples, which would make any screening gain unmeasurable.
    Ok(vec![
        study_space(
            "dram",
            AgentKind::Rw,
            dram_budget,
            dram_policy,
            archgym_proxy::online_forest_config(),
            &seeds,
            || DramEnv::extended(DramWorkload::Random, Objective::joint(100.0, 0.1)),
        )?,
        study_space(
            "accel",
            AgentKind::Rw,
            accel_budget,
            accel_policy,
            accel_forest,
            &seeds,
            || {
                AccelEnv::new(
                    archgym_models::alexnet(),
                    archgym_accel::Objective::energy(0.1),
                )
            },
        )?,
    ])
}

/// Print the proxy study.
pub fn print_proxy_study(rows: &[ProxyStudyRow]) {
    println!("\n=== True evaluations to reach 99% of the median proxy-off best ===");
    println!(
        "{:<7} {:<6} {:>8} {:>11} {:>12} {:>12} {:>9} {:>9}",
        "space", "agent", "budget", "target", "off evals", "on evals", "savings", "gap"
    );
    for row in rows {
        let cell = |v: Option<u64>| v.map_or("—".into(), |v| v.to_string());
        println!(
            "{:<7} {:<6} {:>8} {:>11.4} {:>12} {:>12} {:>9} {:>8.2}%",
            row.space,
            row.agent,
            row.budget,
            row.target,
            cell(row.baseline_to_target()),
            cell(row.screened_to_target()),
            row.savings().map_or("—".into(), |v| format!("{v:.1}x")),
            row.reward_gap() * 100.0
        );
        for (off, on) in row.baseline.iter().zip(&row.screened) {
            println!(
                "        seed {:>2}: off best {:.4} @ {:>5} evals | on best {:.4} @ {} evals",
                off.seed,
                off.best,
                cell(off.to_target),
                on.best,
                cell(on.to_target)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_reports_every_family() {
        let rows = run(Scale::Smoke).unwrap();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert_eq!(row.reached.len() + row.missed, 2); // smoke grid cap
            for &n in &row.reached {
                assert!((1..=256).contains(&n));
            }
        }
        // At least one family reaches the target even at smoke budgets.
        assert!(rows.iter().any(|r| !r.reached.is_empty()));
        print(&rows);
    }

    #[test]
    fn smoke_proxy_study_measures_both_spaces() {
        let rows = run_proxy_study(Scale::Smoke).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].space, "dram");
        assert_eq!(rows[1].space, "accel");
        for row in &rows {
            assert_eq!(row.baseline.len(), 1); // smoke: one seed
            assert_eq!(row.screened.len(), 1);
            // With one seed the median baseline best IS that run's best,
            // so the baseline reaches its own 99% bar by construction.
            let off = &row.baseline[0];
            assert!((1..=row.budget).contains(&off.to_target.unwrap()));
            assert!(off.best.is_finite() && row.screened[0].best.is_finite());
            // Reaching the target means within 1% of the median
            // proxy-off best, by definition of the target.
            if let Some(on) = row.screened[0].to_target {
                assert!((1..=row.budget).contains(&on));
            }
        }
        print_proxy_study(&rows);
    }
}
