//! Race-invariant tests for the online successive-halving racing layer
//! (`archgym::core::race`). The invariants pinned here are the ones the
//! layer's correctness rests on:
//!
//! * same-seed races are bit-identical regardless of `jobs`;
//! * eliminated lanes never consume budget after their rung;
//! * total true evaluations exactly equal the configured budget;
//! * a crash-prefix resume reproduces the uninterrupted run bit-for-bit;
//! * the rung-schedule and ranking math hold for arbitrary inputs
//!   (property-tested; `PROPTEST_CASES` scales the case count in CI).

use archgym::agents::{build_agent, race_roster};
use archgym::core::env::{Environment, StepResult};
use archgym::core::race::{rank_lanes, rung_schedule, Race, RaceLane, RaceResult};
use archgym::core::space::{Action, ParamSpace};
use archgym::core::toy::PeakEnv;
use archgym::dram::{DramEnv, DramWorkload, Objective};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One ticket per family (6 lanes), agents seeded identically.
fn roster_lanes(space: &ParamSpace, seed: u64) -> Vec<RaceLane> {
    race_roster(1)
        .into_iter()
        .map(|entry| {
            RaceLane::new(
                entry.name,
                build_agent(entry.kind, space, &entry.hyper, seed).unwrap(),
            )
        })
        .collect()
}

/// A `PeakEnv` that counts every true evaluation across clones, so a
/// test can assert exactly how many simulations a race really ran.
#[derive(Clone)]
struct CountingEnv {
    inner: PeakEnv,
    evals: Arc<AtomicU64>,
}

impl CountingEnv {
    fn new(evals: Arc<AtomicU64>) -> Self {
        CountingEnv {
            inner: PeakEnv::new(&[8, 8, 8], vec![2, 5, 1]),
            evals,
        }
    }
}

impl Environment for CountingEnv {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }
    fn observation_labels(&self) -> Vec<String> {
        self.inner.observation_labels()
    }
    fn step(&mut self, action: &Action) -> StepResult {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.step(action)
    }
}

/// Everything that must be reproducible, compared bit-for-bit.
fn assert_bit_identical(a: &RaceResult, b: &RaceResult, label: &str) {
    assert_eq!(a.winner, b.winner, "{label}: winner diverged");
    assert_eq!(
        a.best_reward.to_bits(),
        b.best_reward.to_bits(),
        "{label}: best reward diverged"
    );
    assert_eq!(
        a.best_action, b.best_action,
        "{label}: best action diverged"
    );
    assert_eq!(a.samples_used, b.samples_used, "{label}: samples diverged");
    assert_eq!(
        a.reward_history.len(),
        b.reward_history.len(),
        "{label}: history length diverged"
    );
    for (i, (x, y)) in a.reward_history.iter().zip(&b.reward_history).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: reward history diverged at step {i}"
        );
    }
    assert_eq!(a.lanes.len(), b.lanes.len(), "{label}: lane count diverged");
    for (la, lb) in a.lanes.iter().zip(&b.lanes) {
        assert_eq!(la.name, lb.name, "{label}: lane names diverged");
        assert_eq!(
            la.samples_used, lb.samples_used,
            "{label}: lane {} samples diverged",
            la.name
        );
        assert_eq!(
            la.best_reward.to_bits(),
            lb.best_reward.to_bits(),
            "{label}: lane {} best diverged",
            la.name
        );
        assert_eq!(
            la.eliminated_at, lb.eliminated_at,
            "{label}: lane {} elimination rung diverged",
            la.name
        );
    }
    // Rung outcomes match except `workers_per_lane`, which tracks the
    // worker pool and so legitimately varies with `jobs`.
    assert_eq!(a.rungs.len(), b.rungs.len(), "{label}: rung count diverged");
    for (ra, rb) in a.rungs.iter().zip(&b.rungs) {
        assert_eq!(
            (ra.rung, ra.lanes, ra.slice, &ra.eliminated),
            (rb.rung, rb.lanes, rb.slice, &rb.eliminated),
            "{label}: rung outcomes diverged"
        );
    }
}

#[test]
fn same_seed_race_is_bit_identical_across_jobs() {
    let make_env = || DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
    let run = |jobs: usize| {
        let proto = make_env();
        let lanes = roster_lanes(proto.space(), 7);
        Race::new(240, 3)
            .batch(8)
            .jobs(jobs)
            .run(lanes, make_env())
            .unwrap()
    };
    let serial = run(1);
    let pooled = run(4);
    assert_bit_identical(&serial, &pooled, "jobs=1 vs jobs=4");
}

#[test]
fn race_consumes_exactly_the_budget_and_freezes_eliminated_lanes() {
    let evals = Arc::new(AtomicU64::new(0));
    let env = CountingEnv::new(Arc::clone(&evals));
    // Deliberately not a round number: the remainder must flow to the
    // final rung instead of being dropped or overdrawn.
    let budget: u64 = 333;
    let eta = 3;
    let lanes = roster_lanes(env.space(), 3);
    let lane_count = lanes.len();
    let result = Race::new(budget, eta).batch(4).run(lanes, env).unwrap();

    assert_eq!(result.samples_used, budget, "race under/over-spent");
    assert_eq!(
        evals.load(Ordering::Relaxed),
        budget,
        "true simulations differ from the configured budget"
    );

    // Every lane's consumption is exactly the schedule prefix it was
    // alive for: nothing before its first rung, nothing after its
    // elimination rung.
    let schedule = rung_schedule(lane_count, eta, budget);
    for lane in &result.lanes {
        let ran = match lane.eliminated_at {
            Some(r) => &schedule[..=r],
            None => &schedule[..],
        };
        let expected: u64 = ran.iter().map(|rung| rung.slice).sum();
        assert_eq!(
            lane.samples_used, expected,
            "lane {} (eliminated at {:?}) consumed budget outside its rungs",
            lane.name, lane.eliminated_at
        );
    }
    let across_lanes: u64 = result.lanes.iter().map(|l| l.samples_used).sum();
    assert_eq!(across_lanes, budget, "per-lane accounting does not add up");

    // Exactly one survivor without the ensemble option.
    assert_eq!(
        result
            .lanes
            .iter()
            .filter(|l| l.eliminated_at.is_none())
            .count(),
        1
    );
}

/// Delete or truncate race journals to simulate a crash: the final
/// rung's files vanish entirely (crash before those runs settled) and
/// one earlier journal loses its last record (crash mid-write).
fn crash_journals(dir: &Path, prefix_name: &str) {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.starts_with(prefix_name) && name.ends_with(".jsonl")
        })
        .collect();
    files.sort();
    assert!(files.len() >= 2, "expected several rung journals");
    let last_rung: String = {
        let name = files.last().unwrap().file_name().unwrap().to_str().unwrap();
        // `{prefix}-lNNN-rNN.jsonl` — the rung suffix orders last.
        name[name.len() - "rNN.jsonl".len()..].to_owned()
    };
    for path in &files {
        let name = path.file_name().unwrap().to_str().unwrap();
        if name.ends_with(&last_rung) {
            std::fs::remove_file(path).unwrap();
        }
    }
    // Truncate the tail record off the first surviving journal.
    let victim = files
        .iter()
        .find(|p| {
            !p.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .ends_with(&last_rung)
        })
        .expect("a surviving journal");
    let body = std::fs::read_to_string(victim).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert!(lines.len() > 1, "journal too short to truncate");
    let mut kept = lines[..lines.len() - 1].join("\n");
    kept.push('\n');
    std::fs::write(victim, kept).unwrap();
}

#[test]
fn crash_prefix_resume_is_bit_identical_to_uninterrupted() {
    let dir = std::env::temp_dir().join(format!("archgym-race-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let make_env = || DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
    let run = |prefix: &Path| {
        let proto = make_env();
        let lanes = roster_lanes(proto.space(), 5);
        Race::new(180, 3)
            .batch(8)
            .with_journal_prefix(prefix)
            .run(lanes, make_env())
            .unwrap()
    };

    let reference = run(&dir.join("ref"));
    let crashed_prefix = dir.join("crash");
    let _ = run(&crashed_prefix);
    crash_journals(&dir, "crash-");
    let resumed = run(&crashed_prefix);
    assert_bit_identical(&reference, &resumed, "crash-prefix resume");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn completed_race_journals_replay_without_new_simulations() {
    let dir = std::env::temp_dir().join(format!("archgym-race-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let prefix = dir.join("race");

    let evals = Arc::new(AtomicU64::new(0));
    let run = |counter: &Arc<AtomicU64>| {
        let env = CountingEnv::new(Arc::clone(counter));
        let lanes = roster_lanes(env.space(), 11);
        Race::new(200, 3)
            .batch(4)
            .with_journal_prefix(&prefix)
            .run(lanes, env)
            .unwrap()
    };
    let first = run(&evals);
    assert_eq!(evals.load(Ordering::Relaxed), 200);

    let replay_evals = Arc::new(AtomicU64::new(0));
    let replayed = run(&replay_evals);
    assert_eq!(
        replay_evals.load(Ordering::Relaxed),
        0,
        "a fully journaled race must replay without any live simulation"
    );
    assert_bit_identical(&first, &replayed, "journal replay");

    let _ = std::fs::remove_dir_all(&dir);
}

mod rung_math {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// For arbitrary roster sizes, elimination factors and budgets:
        /// lane counts follow ceil-division down to exactly one
        /// survivor, per-lane slices never shrink between rungs, and
        /// the schedule covers the budget exactly — no remainder
        /// dropped, no overdraw, no overflow.
        #[test]
        fn prop_schedule_is_monotone_and_covers_the_budget(
            lanes in 1usize..48,
            eta in 2usize..7,
            budget in 0u64..20_000,
        ) {
            let schedule = rung_schedule(lanes, eta, budget);
            prop_assert!(!schedule.is_empty());
            prop_assert_eq!(schedule[0].lanes, lanes);
            prop_assert_eq!(schedule.last().unwrap().lanes, 1, "must end at one survivor");
            for pair in schedule.windows(2) {
                prop_assert_eq!(pair[1].lanes, pair[0].lanes.div_ceil(eta));
                prop_assert!(pair[1].lanes < pair[0].lanes, "lane counts must shrink");
                prop_assert!(
                    pair[1].slice >= pair[0].slice,
                    "slices must be monotone: {} then {}", pair[0].slice, pair[1].slice
                );
            }
            let total: u64 = schedule
                .iter()
                .map(|r| r.slice.checked_mul(r.lanes as u64).expect("no overflow"))
                .sum();
            prop_assert_eq!(total, budget, "schedule must cover the budget exactly");
        }

        /// Elimination ranking is invariant under any permutation of
        /// the scored lanes, even with heavy reward ties: the total
        /// order is (reward desc, lane id asc).
        #[test]
        fn prop_ranking_is_permutation_invariant_under_ties(
            rewards in proptest::collection::vec(-3i32..3, 1..24),
            swaps in proptest::collection::vec(proptest::num::u64::ANY, 0..16),
        ) {
            // Small integer rewards force tie groups on purpose.
            let scored: Vec<(usize, f64)> = rewards
                .iter()
                .enumerate()
                .map(|(id, &r)| (id, f64::from(r)))
                .collect();
            let reference = rank_lanes(&scored);
            prop_assert_eq!(reference.len(), scored.len());

            let mut shuffled = scored.clone();
            for &word in &swaps {
                let a = (word as usize) % shuffled.len();
                let b = ((word >> 16) as usize) % shuffled.len();
                shuffled.swap(a, b);
            }
            prop_assert_eq!(rank_lanes(&shuffled), reference.clone());

            // The declared tiebreak actually holds: within the ranking,
            // reward never increases, and equal rewards appear in
            // ascending lane-id order.
            for pair in reference.windows(2) {
                let (ra, rb) = (scored[pair[0]].1, scored[pair[1]].1);
                prop_assert!(
                    ra > rb || (ra == rb && pair[0] < pair[1]),
                    "rank order violated: lane {} ({ra}) before lane {} ({rb})",
                    pair[0], pair[1]
                );
            }
        }
    }
}
