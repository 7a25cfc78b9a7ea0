//! Multi-objective exploration: pool several agents' exploration of the
//! SoC space and extract the Pareto front of (power, latency, area) —
//! the artifact an architect negotiates budgets over.
//!
//! ```sh
//! cargo run --release --example pareto_explorer
//! ```

use archgym::agents::factory::{build_agent, AgentKind};
use archgym::core::pareto::dataset_pareto_front;
use archgym::core::prelude::*;
use archgym::core::trajectory::Row;
use archgym::soc::{SocEnv, SocWorkload};

fn main() {
    let workload = SocWorkload::SlamLite;
    let mut pool = Dataset::new();
    for kind in AgentKind::ALL {
        let mut env = SocEnv::new(workload);
        let mut agent = build_agent(kind, env.space(), &HyperMap::new(), 29).unwrap();
        let run = SearchLoop::new(RunConfig::with_budget(800)).run(&mut agent, &mut env);
        pool.merge(run.dataset);
    }
    let feasible = pool.filter_feasible().len();
    println!(
        "pooled {} evaluations of `{}` ({} feasible) from five agents",
        pool.len(),
        workload.name(),
        feasible
    );

    // All three SoC metrics are minimized, so the front needs no signs.
    let front = dataset_pareto_front(&pool, &[0, 1, 2]);
    println!(
        "\nPareto front over (power, latency, area): {} designs of {}\n",
        front.len(),
        feasible
    );
    println!(
        "{:>10} {:>12} {:>10}   allocation",
        "power mW", "latency ms", "area mm²"
    );
    let env = SocEnv::new(workload);
    let mut rows: Vec<Row> = front.iter().filter_map(|&i| pool.get(i)).collect();
    rows.sort_by(|a, b| a.observation[0].partial_cmp(&b.observation[0]).unwrap());
    for t in rows.iter().take(12) {
        let design = env
            .space()
            .decode(&t.action.to_action())
            .unwrap()
            .iter()
            .filter(|(n, _)| ["PE_Type", "PE_Freq", "PE_Count", "Mem_Type"].contains(&n.as_str()))
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:>10.1} {:>12.3} {:>10.2}   {design}",
            t.observation[0], t.observation[1], t.observation[2]
        );
    }
    if front.len() > 12 {
        println!("... and {} more front designs", front.len() - 12);
    }
    let (lat, pow, area) = workload.budgets();
    println!(
        "\nbudgets for reference: {lat} ms, {pow} mW, {area} mm² — the front shows what\n\
         each budget relaxation would buy."
    );
}
