//! Seed-sensitivity report: runs every case study's SmartConf policy
//! across several seeds and reports constraint-satisfaction rates.
//!
//! The paper's guarantees are probabilistic (§5.6); this binary
//! quantifies them on the simulated substrates and backs the
//! seed-sensitivity notes in EXPERIMENTS.md. The (scenario × seed)
//! cross product runs as one fleet on the shared executor.

use smartconf_bench::fleet::fleet_scenarios;
use smartconf_harness::{run_fleet, Policy, TextTable};
use smartconf_runtime::FleetExecutor;

const SEEDS: [u64; 5] = [7, 23, 42, 77, 2024];

fn main() {
    let scenarios = fleet_scenarios();
    let report = run_fleet(
        &scenarios,
        &SEEDS,
        &[Policy::Smart],
        &FleetExecutor::available_parallelism(),
    );
    let mut table = TextTable::new(vec!["issue", "seeds ok", "rate", "failures"]);
    for s in &scenarios {
        let id = s.id();
        let shards: Vec<_> = report
            .shards
            .iter()
            .filter(|r| r.scenario_id == id)
            .collect();
        let ok = shards.iter().filter(|r| r.constraint_ok).count();
        let failures: Vec<String> = shards
            .iter()
            .filter(|r| !r.constraint_ok)
            .map(|r| r.seed.to_string())
            .collect();
        table.row(vec![
            id.to_string(),
            format!("{ok}/{}", shards.len()),
            format!("{:.0}%", 100.0 * ok as f64 / shards.len() as f64),
            if failures.is_empty() {
                "-".into()
            } else {
                format!("seed {}", failures.join(", "))
            },
        ]);
    }
    println!(
        "SmartConf constraint satisfaction across seeds {SEEDS:?}\n\
         (the paper's guarantee is probabilistic, 5.6)\n\n{table}"
    );
}
