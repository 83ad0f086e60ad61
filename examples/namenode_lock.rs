//! The HD4995 case study: `content-summary.limit` with a run-time goal
//! change (the writer-block cap tightens from 20 s to 10 s mid-run).
//!
//! Run with: `cargo run --release --example namenode_lock`

use smartconf::dfs::Hd4995;
use smartconf::harness::Scenario;

fn main() {
    let scenario = Hd4995::standard();
    let conf = scenario.perfconf();
    println!("{}: {}\n", conf.id, conf.description);
    let (g1, g2) = scenario.phase_goals_secs();
    println!("writer-block goal: {g1} s in phase 1, tightened to {g2} s in phase 2\n");

    let smart = scenario.run_smartconf(42);
    let whole_namespace = scenario.run_static(5_000_000.0, 42);
    let tiny = scenario.run_static(100_000.0, 42);

    for r in [&smart, &tiny, &whole_namespace] {
        println!(
            "{:<24} du latency {:>6.1} s   constraint {}",
            r.label,
            r.tradeoff,
            if r.constraint_ok { "met" } else { "VIOLATED" }
        );
    }

    let conf = smart.series("content-summary.limit").expect("series");
    println!(
        "\nSmartConf's traversal limit: {:.0} inodes/quantum in phase 1, {:.0} in phase 2",
        conf.value_at(190_000_000).unwrap_or(f64::NAN),
        conf.value_at(390_000_000).unwrap_or(f64::NAN),
    );
    println!("the limit follows the goal change automatically (setGoal, paper 4.3).");
}
