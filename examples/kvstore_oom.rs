//! The HB3813 case study end-to-end: SmartConf vs. the defaults that
//! made users file the bug.
//!
//! Run with: `cargo run --release --example kvstore_oom`

use smartconf::harness::Scenario;
use smartconf::kvstore::scenarios::Hb3813;

fn main() {
    let scenario = Hb3813::standard();
    let conf = scenario.perfconf();
    println!("{}: {}\n", conf.id, conf.description);

    let smart = scenario.run_smartconf(42);
    let buggy = scenario.run_static(1000.0, 42);
    let patch = scenario.run_static(100.0, 42);
    let conservative = scenario.run_static(40.0, 42);

    for r in [&smart, &conservative, &patch, &buggy] {
        let status = if r.crashed {
            format!(
                "OOM at {:.0} s",
                r.crash_time_us.unwrap_or_default() as f64 / 1e6
            )
        } else if r.constraint_ok {
            "constraint met".to_string()
        } else {
            "constraint violated".to_string()
        };
        println!(
            "{:<24} throughput {:>6.1} ops/s   {status}",
            r.label, r.tradeoff
        );
    }

    let mem = smart.series("used_memory_mb").expect("series recorded");
    let summary = mem.summary().expect("non-empty");
    println!(
        "\nSmartConf memory: mean {:.0} MB, peak {:.0} MB against a {:.0} MB limit",
        summary.mean,
        summary.max,
        scenario.heap_goal_mb()
    );
    println!(
        "speedup over the conservative static-40: {:.2}x",
        smart.speedup_over(&conservative)
    );
}
