//! The MR2820 case study: `local.dir.minspacestart` under SmartConf.
//!
//! Run with: `cargo run --release --example mapreduce_disk`

use smartconf::harness::Scenario;
use smartconf::mapred::Mr2820;

fn main() {
    let scenario = Mr2820::standard();
    let conf = scenario.perfconf();
    println!("{}: {}\n", conf.id, conf.description);

    let smart = scenario.run_smartconf(42);
    let buggy = scenario.run_static(0.0, 42);
    let conservative = scenario.run_static(230.0, 42);

    for r in [&smart, &conservative, &buggy] {
        let outcome = if r.crashed {
            format!(
                "out of disk at {:.0} s",
                r.crash_time_us.unwrap_or_default() as f64 / 1e6
            )
        } else if r.tradeoff.is_finite() {
            format!("both jobs done in {:.1} s", r.tradeoff)
        } else {
            "starved (never finished)".to_string()
        };
        println!("{:<24} {outcome}", r.label);
    }

    println!(
        "\nSmartConf vs the paper-era conservative 230 MB reserve: {:.2}x faster",
        smart.speedup_over(&conservative)
    );
}
