//! Regenerates Figure 5 (trade-off speedups vs. static settings).

fn main() {
    let seed = smartconf_bench::EXPERIMENT_SEED;
    println!("{}", smartconf_bench::figure5::render(seed));
    if std::path::Path::new("results").is_dir() {
        let mut csv = String::from("issue,policy,setting,speedup_vs_optimal,constraint_ok\n");
        for s in smartconf_bench::figure5::all_scenarios() {
            let row = smartconf_bench::figure5::run_scenario(s.as_ref(), seed);
            for bar in &row.bars {
                csv.push_str(&format!(
                    "{},{},{},{},{}\n",
                    row.issue,
                    bar.label,
                    bar.setting.map(|v| v.to_string()).unwrap_or_default(),
                    if bar.speedup.is_nan() {
                        String::new()
                    } else {
                        format!("{:.4}", bar.speedup)
                    },
                    bar.constraint_ok
                ));
            }
        }
        let _ = std::fs::write("results/figure5.csv", csv);
        eprintln!("wrote results/figure5.csv");
    }
}
