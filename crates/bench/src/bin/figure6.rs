//! Regenerates Figure 6 (HB3813 time series, SmartConf vs static).
//!
//! Prints the aligned series and, when a `results/` directory exists,
//! writes `results/figure6_smartconf.csv` / `results/figure6_static.csv`
//! for plotting.

fn main() {
    let f = smartconf_bench::figure6::run(smartconf_bench::EXPERIMENT_SEED);
    println!("{}", smartconf_bench::figure6::render(&f));
    if std::path::Path::new("results").is_dir() {
        let _ = std::fs::write(
            "results/figure6_smartconf.csv",
            f.smart.series_csv(1_000_000),
        );
        let _ = std::fs::write(
            "results/figure6_static.csv",
            f.static_optimal.1.series_csv(1_000_000),
        );
        eprintln!("wrote results/figure6_*.csv");
    }
}
