//! Regenerates Figure 5 (trade-off speedups vs. static settings).

use smartconf_bench::figure5;

fn main() {
    let rows = figure5::run(&figure5::all_scenarios(), smartconf_bench::EXPERIMENT_SEED);
    println!("{}", figure5::render(&rows));
    if std::path::Path::new("results").is_dir() {
        let _ = std::fs::write("results/figure5.csv", figure5::csv(&rows));
        eprintln!("wrote results/figure5.csv");
    }
}
