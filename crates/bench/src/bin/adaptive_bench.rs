//! Adaptive-model comparison bench: goal-tracking error and convergence
//! epochs for the online (RLS) estimator vs. the frozen offline profile
//! vs. a proportional baseline, across every fault class, written to
//! `BENCH_adaptive.json`.
//!
//! Usage: `adaptive_bench [--seed S] [--out PATH]`
//!
//! * `--seed S` — fault-plane seed; default 42. The plant is noiseless,
//!   so the whole table replays byte-for-byte from the seed.
//! * `--out PATH` — where to write the JSON artifact; default
//!   `BENCH_adaptive.json`.

use smartconf_bench::adaptive::{adaptive_json, render_table, run_matrix};
use smartconf_bench::suite::Flags;

fn main() {
    let flags = Flags::from_env(&[
        ("--seed", Some("42")),
        ("--out", Some("BENCH_adaptive.json")),
    ]);
    let (seed, out_path) = (flags.count("--seed"), flags.out());
    eprintln!(
        "adaptive bench: drifting-gain plant, 3 strategies x (clean + 7 fault classes), seed {seed}"
    );
    let rows = run_matrix(seed);
    print!("{}", render_table(&rows));
    let json = adaptive_json(seed, &rows);
    std::fs::write(out_path, &json).expect("write BENCH_adaptive.json");
    eprintln!("wrote {out_path}");
}
