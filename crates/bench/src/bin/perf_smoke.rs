//! Perf smoke benchmark: per-scenario epoch-loop throughput plus the
//! end-to-end serial fleet wall-clock, written to `BENCH_perf.json`,
//! with an optional regression gate against a committed baseline.
//!
//! Usage: `perf_smoke [--seeds K] [--out PATH] [--check BASELINE]`
//!
//! * `--seeds K` — number of fleet seeds (42, 43, …); default 2.
//! * `--out PATH` — where to write the JSON artifact; default
//!   `BENCH_perf.json`.
//! * `--check BASELINE` — gate the fresh fleet wall-clock (lower is
//!   better) and event-kernel events/sec (higher is better) against a
//!   committed `BENCH_perf.json` with [`gate`]: ±25% around its headline
//!   while its `"history"` is short, median ± k·MAD over the history
//!   once it holds [`STAT_MIN_HISTORY`] runs. Beating the band reports a
//!   stale baseline but does not fail, so perf improvements land without
//!   a baseline bump in the same change.
//!
//! An existing output file's headline numbers are carried into the
//! fresh artifact's `"history"` (capped at [`HISTORY_CAP`] entries), so
//! repeated `--check` cycles accumulate a trend record.
//!
//! Every measurement follows one discarded [`warmup_pass`]: first-touch
//! costs (cold page cache, HD4995's process-wide namespace memo) would
//! otherwise pollute the first sample, and through it the history
//! median. The artifact records `"warmup_pass": true`, and each carried
//! history entry keeps the `"warmup"` flag of its run.
//!
//! Epochs/sec per scenario is recorded but never gated: sub-millisecond
//! decide loops jitter by integer factors on shared CI hosts, while the
//! fleet wall-clock and the kernel rate ([`measure_kernel`], millions of
//! events per measurement) are stable enough for a band.
//!
//! [`gate`]: smartconf_bench::perf::gate
//! [`STAT_MIN_HISTORY`]: smartconf_bench::perf::STAT_MIN_HISTORY
//! [`HISTORY_CAP`]: smartconf_bench::perf::HISTORY_CAP
//! [`warmup_pass`]: smartconf_bench::perf::warmup_pass
//! [`measure_kernel`]: smartconf_bench::perf::measure_kernel

use smartconf_bench::perf::{
    bench_json, carry_history, fleet_wall_series, gate, kernel_rate_series, measure_fleet,
    measure_kernel, measure_scenarios, parse_fleet_wall, parse_kernel_rate, warmup_pass, Better,
    CheckVerdict,
};
use smartconf_bench::suite::{finish, Flags};
use std::time::Instant;

fn main() {
    let flags = Flags::from_env(&[
        ("--seeds", Some("2")),
        ("--out", Some("BENCH_perf.json")),
        ("--check", None),
    ]);
    let seeds = flags.seeds(42);
    let out_path = flags.out();

    // One discarded pass over every timed path: first-touch costs
    // (cold page cache, HD4995's process-wide namespace memo, branch
    // predictors) land here instead of in the first recorded sample,
    // so the median ± k·MAD history gate sees only warmed numbers.
    let warm_start = Instant::now();
    warmup_pass(42);
    eprintln!(
        "perf smoke: warmup pass discarded ({:.3} s)",
        warm_start.elapsed().as_secs_f64()
    );

    eprintln!("perf smoke: per-scenario epoch throughput (profiled SmartConf run, seed 42)");
    let scenarios = measure_scenarios(42);
    for s in &scenarios {
        eprintln!(
            "  {}: {} epochs in {:.3} ms ({:.0} epochs/s)",
            s.id,
            s.epochs,
            s.wall.as_secs_f64() * 1e3,
            s.epochs_per_sec()
        );
    }

    eprintln!("perf smoke: event-kernel throughput (8 channels, 250 ms - 5 s periods, 1 h sim)");
    let kernel = measure_kernel();
    eprintln!(
        "  kernel: {} events in {:.3} ms ({:.0} events/s)",
        kernel.events,
        kernel.wall.as_secs_f64() * 1e3,
        kernel.events_per_sec()
    );

    eprintln!(
        "perf smoke: serial fleet wall-clock (7 scenarios x {} seeds x 4 policies)",
        seeds.len()
    );
    let fleet = measure_fleet(&seeds);
    eprintln!("  {}: {:.3} s", fleet.name, fleet.wall.as_secs_f64());

    // Rewriting the artifact appends the previous run to its `history`
    // array instead of discarding it, so `--check` cycles accumulate a
    // trend record rather than overwriting each other.
    let history = match std::fs::read_to_string(out_path) {
        Ok(previous) => carry_history(&previous),
        Err(_) => Vec::new(),
    };
    let json = bench_json(42, &scenarios, &kernel, &seeds, &fleet, true, &history);
    std::fs::write(out_path, &json).expect("write BENCH_perf.json");
    eprintln!("wrote {out_path}");
    print!("{json}");

    let Some(path) = flags.get("--check") else {
        return;
    };
    let baseline = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--check: cannot read {path}: {e}"));
    let failures: Vec<String> = [
        (
            "fleet wall-clock (s)",
            fleet_wall_series(&baseline),
            parse_fleet_wall(&baseline),
            fleet.wall.as_secs_f64(),
            Better::Lower,
        ),
        (
            "kernel events/sec",
            kernel_rate_series(&baseline),
            parse_kernel_rate(&baseline),
            kernel.events_per_sec(),
            Better::Higher,
        ),
    ]
    .into_iter()
    .filter_map(|(what, series, headline, measured, better)| {
        let (verdict, [lo, hi]) = gate(&series, headline, measured, better);
        let band = format!("band [{lo:.3}, {hi:.3}] from {path}, measured {measured:.3}");
        match verdict {
            CheckVerdict::Ok => eprintln!("OK: {what} within the {band}"),
            CheckVerdict::BaselineStale => {
                eprintln!("OK: {what} beats the {band}; consider regenerating the baseline")
            }
            CheckVerdict::Regression => return Some(format!("{what} regression: {band}")),
        }
        None
    })
    .collect();
    finish(&failures, "perf within tolerance");
}
