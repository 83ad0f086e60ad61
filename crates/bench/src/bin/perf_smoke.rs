//! Perf smoke benchmark: per-scenario epoch-loop throughput, the event
//! kernel's rate and the end-to-end serial fleet wall-clock, written to
//! `BENCH_perf.json`, with an optional regression gate against a
//! committed baseline.
//!
//! Usage: `perf_smoke [--seeds K] [--out PATH] [--check BASELINE]`
//!
//! * `--seeds K` — number of fleet seeds (42, 43, …); default 2.
//! * `--out PATH` — where to write the JSON artifact; default
//!   `BENCH_perf.json`.
//! * `--check BASELINE` — gate the fresh fleet wall-clock (lower is
//!   better) and event-kernel events/sec (higher is better) against the
//!   baseline's headlines with [`check_perf`]: one ±25 % band each.
//!   Beating the band reports a stale baseline but does not fail, so
//!   perf improvements land without a baseline bump in the same change.
//!   The baseline is read before the run, so `--out` may name the same
//!   file; an unreadable baseline, or one written before timings were
//!   calibrated, fails.
//!
//! Every figure is the median of [`REPS`] in-process repetitions, each
//! divided by a calibration kernel timed right after it and quoted at
//! the reference host speed, with its spread across the repetitions
//! ([`Timing`]). Epochs/sec per scenario is recorded but never gated.
//!
//! [`check_perf`]: smartconf_bench::perf::check_perf
//! [`REPS`]: smartconf_bench::perf::REPS
//! [`Timing`]: smartconf_bench::perf::Timing

use smartconf_bench::perf::{
    bench_json, check_perf, measure_fleet, measure_kernel, measure_scenarios, REPS,
};
use smartconf_bench::suite::{finish, read_baseline, Flags};

fn main() {
    let flags = Flags::from_env(&[
        ("--seeds", Some("2")),
        ("--out", Some("BENCH_perf.json")),
        ("--check", None),
    ]);
    let seeds = flags.seeds(42);
    let out_path = flags.out();
    let baseline = flags.get("--check").map(read_baseline);

    eprintln!("perf smoke: corrected median of {REPS} repetitions (spread = (max - min) / median)");
    eprintln!("per-scenario epoch throughput (profiled SmartConf run, seed 42)");
    let scenarios = measure_scenarios(42);
    for s in &scenarios {
        eprintln!(
            "  {}: {} epochs in {:.3} ms, spread {:.3} ({:.0} epochs/s)",
            s.id,
            s.epochs,
            s.time.secs * 1e3,
            s.time.spread,
            s.epochs_per_sec()
        );
    }

    eprintln!("event-kernel throughput (8 channels, 250 ms - 5 s periods, 1 h sim)");
    let kernel = measure_kernel();
    eprintln!(
        "  kernel: {} events in {:.3} ms, spread {:.3} ({:.0} events/s)",
        kernel.events,
        kernel.time.secs * 1e3,
        kernel.time.spread,
        kernel.events_per_sec()
    );

    eprintln!(
        "serial fleet wall-clock (7 scenarios x {} seeds x 4 policies)",
        seeds.len()
    );
    let fleet = measure_fleet(&seeds);
    eprintln!("  fleet: {:.3} s, spread {:.3}", fleet.secs, fleet.spread);

    let json = bench_json(42, &scenarios, &kernel, &seeds, &fleet);
    std::fs::write(out_path, &json).expect("write BENCH_perf.json");
    eprintln!("wrote {out_path}");
    print!("{json}");

    let failures = match baseline {
        None => return,
        Some(Ok(baseline)) => check_perf(&json, &baseline),
        Some(Err(e)) => vec![e],
    };
    finish(&failures, "perf within tolerance");
}
