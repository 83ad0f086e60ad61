//! The repository's benchmark: one command, two workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload soak-clean --seed 1 --seconds 45 --trace 0
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! a separate traced run prints every per-layer metric and writes its
//! spans to `<target dir>/perfbench-spans/`. Either way the last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Lines before it, prefixed `#`, describe the run: the workload's
//! purpose, the seeds, each timed pass and the rendered report's digest.

mod catalog;
mod fleet;
mod probes;
mod run;
mod soak;
mod stats;
mod trace;

use catalog::Workload;
use run::{Args, Size};

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                })
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_only,
        size: Size::standard(),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(|w| w.name()).join("|")
            );
            std::process::exit(2);
        }
    };
    if args.setup_only {
        run::setup_child(&args);
        return;
    }
    match run::run(&args) {
        Ok(result) => {
            for line in &result.notes {
                println!("# {line}");
            }
            println!("{}", result.json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&args("--workload soak-fire --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::SoakFire);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.setup_only),
            (7, 3.0, true, false)
        );
        assert!(parse(&args("--workload nope --seed 1")).is_err());
        assert!(parse(&args("--workload fleet-clean --seed 1")).is_err());
        assert!(parse(&args("--workload soak-clean")).is_err());
        assert!(parse(&args("--workload soak-clean --seed 1 --trace 2")).is_err());
        assert!(parse(&args("--workload soak-clean --seed 1 --seconds 0")).is_err());
        assert!(parse(&args("--workload soak-clean --seed 1 --bogus")).is_err());
    }
}
