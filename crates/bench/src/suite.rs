//! The one 1-vs-N cycle behind the smoke binaries.
//!
//! `fleet_smoke`, `chaos_smoke`, `resilience_smoke` and `soak_smoke`
//! all run one cycle: run the evaluation at 1 worker thread and again
//! at N, diff the two renders (printing the first differing line),
//! write the JSON artifact, print the serial render on stdout, and fold
//! every gate's failures into one exit code. [`drive`] owns that cycle;
//! a smoke supplies only what differs through [`Smoke`] — its run,
//! render, artifact and gate. [`Flags`] parses the shared command line.
//! The soak's `--check` gate reads its baseline with [`read_baseline`]
//! before the run, scans the hand-rolled artifacts with
//! [`numbers_after`] and names its first mismatch with [`first_diff`].

use crate::fleet::FleetPhase;

/// One 1-vs-N smoke evaluation.
pub trait Smoke {
    /// What one run produces.
    type Report;

    /// Short name used in the phase names and FAIL/OK lines, e.g.
    /// `"chaos"`.
    fn label(&self) -> &str;

    /// One line describing the run's shape, printed before it starts.
    fn banner(&self) -> String;

    /// Runs the evaluation at `threads` workers, returning the report
    /// and the timed phase the artifact records.
    fn run(&self, threads: usize) -> (Self::Report, FleetPhase);

    /// The byte-stable text diffed across thread counts and printed on
    /// stdout.
    fn render(&self, report: &Self::Report) -> String;

    /// Renders the JSON artifact of the serial run.
    fn artifact(&self, report: &Self::Report, identical: bool, phases: &[FleetPhase]) -> String;

    /// The serial run's gate failures, given its artifact (empty =
    /// pass).
    fn gate(&self, report: &Self::Report, artifact: &str) -> Vec<String>;
}

/// Runs `smoke` at 1 and `threads` workers, writes the artifact to
/// `out`, prints the serial render, and exits non-zero if the renders
/// differ or any gate fails.
pub fn drive<S: Smoke>(smoke: &S, threads: usize, out: &str) {
    let label = smoke.label();
    eprintln!("{label} smoke: {}", smoke.banner());
    let run = |t: usize| {
        let (report, phase) = smoke.run(t);
        eprintln!("  {}: {:.3} s", phase.name, phase.wall.as_secs_f64());
        (smoke.render(&report), report, phase)
    };
    let (serial_bytes, serial, serial_phase) = run(1);
    let (parallel_bytes, _, parallel_phase) = run(threads);
    let identical = serial_bytes == parallel_bytes;
    let json = smoke.artifact(&serial, identical, &[serial_phase, parallel_phase]);
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("wrote {out}");
    print!("{serial_bytes}");

    let mut failures = Vec::new();
    if !identical {
        let parallel = format!("{threads}-thread");
        eprintln!(
            "{}",
            first_diff(&serial_bytes, &parallel_bytes, "1-thread", &parallel)
        );
        failures.push(format!(
            "{label} reports differ between 1 and {threads} threads"
        ));
    }
    failures.extend(smoke.gate(&serial, &json));
    finish(
        &failures,
        &format!("{label} reports byte-identical at 1 and {threads} threads, every gate passed"),
    );
}

/// Where two renders first diverge, as a human-readable report naming
/// each side's line by its label.
pub fn first_diff(a: &str, b: &str, a_label: &str, b_label: &str) -> String {
    let (mut a, mut b) = (a.lines(), b.lines());
    for line in 1.. {
        match (a.next(), b.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (None, None) => break,
            (x, y) => {
                return format!(
                    "first diff at line {line}:\n  {a_label}: {}\n  {b_label}: {}",
                    x.unwrap_or("<end>"),
                    y.unwrap_or("<end>")
                )
            }
        }
    }
    "renders differ only in line endings".to_string()
}

/// Prints every failure as a `FAIL:` line and exits with status 1 if
/// there is any; otherwise prints `OK: {ok}`.
fn finish(failures: &[String], ok: &str) {
    for f in failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!("OK: {ok}");
}

/// Reads a `--check` baseline. Smokes call this before their run writes
/// `--out`, which may name the same file: a baseline read afterwards
/// would be the fresh run itself and pass every gate.
pub fn read_baseline(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))
}

/// Every value of `"key": <number>` in `json`, in document order.
pub fn numbers_after(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            out.push(v);
        }
    }
    out
}

/// A smoke binary's command line: `--flag value` pairs over declared
/// flags, each with its default (`None` = unset unless given).
#[derive(Debug, Clone, PartialEq)]
pub struct Flags(Vec<(&'static str, Option<String>)>);

impl Flags {
    /// Parses `args` against `spec`. Unknown flags, missing values, and
    /// a `--seeds`/`--threads` that is not a positive count are errors.
    pub fn parse(
        spec: &[(&'static str, Option<&str>)],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, String> {
        let mut flags = Flags(
            spec.iter()
                .map(|(n, d)| (*n, d.map(String::from)))
                .collect(),
        );
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let slot = flags.0.iter_mut().find(|(n, _)| *n == arg);
            let slot = slot.ok_or_else(|| format!("unknown argument {arg}"))?;
            slot.1 = Some(args.next().ok_or_else(|| format!("{arg} needs a value"))?);
        }
        for (name, value) in &flags.0 {
            let positive = value.as_deref().map(str::parse::<u64>);
            if ["--seeds", "--threads"].contains(name) && !matches!(positive, Some(Ok(1..))) {
                return Err(format!("{name} takes a count of at least 1, got {value:?}"));
            }
        }
        Ok(flags)
    }

    /// [`Flags::parse`] over the process arguments; a usage error exits
    /// with status 2.
    pub fn from_env(spec: &[(&'static str, Option<&str>)]) -> Flags {
        Flags::parse(spec, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("usage error: {e}");
            std::process::exit(2)
        })
    }

    /// A declared flag's value.
    pub fn get(&self, name: &str) -> Option<&str> {
        let slot = self.0.iter().find(|(n, _)| *n == name);
        slot.unwrap_or_else(|| panic!("{name} is not declared"))
            .1
            .as_deref()
    }

    /// A count flag's value.
    pub fn count(&self, name: &str) -> u64 {
        let value = self.get(name).unwrap_or_default();
        value
            .parse()
            .unwrap_or_else(|_| panic!("{name} takes a count, got {value:?}"))
    }

    /// `--seeds K` as the seed list `base, base + 1, …`.
    pub fn seeds(&self, base: u64) -> Vec<u64> {
        (base..base + self.count("--seeds")).collect()
    }

    /// `--threads N`.
    pub fn threads(&self) -> usize {
        self.count("--threads") as usize
    }

    /// `--out PATH`.
    pub fn out(&self) -> &str {
        self.get("--out").expect("--out has a default")
    }
}

/// The flags of the fleet-roster smokes: `--seeds` (default `seeds`),
/// `--threads` (default 4) and `--out` (default `out`).
pub fn fleet_flags(
    seeds: &'static str,
    out: &'static str,
) -> [(&'static str, Option<&'static str>); 3] {
    [
        ("--seeds", Some(seeds)),
        ("--threads", Some("4")),
        ("--out", Some(out)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        let spec = [
            ("--seeds", Some("4")),
            ("--threads", Some("4")),
            ("--check", None),
        ];
        Flags::parse(&spec, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_keep_defaults_and_take_overrides() {
        let f = parse(&[]).unwrap();
        assert_eq!(
            (f.seeds(42), f.threads(), f.get("--check")),
            (vec![42, 43, 44, 45], 4, None)
        );
        let f = parse(&["--seeds", "2", "--check", "base.json"]).unwrap();
        assert_eq!(
            (f.seeds(42), f.get("--check")),
            (vec![42, 43], Some("base.json"))
        );
        for bad in [&["--tenants", "5"][..], &["--seeds"], &["--seeds", "two"]] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn zero_seeds_and_threads_are_rejected() {
        assert!(parse(&["--seeds", "0"]).unwrap_err().contains("--seeds"));
        assert!(parse(&["--threads", "0"])
            .unwrap_err()
            .contains("--threads"));
    }

    #[test]
    fn first_diff_names_the_diverging_line() {
        let d = first_diff("a\nb\nc\n", "a\nx\nc\n", "1-thread", "4-thread");
        assert!(d.contains("line 2") && d.contains("1-thread: b") && d.contains("4-thread: x"));
        let d = first_diff("a\n", "a\nb\n", "1-thread", "4-thread");
        assert!(d.contains("line 2") && d.contains("<end>"), "{d}");
    }
}
