//! The fleet smoke evaluation: all seven scenarios × seeds × policies
//! on the deterministic multi-threaded [`FleetExecutor`].
//!
//! This is the bench-level face of the harness fleet API: a fixed
//! roster (the six Figure 5 case studies plus the §6.5 twin-queue
//! experiment), a fixed policy set, and a JSON artifact recording the
//! wall-clock of each executor phase so CI can watch both correctness
//! (byte-identical reports at 1 vs. N threads) and the parallel
//! speedup.

use std::time::{Duration, Instant};

use smartconf_harness::{run_fleet, Baseline, FleetReport, Policy, Scenario};
use smartconf_kvstore::scenarios::TwinQueues;
use smartconf_runtime::FleetExecutor;

use crate::suite::Smoke;

/// All seven scenarios — the six Figure 5 case studies plus the §6.5
/// twin-queue experiment — boxed behind the common trait.
pub fn fleet_scenarios() -> Vec<Box<dyn Scenario + Send + Sync>> {
    let mut scenarios = crate::figure5::all_scenarios();
    scenarios.push(Box::new(TwinQueues::standard()));
    scenarios
}

/// The smoke policies: SmartConf plus the two issue defaults (which
/// every scenario in the roster defines, so no shard is unresolved),
/// plus the adaptive-model variant of SmartConf. `Adaptive` stays last
/// so the frozen policies' report lines keep their historical order.
pub const SMOKE_POLICIES: [Policy; 4] = [
    Policy::Smart,
    Policy::Static(Baseline::BuggyDefault),
    Policy::Static(Baseline::PatchDefault),
    Policy::Adaptive,
];

/// One timed phase of a smoke run.
#[derive(Debug, Clone)]
pub struct FleetPhase {
    /// Phase name, e.g. `"fleet-1-thread"`.
    pub name: String,
    /// Worker-thread count the phase ran at.
    pub threads: usize,
    /// Wall-clock the phase took.
    pub wall: Duration,
}

impl FleetPhase {
    /// Runs `f`, timed as the phase `"{label}-{threads}-thread[s]"`.
    pub fn time<T>(label: &str, threads: usize, f: impl FnOnce() -> T) -> (T, FleetPhase) {
        let start = Instant::now();
        let out = f();
        let phase = FleetPhase {
            name: format!(
                "{label}-{threads}-thread{}",
                if threads == 1 { "" } else { "s" }
            ),
            threads,
            wall: start.elapsed(),
        };
        (out, phase)
    }
}

/// Runs the seven-scenario roster under `policies` over `seeds` at
/// `threads` workers, returning the merged report and the phase
/// `"{label}-{threads}-thread[s]"`.
pub fn fleet_run(
    label: &str,
    policies: &[Policy],
    seeds: &[u64],
    threads: usize,
) -> (FleetReport, FleetPhase) {
    let scenarios = fleet_scenarios();
    FleetPhase::time(label, threads, || {
        run_fleet(&scenarios, seeds, policies, &FleetExecutor::new(threads))
    })
}

/// Renders the `"phases"` block every smoke artifact carries, without
/// a trailing separator.
pub fn phases_json(phases: &[FleetPhase]) -> String {
    let lines: Vec<String> = phases
        .iter()
        .map(|p| {
            format!(
                "    {{\"name\": \"{}\", \"threads\": {}, \"wall_clock_secs\": {:.3}}}",
                p.name,
                p.threads,
                p.wall.as_secs_f64()
            )
        })
        .collect();
    format!("  \"phases\": [\n{}\n  ]", lines.join(",\n"))
}

/// The `"note"` of the chaos and resilience artifacts.
pub const PHASE_NOTE: &str = "wall-clock figures are host-dependent; a 1-CPU host cannot show \
     parallel speedup, so phase timings there only measure scheduling overhead";

/// The opening lines every roster artifact shares, through `"note"`:
/// the roster size, the seeds, an optional `(key, labels)` list, the
/// shard count and the host's CPUs.
pub fn roster_json_head(
    seeds: &[u64],
    labels: Option<(&str, Vec<String>)>,
    report: &FleetReport,
    note: &str,
) -> String {
    let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
    let mut out = format!(
        "{{\n  \"scenarios\": {},\n  \"seeds\": [{}],\n",
        fleet_scenarios().len(),
        seeds.join(", ")
    );
    if let Some((key, labels)) = labels {
        let quoted: Vec<String> = labels.iter().map(|l| format!("\"{l}\"")).collect();
        out.push_str(&format!("  \"{key}\": [{}],\n", quoted.join(", ")));
    }
    out.push_str(&format!(
        "  \"shards\": {},\n  \"host_cpus\": {},\n  \"note\": \"{note}\",\n",
        report.shards.len(),
        FleetExecutor::available_parallelism().threads()
    ));
    out
}

/// The fail-closed half of a fleet gate: a report with no shards, an
/// unresolved shard, or a policy in `policies` without a resolved shard
/// is a failure, so a gate over outcomes never passes because the
/// outcomes are missing.
pub fn coverage_failures(report: &FleetReport, policies: &[Policy]) -> Vec<String> {
    let mut failures = Vec::new();
    if report.shards.is_empty() {
        failures.push("report has no shards".to_string());
    }
    for s in report.shards.iter().filter(|s| !s.resolved) {
        failures.push(format!(
            "{} / {} seed {} is unresolved",
            s.scenario_id, s.policy, s.seed
        ));
    }
    for label in policies.iter().map(Policy::label) {
        if !report
            .shards
            .iter()
            .any(|s| s.resolved && s.policy == label)
        {
            failures.push(format!("policy {label} has no outcome"));
        }
    }
    failures
}

/// A [`Smoke`] over the seven-scenario roster: what `fleet_smoke`,
/// `chaos_smoke` and `resilience_smoke` drive, differing only in
/// policies, artifact and gate.
#[derive(Debug)]
pub struct FleetSmoke {
    /// Phase-name and FAIL/OK label, e.g. `"chaos"`.
    pub label: &'static str,
    /// Policies run against every (scenario, seed).
    pub policies: Vec<Policy>,
    /// Seeds run against every (scenario, policy).
    pub seeds: Vec<u64>,
    /// Renders the artifact from the seeds, serial report, 1-vs-N
    /// verdict and phases.
    pub artifact: fn(&[u64], &FleetReport, bool, &[FleetPhase]) -> String,
    /// Gate failures of the serial report, given the policies it ran.
    pub gate: fn(&FleetReport, &[Policy]) -> Vec<String>,
}

impl Smoke for FleetSmoke {
    type Report = FleetReport;

    fn label(&self) -> &str {
        self.label
    }

    fn banner(&self) -> String {
        format!(
            "{} scenarios x {} seeds x {} policies",
            fleet_scenarios().len(),
            self.seeds.len(),
            self.policies.len()
        )
    }

    fn run(&self, threads: usize) -> (FleetReport, FleetPhase) {
        fleet_run(self.label, &self.policies, &self.seeds, threads)
    }

    fn render(&self, report: &FleetReport) -> String {
        report.render()
    }

    fn artifact(&self, report: &FleetReport, identical: bool, phases: &[FleetPhase]) -> String {
        (self.artifact)(&self.seeds, report, identical, phases)
    }

    fn gate(&self, report: &FleetReport, _artifact: &str) -> Vec<String> {
        (self.gate)(report, &self.policies)
    }
}

/// The clean fleet smoke over `seeds`: [`SMOKE_POLICIES`], gated on
/// 1-vs-N byte identity alone.
pub fn smoke(seeds: Vec<u64>) -> FleetSmoke {
    FleetSmoke {
        label: "fleet",
        policies: SMOKE_POLICIES.to_vec(),
        seeds,
        artifact: bench_json,
        gate: |_, _| Vec::new(),
    }
}

/// Renders the `BENCH_fleet.json` artifact: the fleet's shape, whether
/// the 1-thread and N-thread reports were byte-identical, the per-phase
/// wall-clock, and the parallel speedup.
pub fn bench_json(
    seeds: &[u64],
    report: &FleetReport,
    reports_identical: bool,
    phases: &[FleetPhase],
) -> String {
    let policies = SMOKE_POLICIES.iter().map(Policy::label).collect();
    let mut out = roster_json_head(
        seeds,
        Some(("policies", policies)),
        report,
        "wall-clock figures are host-dependent; a 1-CPU host cannot show parallel \
         speedup, so parallel_speedup below 1.0 there only measures scheduling overhead",
    );
    out.push_str(&format!(
        "  \"constraint_satisfaction_rate\": {:.4},\n",
        report.constraint_satisfaction_rate()
    ));
    out.push_str(&format!("  \"reports_identical\": {reports_identical},\n"));
    out.push_str(&phases_json(phases));
    out.push_str(",\n");
    let serial = phases.iter().find(|p| p.threads == 1);
    let fastest_parallel = phases
        .iter()
        .filter(|p| p.threads > 1)
        .min_by(|a, b| a.wall.cmp(&b.wall));
    let speedup = match (serial, fastest_parallel) {
        (Some(s), Some(p)) if p.wall.as_secs_f64() > 0.0 => {
            s.wall.as_secs_f64() / p.wall.as_secs_f64()
        }
        _ => f64::NAN,
    };
    if speedup.is_finite() {
        out.push_str(&format!("  \"parallel_speedup\": {speedup:.2}\n"));
    } else {
        out.push_str("  \"parallel_speedup\": null\n");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_all_seven_scenarios() {
        let ids: Vec<String> = fleet_scenarios()
            .iter()
            .map(|s| s.id().to_string())
            .collect();
        assert_eq!(
            ids,
            ["CA6059", "HB2149", "HB3813", "HB6728", "HD4995", "MR2820", "TWIN"]
        );
    }

    /// Each declaration holds together: `initial` and every guard
    /// fallback lie inside `bounds`, both issue defaults exist (the smoke
    /// policies run them), and every fallback names a channel the
    /// plant's plane logs. A misspelled name would not fail loudly: the
    /// guard would silently fall back to the initial setting instead.
    #[test]
    fn declarations_match_their_plants() {
        for s in fleet_scenarios() {
            let conf = s.perfconf();
            let (lo, hi) = conf.bounds;
            let inside = |v: f64| (lo..=hi).contains(&v);
            assert!(inside(conf.initial), "{}: initial outside bounds", conf.id);
            assert!(
                conf.buggy_default.is_some(),
                "{}: no buggy default",
                conf.id
            );
            assert!(
                conf.patch_default.is_some(),
                "{}: no patch default",
                conf.id
            );
            let logged = s.run_static(conf.candidates[0], 1).epochs;
            assert!(
                !conf.guard.fallbacks().is_empty(),
                "{}: no fallback",
                conf.id
            );
            for (channel, fallback) in conf.guard.fallbacks() {
                assert!(
                    inside(*fallback),
                    "{}: {channel} fallback outside bounds",
                    conf.id
                );
                assert!(
                    logged.channels().contains(channel),
                    "{}: fallback names `{channel}`, plane logs {:?}",
                    conf.id,
                    logged.channels()
                );
            }
        }
    }

    #[test]
    fn adaptive_fleet_byte_identical_across_threads() {
        // The online estimator must not cost determinism: an
        // adaptive-only fleet renders byte-identically at 1 and 4
        // worker threads (the RLS update runs inside the controller
        // step, which both drivers replay in the same order).
        use smartconf_dfs::Hd4995;
        use smartconf_kvstore::scenarios::Hb6728;
        let scenarios: Vec<Box<dyn Scenario + Send + Sync>> =
            vec![Box::new(Hb6728::standard()), Box::new(Hd4995::standard())];
        let seeds = [42, 43];
        let policies = [Policy::Adaptive];
        let serial = run_fleet(&scenarios, &seeds, &policies, &FleetExecutor::new(1));
        let threaded = run_fleet(&scenarios, &seeds, &policies, &FleetExecutor::new(4));
        assert_eq!(
            serial.render(),
            threaded.render(),
            "adaptive fleet reports diverged across thread counts"
        );
    }

    #[test]
    fn bench_json_is_well_formed() {
        let (report, phase) = (
            FleetReport::default(),
            FleetPhase {
                name: "fleet-1-thread".into(),
                threads: 1,
                wall: Duration::from_millis(1500),
            },
        );
        let parallel = FleetPhase {
            name: "fleet-4-threads".into(),
            threads: 4,
            wall: Duration::from_millis(500),
        };
        let json = bench_json(&[42, 43], &report, true, &[phase, parallel]);
        assert!(json.contains("\"seeds\": [42, 43]"));
        assert!(json.contains("\"reports_identical\": true"));
        assert!(json.contains("\"parallel_speedup\": 3.00"));
        assert!(json.contains("\"wall_clock_secs\": 1.500"));
    }
}
