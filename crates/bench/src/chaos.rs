//! The chaos smoke evaluation: all seven scenarios × every fault class
//! on the deterministic multi-threaded [`FleetExecutor`].
//!
//! [`FleetExecutor`]: smartconf_runtime::FleetExecutor
//!
//! This is the bench-level face of the fault-injection plane: the fleet
//! roster runs once per [`FaultClass`] (plus the clean SmartConf
//! baseline) and the JSON artifact records, per class, how many faults
//! were injected, how often the guards fired, and — the hard promise —
//! how many shards violated their constraint. The report must be
//! byte-identical at 1 and N worker threads, like the clean fleet.

use smartconf_harness::{FleetReport, Policy};
use smartconf_runtime::FaultClass;

use crate::fleet::{
    coverage_failures, phases_json, roster_json_head, FleetPhase, FleetSmoke, PHASE_NOTE,
};

/// Scenarios whose constraint is a hard goal (crash / outage above it):
/// the chaos sweep demands *zero* violations from these under every
/// fault class.
pub const HARD_GOAL_SCENARIOS: [&str; 3] = ["HB6728", "HD4995", "MR2820"];

/// The chaos policies: the clean SmartConf baseline (guards dormant),
/// its adaptive-model variant, then one frozen and one adaptive chaos
/// policy per fault class. The frozen policies keep their historical
/// order so pre-existing report lines stay byte-comparable.
pub fn chaos_policies() -> Vec<Policy> {
    let mut policies = vec![Policy::Smart, Policy::Adaptive];
    policies.extend(FaultClass::ALL.iter().map(|&c| Policy::Chaos(c)));
    policies.extend(FaultClass::ALL.iter().map(|&c| Policy::AdaptiveChaos(c)));
    policies
}

/// The chaos smoke over `seeds`: [`chaos_policies`], written as
/// `BENCH_chaos.json` and gated by [`chaos_gate`].
pub fn smoke(seeds: Vec<u64>) -> FleetSmoke {
    FleetSmoke {
        label: "chaos",
        policies: chaos_policies(),
        seeds,
        artifact: chaos_json,
        gate: chaos_gate,
    }
}

/// The chaos gate: every policy resolved on a non-empty report
/// ([`coverage_failures`]) and zero hard-goal violations under every
/// fault class. Prints each class's aggregates on stderr.
pub fn chaos_gate(report: &FleetReport, policies: &[Policy]) -> Vec<String> {
    let mut failures = coverage_failures(report, policies);
    for o in class_outcomes(report) {
        eprintln!(
            "  {}: {} shards, {} violations ({} hard), {} faults, {} guard activations, \
             {} fallback epochs",
            o.policy,
            o.shards,
            o.violations,
            o.hard_goal_violations,
            o.faults_injected,
            o.guard_activations,
            o.fallback_epochs
        );
        if o.hard_goal_violations > 0 {
            failures.push(format!(
                "{} hard-goal violation(s) under {} (hard scenarios: {:?})",
                o.hard_goal_violations, o.policy, HARD_GOAL_SCENARIOS
            ));
        }
    }
    failures
}

/// Per-fault-class aggregates over one chaos fleet report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassOutcome {
    /// Policy label, e.g. `"Chaos-SensorDropout"` (or `"SmartConf"` for
    /// the clean baseline).
    pub policy: String,
    /// Shards that ran under this policy.
    pub shards: usize,
    /// Shards that lost their constraint.
    pub violations: usize,
    /// Constraint violations among [`HARD_GOAL_SCENARIOS`] — the number
    /// the sweep requires to be zero.
    pub hard_goal_violations: usize,
    /// Total faults injected across the class's shards.
    pub faults_injected: u64,
    /// Total guard activations across the class's shards.
    pub guard_activations: u64,
    /// Total epochs spent holding a fallback setting.
    pub fallback_epochs: u64,
}

/// Aggregates a chaos fleet report per policy, in policy order.
pub fn class_outcomes(report: &FleetReport) -> Vec<ClassOutcome> {
    let mut outcomes: Vec<ClassOutcome> = Vec::new();
    for shard in &report.shards {
        if !shard.resolved {
            continue;
        }
        let outcome = match outcomes.iter_mut().find(|o| o.policy == shard.policy) {
            Some(o) => o,
            None => {
                outcomes.push(ClassOutcome {
                    policy: shard.policy.clone(),
                    ..ClassOutcome::default()
                });
                outcomes.last_mut().expect("just pushed")
            }
        };
        outcome.shards += 1;
        if !shard.constraint_ok {
            outcome.violations += 1;
            if HARD_GOAL_SCENARIOS.contains(&shard.scenario_id.as_str()) {
                outcome.hard_goal_violations += 1;
            }
        }
        for (_, summary) in &shard.channels {
            outcome.faults_injected += summary.faults_injected;
            outcome.guard_activations += summary.guard_activations;
            outcome.fallback_epochs += summary.fallback_epochs;
        }
    }
    outcomes
}

/// Renders the `BENCH_chaos.json` artifact.
pub fn chaos_json(
    seeds: &[u64],
    report: &FleetReport,
    reports_identical: bool,
    phases: &[FleetPhase],
) -> String {
    let outcomes = class_outcomes(report);
    let hard_total: usize = outcomes.iter().map(|o| o.hard_goal_violations).sum();
    let mut out = roster_json_head(seeds, None, report, PHASE_NOTE);
    out.push_str(&format!("  \"reports_identical\": {reports_identical},\n"));
    out.push_str(&format!("  \"hard_goal_violations\": {hard_total},\n"));
    out.push_str("  \"classes\": [\n");
    let class_lines: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "    {{\"policy\": \"{}\", \"shards\": {}, \"violations\": {}, \
                 \"hard_goal_violations\": {}, \"faults_injected\": {}, \
                 \"guard_activations\": {}, \"fallback_epochs\": {}}}",
                o.policy,
                o.shards,
                o.violations,
                o.hard_goal_violations,
                o.faults_injected,
                o.guard_activations,
                o.fallback_epochs
            )
        })
        .collect();
    out.push_str(&class_lines.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str(&phases_json(phases));
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_cover_every_fault_class() {
        let policies = chaos_policies();
        assert_eq!(policies.len(), 2 + 2 * FaultClass::ALL.len());
        assert_eq!(policies[0], Policy::Smart);
        assert_eq!(policies[1], Policy::Adaptive);
        for class in FaultClass::ALL {
            assert!(policies.contains(&Policy::Chaos(class)));
            assert!(policies.contains(&Policy::AdaptiveChaos(class)));
        }
    }

    #[test]
    fn class_outcomes_count_hard_goal_violations() {
        use smartconf_harness::ShardReport;
        let shard = |scenario: &str, policy: &str, ok: bool| ShardReport {
            scenario_id: scenario.into(),
            seed: 42,
            policy: policy.into(),
            resolved: true,
            constraint_ok: ok,
            crashed: false,
            tradeoff: 1.0,
            tradeoff_name: "t".into(),
            channels: Vec::new(),
        };
        let report = FleetReport {
            shards: vec![
                shard("HB6728", "Chaos-SensorDropout", false),
                shard("HB3813", "Chaos-SensorDropout", false),
                shard("HB6728", "SmartConf", true),
            ],
            workers: 1,
        };
        let outcomes = class_outcomes(&report);
        assert_eq!(outcomes.len(), 2);
        let chaos = &outcomes[0];
        assert_eq!(chaos.policy, "Chaos-SensorDropout");
        assert_eq!(chaos.shards, 2);
        assert_eq!(chaos.violations, 2);
        assert_eq!(chaos.hard_goal_violations, 1);
        let clean = &outcomes[1];
        assert_eq!(clean.violations, 0);
    }

    #[test]
    fn chaos_gate_fails_closed_on_missing_outcomes() {
        let policies = chaos_policies();
        assert!(!chaos_gate(&FleetReport::default(), &policies).is_empty());
        // Only the clean baseline resolved: every chaos policy is missing.
        let mut report = FleetReport::default();
        report.shards.push(smartconf_harness::ShardReport {
            scenario_id: "HB6728".into(),
            seed: 42,
            policy: "SmartConf".into(),
            resolved: true,
            constraint_ok: true,
            crashed: false,
            tradeoff: 1.0,
            tradeoff_name: "t".into(),
            channels: Vec::new(),
        });
        let failures = chaos_gate(&report, &policies);
        assert_eq!(failures.len(), policies.len() - 1, "{failures:?}");
        assert!(chaos_gate(&report, &policies[..1]).is_empty());
        // An unresolved shard fails even when every policy has an outcome.
        let mut unresolved = report.shards[0].clone();
        unresolved.resolved = false;
        report.shards.push(unresolved);
        assert_eq!(chaos_gate(&report, &policies[..1]).len(), 1);
    }

    #[test]
    fn chaos_json_is_well_formed() {
        let report = FleetReport::default();
        let phases = [
            FleetPhase {
                name: "chaos-1-thread".into(),
                threads: 1,
                wall: std::time::Duration::from_millis(800),
            },
            FleetPhase {
                name: "chaos-4-threads".into(),
                threads: 4,
                wall: std::time::Duration::from_millis(300),
            },
        ];
        let json = chaos_json(&[42], &report, true, &phases);
        assert!(json.contains("\"seeds\": [42]"));
        assert!(json.contains("\"hard_goal_violations\": 0"));
        assert!(json.contains("\"reports_identical\": true"));
    }
}
