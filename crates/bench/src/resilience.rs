//! The resilience smoke evaluation: all seven scenarios × every
//! compound-fault [`Campaign`] on the deterministic multi-threaded
//! [`FleetExecutor`], scored against recovery-time SLOs.
//!
//! Where the chaos sweep ([`crate::chaos`]) asks "does each *single*
//! fault class break a hard goal?", the resilience sweep asks the
//! harder question: under *correlated, compounding* faults, how fast
//! does the guard ladder re-arm the controller, how long do violation
//! bursts run, and does any hard-goal scenario ever lose its
//! constraint? The artifact records, per (scenario, policy) cell, the
//! recovery-SLO aggregates streamed by [`EpochSummary`]: controller
//! re-engage latency, violation-burst p99/max, and per-fault-class
//! MTTR. The report must be byte-identical at 1 and N worker threads,
//! like the clean fleet and the chaos sweep.
//!
//! [`EpochSummary`]: smartconf_runtime::EpochSummary
//! [`FleetExecutor`]: smartconf_runtime::FleetExecutor

use smartconf_harness::{FleetReport, Policy};
use smartconf_runtime::{Campaign, FaultSet};

use crate::chaos::HARD_GOAL_SCENARIOS;
use crate::fleet::{
    coverage_failures, phases_json, roster_json_head, FleetPhase, FleetSmoke, PHASE_NOTE,
};

/// The campaign policies: the clean SmartConf baseline and its
/// adaptive-model variant (both must survive trivially), then one
/// frozen and one adaptive policy per compound-fault campaign. Frozen
/// campaigns keep [`Campaign::ALL`]'s sweep order so report lines stay
/// byte-comparable across runs.
pub fn campaign_policies() -> Vec<Policy> {
    let mut policies = vec![Policy::Smart, Policy::Adaptive];
    policies.extend(Campaign::ALL.iter().map(|&c| Policy::Campaign(c)));
    policies.extend(Campaign::ALL.iter().map(|&c| Policy::AdaptiveCampaign(c)));
    policies
}

/// The resilience smoke over `seeds`: [`campaign_policies`], written
/// as `BENCH_resilience.json` and gated by [`resilience_gate`].
pub fn smoke(seeds: Vec<u64>) -> FleetSmoke {
    FleetSmoke {
        label: "resilience",
        policies: campaign_policies(),
        seeds,
        artifact: resilience_json,
        gate: resilience_gate,
    }
}

/// The resilience gate: every policy resolved on a non-empty report
/// ([`coverage_failures`]) and no hard-goal scenario violating its
/// constraint under any campaign. Prints each cell's recovery-SLO
/// aggregates on stderr.
pub fn resilience_gate(report: &FleetReport, policies: &[Policy]) -> Vec<String> {
    let mut failures = coverage_failures(report, policies);
    for o in campaign_outcomes(report) {
        eprintln!(
            "  {} / {}: {} violations, {} faults, {} reengages (max dwell {}), \
             burst p99 {} max {}, mttr {:.1} epochs, {} unrecovered",
            o.scenario,
            o.policy,
            o.violations,
            o.faults_injected,
            o.reengages,
            o.max_epochs_to_reengage,
            o.violation_burst_p99,
            o.violation_burst_max,
            o.mttr_overall(),
            o.unrecovered
        );
        if o.hard_goal && o.violations > 0 {
            failures.push(format!(
                "{} violated its hard goal under {} (hard scenarios: {:?})",
                o.scenario, o.policy, HARD_GOAL_SCENARIOS
            ));
        }
    }
    failures
}

/// Recovery-SLO aggregates for one (scenario, policy) cell of the
/// campaign sweep, merged across that cell's seeds and channels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignOutcome {
    /// Scenario identifier, e.g. `"HB6728"`.
    pub scenario: String,
    /// Policy label, e.g. `"Campaign-restart-under-corruption"`.
    pub policy: String,
    /// Whether the scenario's constraint is a hard goal (see
    /// [`HARD_GOAL_SCENARIOS`]).
    pub hard_goal: bool,
    /// Shards merged into this cell (one per seed).
    pub shards: usize,
    /// Shards that lost their constraint.
    pub violations: usize,
    /// Total faults injected across the cell's channels.
    pub faults_injected: u64,
    /// Total guard activations across the cell's channels.
    pub guard_activations: u64,
    /// Total epochs spent holding a fallback setting.
    pub fallback_epochs: u64,
    /// Controller re-engagements after fallback cooldowns.
    pub reengages: u64,
    /// Longest fallback dwell that ended in a re-engage, epochs.
    pub max_epochs_to_reengage: u64,
    /// Total violation bursts across the cell's channels.
    pub violation_bursts: u64,
    /// Longest violation burst across the cell's channels, epochs.
    pub violation_burst_max: u64,
    /// Worst per-channel 99th-percentile violation-burst length, epochs.
    pub violation_burst_p99: u64,
    /// Per-fault-class recoveries, indexed by [`FaultSet`] bit.
    pub recoveries: [u64; 8],
    /// Per-fault-class MTTR numerators (`mttr × recoveries` summed
    /// across channels); divide by [`recoveries`](Self::recoveries) via
    /// [`mttr`](Self::mttr) for the merged means.
    mttr_weight: [f64; 8],
    /// Channels whose final faulty stretch never recovered.
    pub unrecovered: usize,
}

impl CampaignOutcome {
    /// Per-fault-class mean time to recover, epochs, merged across the
    /// cell's channels and seeds (0 where the class never recovered).
    pub fn mttr(&self) -> [f64; 8] {
        let mut out = [0.0; 8];
        for (i, slot) in out.iter_mut().enumerate() {
            if self.recoveries[i] > 0 {
                *slot = self.mttr_weight[i] / self.recoveries[i] as f64;
            }
        }
        out
    }

    /// Mean time to recover across every fault class, epochs, weighted
    /// by recovery count (0 when nothing ever recovered).
    pub fn mttr_overall(&self) -> f64 {
        let total: u64 = self.recoveries.iter().sum();
        if total > 0 {
            self.mttr_weight.iter().sum::<f64>() / total as f64
        } else {
            0.0
        }
    }
}

/// Aggregates a campaign fleet report into per-(scenario, policy)
/// cells, in shard encounter order (scenario-major, policy-minor for
/// the standard sweep).
pub fn campaign_outcomes(report: &FleetReport) -> Vec<CampaignOutcome> {
    let mut outcomes: Vec<CampaignOutcome> = Vec::new();
    for shard in &report.shards {
        if !shard.resolved {
            continue;
        }
        let outcome = match outcomes
            .iter_mut()
            .find(|o| o.scenario == shard.scenario_id && o.policy == shard.policy)
        {
            Some(o) => o,
            None => {
                outcomes.push(CampaignOutcome {
                    scenario: shard.scenario_id.clone(),
                    policy: shard.policy.clone(),
                    hard_goal: HARD_GOAL_SCENARIOS.contains(&shard.scenario_id.as_str()),
                    ..CampaignOutcome::default()
                });
                outcomes.last_mut().expect("just pushed")
            }
        };
        outcome.shards += 1;
        if !shard.constraint_ok {
            outcome.violations += 1;
        }
        for (_, summary) in &shard.channels {
            outcome.faults_injected += summary.faults_injected;
            outcome.guard_activations += summary.guard_activations;
            outcome.fallback_epochs += summary.fallback_epochs;
            outcome.reengages += summary.reengages;
            outcome.max_epochs_to_reengage = outcome
                .max_epochs_to_reengage
                .max(summary.max_epochs_to_reengage);
            outcome.violation_bursts += summary.violation_bursts;
            outcome.violation_burst_max =
                outcome.violation_burst_max.max(summary.violation_burst_max);
            outcome.violation_burst_p99 =
                outcome.violation_burst_p99.max(summary.violation_burst_p99);
            for i in 0..8 {
                outcome.recoveries[i] += summary.recoveries[i];
                outcome.mttr_weight[i] += summary.mttr[i] * summary.recoveries[i] as f64;
            }
            if summary.unrecovered {
                outcome.unrecovered += 1;
            }
        }
    }
    outcomes
}

/// Constraint violations among hard-goal scenarios across the whole
/// sweep — the number the resilience gate requires to be zero.
pub fn hard_goal_violations(outcomes: &[CampaignOutcome]) -> usize {
    outcomes
        .iter()
        .filter(|o| o.hard_goal)
        .map(|o| o.violations)
        .sum()
}

/// Renders one outcome cell's `mttr_by_class` object: only classes that
/// actually recovered at least once appear, keyed by
/// [`FaultSet::BIT_LABELS`].
fn mttr_by_class_json(outcome: &CampaignOutcome) -> String {
    let mttr = outcome.mttr();
    let entries: Vec<String> = FaultSet::BIT_LABELS
        .iter()
        .enumerate()
        .filter(|(i, _)| outcome.recoveries[*i] > 0)
        .map(|(i, label)| format!("\"{}\": {:.1}", label, mttr[i]))
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// Renders the `BENCH_resilience.json` artifact.
pub fn resilience_json(
    seeds: &[u64],
    report: &FleetReport,
    reports_identical: bool,
    phases: &[FleetPhase],
) -> String {
    let outcomes = campaign_outcomes(report);
    let hard_total = hard_goal_violations(&outcomes);
    let campaigns = Campaign::ALL.iter().map(|c| c.label().to_string());
    let mut out = roster_json_head(
        seeds,
        Some(("campaigns", campaigns.collect())),
        report,
        PHASE_NOTE,
    );
    out.push_str(&format!("  \"reports_identical\": {reports_identical},\n"));
    out.push_str(&format!("  \"hard_goal_violations\": {hard_total},\n"));
    out.push_str("  \"outcomes\": [\n");
    let outcome_lines: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "    {{\"scenario\": \"{}\", \"policy\": \"{}\", \"hard_goal\": {}, \
                 \"violations\": {}, \"faults_injected\": {}, \"guard_activations\": {}, \
                 \"fallback_epochs\": {}, \"reengages\": {}, \"max_epochs_to_reengage\": {}, \
                 \"violation_bursts\": {}, \"burst_p99\": {}, \"burst_max\": {}, \
                 \"mttr_epochs\": {:.1}, \"unrecovered_channels\": {}, \
                 \"mttr_by_class\": {}}}",
                o.scenario,
                o.policy,
                o.hard_goal,
                o.violations,
                o.faults_injected,
                o.guard_activations,
                o.fallback_epochs,
                o.reengages,
                o.max_epochs_to_reengage,
                o.violation_bursts,
                o.violation_burst_p99,
                o.violation_burst_max,
                o.mttr_overall(),
                o.unrecovered,
                mttr_by_class_json(o)
            )
        })
        .collect();
    out.push_str(&outcome_lines.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str(&phases_json(phases));
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartconf_harness::ShardReport;
    use smartconf_runtime::EpochSummary;

    #[test]
    fn policies_cover_every_campaign() {
        let policies = campaign_policies();
        assert_eq!(policies.len(), 2 + 2 * Campaign::ALL.len());
        assert_eq!(policies[0], Policy::Smart);
        assert_eq!(policies[1], Policy::Adaptive);
        for campaign in Campaign::ALL {
            assert!(policies.contains(&Policy::Campaign(campaign)));
            assert!(policies.contains(&Policy::AdaptiveCampaign(campaign)));
        }
    }

    fn shard_with(scenario: &str, policy: &str, ok: bool, summary: EpochSummary) -> ShardReport {
        ShardReport {
            scenario_id: scenario.into(),
            seed: 42,
            policy: policy.into(),
            resolved: true,
            constraint_ok: ok,
            crashed: false,
            tradeoff: 1.0,
            tradeoff_name: "t".into(),
            channels: vec![("c".into(), summary)],
        }
    }

    #[test]
    fn outcomes_merge_recovery_aggregates_per_cell() {
        let mut a = EpochSummary {
            reengages: 2,
            max_epochs_to_reengage: 9,
            violation_bursts: 3,
            violation_burst_max: 7,
            violation_burst_p99: 5,
            unrecovered: false,
            ..Default::default()
        };
        a.recoveries[2] = 4; // nan
        a.mttr[2] = 3.0;
        let mut b = EpochSummary {
            reengages: 1,
            max_epochs_to_reengage: 12,
            violation_bursts: 1,
            violation_burst_max: 4,
            violation_burst_p99: 4,
            unrecovered: true,
            ..Default::default()
        };
        b.recoveries[2] = 2; // nan, slower
        b.mttr[2] = 6.0;
        b.recoveries[7] = 1; // restart
        b.mttr[7] = 10.0;
        let report = FleetReport {
            shards: vec![
                shard_with("HB6728", "Campaign-restart-under-corruption", false, a),
                shard_with("HB6728", "Campaign-restart-under-corruption", true, b),
                shard_with("CA6059", "Campaign-restart-under-corruption", false, b),
            ],
            workers: 1,
        };
        let outcomes = campaign_outcomes(&report);
        assert_eq!(outcomes.len(), 2);
        let cell = &outcomes[0];
        assert_eq!(cell.scenario, "HB6728");
        assert!(cell.hard_goal);
        assert_eq!(cell.shards, 2);
        assert_eq!(cell.violations, 1);
        assert_eq!(cell.reengages, 3);
        assert_eq!(cell.max_epochs_to_reengage, 12);
        assert_eq!(cell.violation_bursts, 4);
        assert_eq!(cell.violation_burst_max, 7);
        assert_eq!(cell.violation_burst_p99, 5);
        assert_eq!(cell.unrecovered, 1);
        // Merged nan MTTR: (4×3.0 + 2×6.0) / 6 = 4.0.
        assert_eq!(cell.mttr()[2], 4.0);
        assert_eq!(cell.mttr()[7], 10.0);
        // Overall: (12 + 12 + 10) / 7.
        assert!((cell.mttr_overall() - 34.0 / 7.0).abs() < 1e-12);
        // CA6059 is not a hard-goal scenario, so its violation doesn't
        // count toward the gate.
        assert!(!outcomes[1].hard_goal);
        assert_eq!(hard_goal_violations(&outcomes), 1);
    }

    #[test]
    fn resilience_gate_fails_closed_on_missing_outcomes() {
        let policies = campaign_policies();
        assert!(!resilience_gate(&FleetReport::default(), &policies).is_empty());
        let mut report = FleetReport {
            shards: vec![shard_with(
                "HB6728",
                "SmartConf",
                true,
                EpochSummary::default(),
            )],
            workers: 1,
        };
        assert_eq!(
            resilience_gate(&report, &policies).len(),
            policies.len() - 1
        );
        assert!(resilience_gate(&report, &policies[..1]).is_empty());
        report.shards[0].resolved = false;
        assert!(!resilience_gate(&report, &policies[..1]).is_empty());
        // A hard-goal violation fails the gate.
        report.shards[0].resolved = true;
        report.shards[0].constraint_ok = false;
        assert_eq!(resilience_gate(&report, &policies[..1]).len(), 1);
    }

    #[test]
    fn resilience_json_is_well_formed() {
        let mut summary = EpochSummary {
            reengages: 1,
            ..Default::default()
        };
        summary.recoveries[7] = 2;
        summary.mttr[7] = 8.5;
        let report = FleetReport {
            shards: vec![shard_with(
                "HB6728",
                "Campaign-restart-under-corruption",
                true,
                summary,
            )],
            workers: 1,
        };
        let phases = [
            FleetPhase {
                name: "resilience-1-thread".into(),
                threads: 1,
                wall: std::time::Duration::from_millis(900),
            },
            FleetPhase {
                name: "resilience-4-threads".into(),
                threads: 4,
                wall: std::time::Duration::from_millis(400),
            },
        ];
        let json = resilience_json(&[42], &report, true, &phases);
        assert!(json.contains("\"seeds\": [42]"));
        assert!(json.contains("\"campaigns\": [\"restart-under-corruption\""));
        assert!(json.contains("\"hard_goal_violations\": 0"));
        assert!(json.contains("\"reports_identical\": true"));
        assert!(json.contains("\"mttr_by_class\": {\"restart\": 8.5}"));
        assert!(json.contains("\"wall_clock_secs\": 0.900"));
    }
}
