//! Absolute pins on every smoke artifact renderer.
//!
//! The `*_is_well_formed` unit tests check substrings; these render
//! each JSON artifact from a fixed synthetic report with fixed phase
//! durations and pin the full bytes by FNV-1a, so a refactor of the
//! smoke binaries cannot move a field, a separator or a precision
//! unnoticed. `host_cpus` is the one host-dependent field and is
//! normalised before hashing.

use std::sync::Arc;
use std::time::Duration;

use smartconf_bench::fleet::FleetPhase;
use smartconf_bench::soak::{CrossCheckReport, CrossCheckScenario, SoakConfig, SoakScenario};
use smartconf_core::ProfileSet;
use smartconf_harness::{
    CohortReport, FleetReport, ScenarioSoakReport, ShardReport, SoakReport, SoakTemplate,
};
use smartconf_runtime::EpochSummary;

/// FNV-1a over the artifact's bytes, with the `host_cpus` value
/// replaced by `0`.
fn pin(json: &str) -> u64 {
    let key = "\"host_cpus\": ";
    let start = json.find(key).expect("artifact records host_cpus") + key.len();
    let end = start + json[start..].find(',').expect("host_cpus is not last");
    let normalised = format!("{}0{}", &json[..start], &json[end..]);
    normalised.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn phases(label: &str, serial_ms: u64, parallel_ms: u64) -> [FleetPhase; 2] {
    [
        FleetPhase {
            name: format!("{label}-1-thread"),
            threads: 1,
            wall: Duration::from_millis(serial_ms),
        },
        FleetPhase {
            name: format!("{label}-4-threads"),
            threads: 4,
            wall: Duration::from_millis(parallel_ms),
        },
    ]
}

fn summary(seed: u64) -> EpochSummary {
    let mut s = EpochSummary {
        epochs: 100 + seed,
        violations: seed % 3,
        faults_injected: 7 * seed,
        guard_activations: 3 * seed,
        fallback_epochs: 2 * seed,
        reengages: seed % 4,
        max_epochs_to_reengage: 5 + seed % 7,
        violation_bursts: seed % 5,
        violation_burst_max: 4 + seed % 3,
        violation_burst_p99: 3 + seed % 2,
        unrecovered: seed % 2 == 1,
        ..Default::default()
    };
    s.recoveries[(seed % 8) as usize] = 2;
    s.mttr[(seed % 8) as usize] = 1.5 + seed as f64;
    s
}

/// Three scenarios × two policies, one violation on a hard-goal
/// scenario, channel summaries that differ per shard.
fn fleet_report(policies: [&str; 2]) -> FleetReport {
    let mut shards = Vec::new();
    for (i, scenario) in ["HB6728", "CA6059", "TWIN"].iter().enumerate() {
        for (j, policy) in policies.iter().enumerate() {
            let seed = (i * 2 + j) as u64;
            shards.push(ShardReport {
                scenario_id: scenario.to_string(),
                seed: 42,
                policy: policy.to_string(),
                resolved: true,
                constraint_ok: !(i == 0 && j == 1),
                crashed: false,
                tradeoff: 1.25 + seed as f64,
                tradeoff_name: "throughput".into(),
                channels: vec![("a".into(), summary(seed)), ("b".into(), summary(seed + 9))],
            });
        }
    }
    FleetReport { shards, workers: 4 }
}

#[test]
fn fleet_artifact_is_pinned() {
    let report = fleet_report(["SmartConf", "Adaptive"]);
    let json =
        smartconf_bench::fleet::bench_json(&[42, 43], &report, true, &phases("fleet", 1500, 500));
    assert_eq!(pin(&json), 0x13d9_0083_cf9d_0c72, "{json}");
}

#[test]
fn chaos_artifact_is_pinned() {
    let report = fleet_report(["SmartConf", "Chaos-SensorDropout"]);
    let json = smartconf_bench::chaos::chaos_json(&[42], &report, true, &phases("chaos", 800, 300));
    assert_eq!(pin(&json), 0x385d_3b2d_b53b_2285, "{json}");
}

#[test]
fn resilience_artifact_is_pinned() {
    let report = fleet_report(["SmartConf", "Campaign-restart-under-corruption"]);
    let json = smartconf_bench::resilience::resilience_json(
        &[42],
        &report,
        false,
        &phases("resilience", 900, 400),
    );
    assert_eq!(pin(&json), 0xbd3e_1116_5a43_422e, "{json}");
}

fn cohort(period_us: u64, scale: f64, unrecovered: u64) -> CohortReport {
    CohortReport {
        period_us,
        tenants: 50,
        senses: 4_000,
        violations: 12,
        p50: 0.9 * scale,
        p99: 1.01 * scale,
        p999: 1.02 * scale,
        max: 1.1 * scale,
        reengages: 3,
        reengage_p99: 4.0,
        burst_p99: 2.0,
        recoveries: 5,
        mttr: 3.25,
        recovery_p99: 6.0,
        unrecovered,
    }
}

fn soak_scenarios() -> Vec<SoakScenario> {
    let profile: ProfileSet = [(10.0, 30.0), (20.0, 50.0), (30.0, 70.0), (40.0, 90.0)]
        .into_iter()
        .collect();
    ["TOYA", "TOYB"]
        .iter()
        .enumerate()
        .map(|(i, id)| SoakScenario {
            template: Arc::new(
                SoakTemplate::from_profile(id, i == 1, &[10.0, 20.0, 30.0, 40.0], &profile)
                    .expect("toy template"),
            ),
            setup_secs: 0.125 * (i + 1) as f64,
        })
        .collect()
}

#[test]
fn soak_artifact_is_pinned() {
    let config = SoakConfig {
        periods_us: vec![1_000_000, 5_000_000],
        arms: vec![None, Some(smartconf_runtime::FaultClass::SensorDropout)],
        ..SoakConfig::standard(100)
    };
    let scenarios = soak_scenarios();
    let mut rows = Vec::new();
    for (i, s) in scenarios.iter().enumerate() {
        for arm in ["clean", "dropout"] {
            rows.push(ScenarioSoakReport {
                scenario: s.template.scenario.clone(),
                arm: arm.into(),
                hard: i == 1,
                delta: 1.15,
                tenants: 100,
                cohorts: vec![
                    cohort(1_000_000, 1.0 + i as f64 * 0.1, 0),
                    cohort(5_000_000, 1.05, u64::from(arm == "dropout")),
                ],
            });
        }
    }
    let report = SoakReport {
        seed: 42,
        tenants_per_scenario: 100,
        horizon_us: config.horizon_us,
        scenarios: rows,
    };
    let cross = CrossCheckReport {
        tenants_per_scenario: 4,
        scenarios: scenarios
            .iter()
            .map(|s| CrossCheckScenario {
                scenario: s.template.scenario.clone(),
                hard: s.template.hard,
                lambda: 0.05,
                tenants: 4,
                senses: 321,
                real_p50: 0.95,
                real_p99: 1.04,
                real_max: 1.2,
            })
            .collect(),
    };
    let phases = phases("soak", 2000, 750);
    let without =
        smartconf_bench::soak::soak_json(&config, &scenarios, &report, None, true, &phases);
    assert_eq!(pin(&without), 0xc394_3686_d872_a90b, "{without}");
    let with =
        smartconf_bench::soak::soak_json(&config, &scenarios, &report, Some(&cross), true, &phases);
    assert_eq!(pin(&with), 0x2902_3874_c4c7_ed02, "{with}");
}
