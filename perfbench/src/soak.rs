//! `soak-clean` and `soak-fire`: distilled template tenants swept on
//! the cohort calendar, one `soak_run` per arm on a one-worker
//! `FleetExecutor`.

use std::collections::BTreeMap;
use std::sync::Arc;

use smartconf_bench::chaos::HARD_GOAL_SCENARIOS;
use smartconf_bench::fleet::fleet_scenarios;
use smartconf_bench::soak::{arm_label, soak_run, SoakConfig, SoakScenario};
use smartconf_harness::{FleetExecutor, ProfileCache, SoakReport, SoakTemplate};
use smartconf_runtime::{shard_seed, FaultClass, SOAK_FAULT_CLASSES};
use smartconf_workload::TrafficShape;

use crate::catalog::Workload;
use crate::stats::rss_mb;
use crate::trace::Tracer;

/// The arms a soak workload runs: the clean arm alone, or the four soak
/// fault arms.
pub fn arms(workload: Workload) -> Vec<Option<FaultClass>> {
    if workload.is_fire() {
        SOAK_FAULT_CLASSES.iter().copied().map(Some).collect()
    } else {
        vec![None]
    }
}

/// The standard soak shape at `tenants` per scenario, seeded.
pub fn config(seed: u64, tenants: u64) -> SoakConfig {
    SoakConfig {
        seed,
        ..SoakConfig::standard(tenants)
    }
}

/// A soak workload's set-up: one template per scenario, the profiling
/// sample count, and a problem if HD4995's profiling missed the
/// namespace memo (see [`crate::fleet::memo_miss`]).
pub struct Setup {
    pub scenarios: Vec<SoakScenario>,
    pub samples: u64,
    pub problem: Option<String>,
}

/// Set-up: the roster, §6.1 profiles at the soak seed, and one
/// distilled template per scenario — `build_templates`, step by step.
pub fn setup(seed: u64, tracer: &Tracer) -> Setup {
    let scenarios = tracer.span("harness.roster", fleet_scenarios);
    let tree_mb = crate::fleet::synthesize_hd4995_tree(tracer);
    let cache = ProfileCache::new(scenarios.len(), &[seed]);
    let mut samples = 0u64;
    let mut problem = None;
    let built = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let start = std::time::Instant::now();
            let rss = rss_mb();
            let profiles = tracer.span(format!("runtime.profiler.{}", s.id()), || {
                cache.profiles(i, s.as_ref(), seed)
            });
            if s.id() == "HD4995" {
                problem = crate::fleet::memo_miss(tree_mb, rss_mb() - rss);
            }
            samples += profiles.iter().map(|p| p.len() as u64).sum::<u64>();
            let hard = HARD_GOAL_SCENARIOS.contains(&s.id());
            let template = tracer.span("harness.soak.distil", || {
                SoakTemplate::from_profile(s.id(), hard, &s.candidate_settings(), &profiles[0])
            });
            let template = template.unwrap_or_else(|e| panic!("{}: soak template: {e}", s.id()));
            SoakScenario {
                template: Arc::new(template),
                setup_secs: start.elapsed().as_secs_f64(),
            }
        })
        .collect();
    Setup {
        scenarios: built,
        samples,
        problem,
    }
}

/// One pass of the timed phase: `soak_run` once per arm, each report
/// rendered.
pub fn timed(
    config: &SoakConfig,
    scenarios: &[SoakScenario],
    arms: &[Option<FaultClass>],
    tracer: &Tracer,
) -> Vec<(SoakReport, String)> {
    let executor = FleetExecutor::new(1);
    tracer.span("soak.timed", || {
        arms.iter()
            .map(|&arm| {
                let cfg = SoakConfig {
                    arms: vec![arm],
                    ..config.clone()
                };
                let report = tracer.span(format!("harness.soak.{}.run", arm_label(arm)), || {
                    soak_run(&cfg, scenarios, &executor)
                });
                let text = tracer.span("harness.soak.render", || report.render());
                (report, text)
            })
            .collect()
    })
}

/// Sense events the calendar must deliver for one (scenario, arm):
/// every tenant senses once per tick of its cohort while resident.
/// Recomputed here from the traffic shape, independently of the sweep.
pub fn expected_senses(config: &SoakConfig, scenario: usize) -> u64 {
    let scen_seed = shard_seed(config.seed, scenario as u64);
    let n = config.periods_us.len() as u64;
    let traffic: &TrafficShape = &config.traffic;
    (0..config.tenants)
        .map(|id| {
            let period = config.periods_us[(shard_seed(scen_seed, id) % n) as usize].max(1);
            let (arrive, depart) = traffic.churn_window(scen_seed, id, config.horizon_us);
            let end = depart.min(config.horizon_us);
            // Ticks k·period with k ≥ 1 inside [arrive, end).
            let first = arrive.div_ceil(period).max(1);
            let last = end.saturating_sub(1) / period;
            if end == 0 || last < first {
                0
            } else {
                last - first + 1
            }
        })
        .sum()
}

/// What a pass's reports add up to.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub decisions: u64,
    pub chunks: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub figures: BTreeMap<String, f64>,
    /// Senses per arm label, for per-arm ns/decision.
    pub arm_decisions: BTreeMap<String, u64>,
}

/// Checks the invariants that hold by construction — every tenant
/// accounted for, Σ cohort senses equal to the run total and to the
/// recomputed residency, zero hard-cohort breaches, zero unrecovered
/// hard tenants — and derives the deterministic figures.
pub fn outcome(config: &SoakConfig, runs: &[(SoakReport, String)]) -> Outcome {
    let mut o = Outcome::default();
    let chunks_per = config.tenants.div_ceil(config.chunk.max(1));
    let expected: Vec<u64> = (0..runs.first().map_or(0, |(r, _)| r.scenarios.len()))
        .map(|i| expected_senses(config, i))
        .collect();
    let (mut cells, mut cells_met) = (0u64, 0u64);
    let (mut hard_senses, mut hard_violations) = (0u64, 0u64);
    let (mut fault_tenants, mut unrecovered) = (0u64, 0u64);
    for (report, _) in runs {
        let cohort_senses: u64 = report
            .scenarios
            .iter()
            .flat_map(|s| &s.cohorts)
            .map(|c| c.senses)
            .sum();
        if cohort_senses != report.total_senses() {
            o.problems.push(format!(
                "cohort senses {cohort_senses} != total {}",
                report.total_senses()
            ));
        }
        o.decisions += report.total_senses();
        for (i, s) in report.scenarios.iter().enumerate() {
            o.chunks += chunks_per;
            *o.arm_decisions.entry(s.arm.clone()).or_default() +=
                s.cohorts.iter().map(|c| c.senses).sum::<u64>();
            let tenants: u64 = s.cohorts.iter().map(|c| c.tenants).sum();
            let senses: u64 = s.cohorts.iter().map(|c| c.senses).sum();
            let mut bad = Vec::new();
            if tenants != config.tenants {
                bad.push(format!("tenants {tenants} != {}", config.tenants));
            }
            if Some(&senses) != expected.get(i) {
                bad.push(format!("senses {senses} != expected {:?}", expected.get(i)));
            }
            if s.hard_breached() {
                bad.push("hard cohort breach".to_string());
            }
            if s.hard && s.unrecovered_tenants() > 0 {
                bad.push(format!(
                    "{} unrecovered hard tenants",
                    s.unrecovered_tenants()
                ));
            }
            if !bad.is_empty() {
                o.failed += chunks_per;
                o.problems
                    .push(format!("{} [{}]: {}", s.scenario, s.arm, bad.join(", ")));
            }
            for c in &s.cohorts {
                cells += 1;
                cells_met += (c.p99 <= s.delta) as u64;
            }
            if s.hard {
                hard_senses += senses;
                hard_violations += s.cohorts.iter().map(|c| c.violations).sum::<u64>();
            }
            if s.arm != "clean" {
                fault_tenants += tenants;
                unrecovered += s.unrecovered_tenants();
            }
        }
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let f = &mut o.figures;
    f.insert("goal_met_rate".into(), ratio(cells_met, cells));
    f.insert(
        "hard_violation_rate".into(),
        ratio(hard_violations, hard_senses),
    );
    f.insert(
        "recovered_rate".into(),
        1.0 - ratio(unrecovered, fault_tenants),
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartconf_bench::soak::build_templates;

    #[test]
    fn mirrored_setup_builds_the_same_templates() {
        let ours = setup(42, &Tracer::new(false));
        let theirs = build_templates(42);
        assert!(ours.samples > 0);
        assert_eq!(ours.problem, None);
        assert_eq!(ours.scenarios.len(), theirs.len());
        for (a, b) in ours.scenarios.iter().zip(&theirs) {
            assert_eq!(a.template, b.template);
        }
    }

    #[test]
    fn tiny_soak_passes_its_own_checks() {
        let scenarios = setup(42, &Tracer::new(false)).scenarios;
        for w in [Workload::SoakClean, Workload::SoakFire] {
            let cfg = config(42, 300);
            let runs = timed(&cfg, &scenarios, &arms(w), &Tracer::new(false));
            let o = outcome(&cfg, &runs);
            assert!(o.problems.is_empty(), "{:?}", o.problems);
            assert_eq!(o.failed, 0);
            assert!(o.decisions > 0);
            assert_eq!(o.arm_decisions.len(), arms(w).len());
        }
    }
}
