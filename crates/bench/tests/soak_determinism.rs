//! Soak determinism and hard-gate pins over the real scenario roster.
//!
//! The soak's crown-jewel claim is the same as the fleet's: the cohort
//! tail report is a pure function of `(config, templates)` — worker
//! thread count and chunking are invisible. These tests exercise that
//! claim with the *real* seven scenarios (profiled templates, zipfian
//! weights, churn enabled) at a reduced tenant count, and pin the
//! hard-goal cohort gate that CI enforces at full scale.

use smartconf_bench::soak::{
    build_templates, cross_check_failures, cross_check_run, soak_run, SoakConfig,
};
use smartconf_harness::SlabGuardPolicy;
use smartconf_runtime::{FaultClass, FleetExecutor};
use smartconf_workload::TrafficShape;

const SOAK_TENANTS: u64 = 2_000;

#[test]
fn full_roster_soak_byte_identical_1_vs_4_threads() {
    // Standard config: diurnal + flash + 25% churn all active, clean
    // arm plus all four fault arms behind the slab guard ladder.
    let config = SoakConfig::standard(SOAK_TENANTS);
    assert!(config.traffic.churn_fraction > 0.0, "churn must be active");
    assert_eq!(config.arms.len(), 5, "fault arms must be active");
    let scenarios = build_templates(config.seed);
    assert_eq!(scenarios.len(), 7);

    let serial = soak_run(&config, &scenarios, &FleetExecutor::new(1));
    let threaded = soak_run(&config, &scenarios, &FleetExecutor::new(4));
    assert_eq!(
        serial.render(),
        threaded.render(),
        "soak cohort reports diverged across thread counts"
    );

    // Churn is visible in the report: every scenario has fewer senses
    // than a churn-free run would produce, and every tenant is
    // accounted for in exactly one cohort.
    for s in &serial.scenarios {
        let total: u64 = s.cohorts.iter().map(|c| c.tenants).sum();
        assert_eq!(total, SOAK_TENANTS, "{} lost tenants", s.scenario);
        for c in &s.cohorts {
            let max_senses = c.tenants * (config.horizon_us / c.period_us);
            assert!(
                c.senses < max_senses,
                "{} period {}: churn left no idle gaps ({} vs {})",
                s.scenario,
                c.period_us,
                c.senses,
                max_senses
            );
        }
    }
}

/// FNV-1a over the render's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn full_roster_render_is_pinned_byte_for_byte() {
    // An absolute pin, not a relative one: the standard roster at seed
    // 42 (2k tenants, clean arm plus four fault arms) must render to
    // exactly these bytes. Sweep-order refactors may reorder tenants
    // inside a cohort — no rendered figure depends on that order — but
    // must not move a single rendered digit.
    let config = SoakConfig::standard(SOAK_TENANTS);
    assert_eq!((config.seed, config.arms.len()), (42, 5));
    let scenarios = build_templates(config.seed);
    let report = soak_run(&config, &scenarios, &FleetExecutor::new(2));
    let text = report.render();
    assert_eq!(
        fnv1a(&text),
        0xd9f3_cfec_8dd2_65a2,
        "soak render moved:\n{text}"
    );
}

#[test]
fn steady_traffic_is_also_thread_invariant() {
    // The control arm: no churn, no wave, no jitter. Determinism must
    // not depend on the traffic layer masking an ordering bug.
    let config = SoakConfig {
        traffic: TrafficShape::steady(),
        ..SoakConfig::standard(1_000)
    };
    let scenarios = build_templates(config.seed);
    let serial = soak_run(&config, &scenarios, &FleetExecutor::new(1));
    let threaded = soak_run(&config, &scenarios, &FleetExecutor::new(4));
    assert_eq!(serial.render(), threaded.render());
    // Under steady unity load every tenant converges; violation counts
    // stay near zero for hard scenarios (virtual-goal headroom).
    for s in serial.scenarios.iter().filter(|s| s.hard) {
        for c in &s.cohorts {
            assert!(
                c.p99 < s.delta,
                "{} steady p99 {} vs delta {}",
                s.scenario,
                c.p99,
                s.delta
            );
        }
    }
}

#[test]
fn hard_goal_cohorts_hold_under_standard_traffic() {
    // The gate CI enforces at 100k tenants, pinned at reduced N: no
    // hard scenario's cohort p99 overshoot may exceed its Δ = 1 + 3λ
    // budget under the full diurnal + flash + churn traffic.
    let config = SoakConfig::standard(SOAK_TENANTS);
    let scenarios = build_templates(config.seed);
    let report = soak_run(&config, &scenarios, &FleetExecutor::new(4));
    assert_eq!(
        report.hard_gate_breaches(),
        Vec::<&str>::new(),
        "hard-goal cohort gate breached:\n{}",
        report.render()
    );
    // The fault-arm zero-tolerance gate holds at reduced scale too: no
    // hard-goal tenant may end the soak outside its goal past the
    // recovery SLO.
    assert_eq!(
        report.unrecovered_hard_tenants(),
        0,
        "unrecovered hard-goal tenants:\n{}",
        report.render()
    );
    // The three hard scenarios are present and actually gated (once per
    // arm; scenario-major order makes dedup sufficient).
    let mut hard: Vec<&str> = report
        .scenarios
        .iter()
        .filter(|s| s.hard)
        .map(|s| s.scenario.as_str())
        .collect();
    hard.dedup();
    assert_eq!(hard, ["HB6728", "HD4995", "MR2820"]);
}

#[test]
fn clean_arm_is_untouched_by_the_fault_plane() {
    // Satellite pin: with the fault plane compiled in and armed on the
    // other four arms, the clean arm's cohort reports must be exactly
    // what a soak with no fault arms at all produces — the guard ladder
    // and window machinery never touch the clean arm.
    let config = SoakConfig::standard(500);
    let scenarios = build_templates(config.seed);
    let full = soak_run(&config, &scenarios, &FleetExecutor::new(4));
    let clean_only = SoakConfig {
        arms: vec![None],
        ..config
    };
    let control = soak_run(&clean_only, &scenarios, &FleetExecutor::new(1));
    let clean: Vec<_> = full.scenarios.iter().filter(|s| s.arm == "clean").collect();
    assert_eq!(clean.len(), control.scenarios.len());
    for (a, b) in clean.iter().zip(&control.scenarios) {
        assert_eq!(**a, *b, "clean arm diverged for {}", b.scenario);
    }
}

#[test]
fn hb6728_seed_43_corruption_grazes_are_vote_invariant() {
    // DESIGN §3f pinned HB6728's seed-43 clean-admitted churn spike as
    // a plant-quantum artifact. The soak-scale counterpart: under the
    // Corruption arm, every injected reading is either a ×25 spike or a
    // NaN — both stopped by the admission filter (ladder rung 4) before
    // the median-of-3 vote (rung 5) can matter. Any residual tail graze
    // is therefore the plant/load quantum, not corruption leaking
    // through: the cohort tails must be bit-identical with voting on
    // and off.
    let base = SoakConfig {
        seed: 43,
        arms: vec![Some(FaultClass::Corruption)],
        ..SoakConfig::standard(SOAK_TENANTS)
    };
    let scenarios = build_templates(base.seed);
    let hb: Vec<_> = scenarios
        .iter()
        .filter(|s| s.template.scenario == "HB6728")
        .cloned()
        .collect();
    assert_eq!(hb.len(), 1, "HB6728 missing from roster");

    let voted = soak_run(&base, &hb, &FleetExecutor::new(4));
    let unvoted = soak_run(
        &SoakConfig {
            guard: SlabGuardPolicy::without_vote(),
            ..base
        },
        &hb,
        &FleetExecutor::new(4),
    );
    assert_eq!(
        voted.render(),
        unvoted.render(),
        "corruption-arm tails moved when the vote was disabled — \
         corrupted readings are leaking past the admission filter"
    );
    // And the arm is genuinely under fire: the guard ladder did work.
    let s = &voted.scenarios[0];
    assert_eq!(s.arm, "corrupt");
    assert!(
        s.cohorts.iter().map(|c| c.recoveries).sum::<u64>() > 0,
        "corruption arm recorded no recoveries:\n{}",
        voted.render()
    );
}

#[test]
fn cross_check_real_plants_sit_inside_the_template_bracket() {
    // A handful of full ControlPlane plants per scenario, run under the
    // same tenant-keyed window schedule as the soak's fault arms, must
    // produce p99 overshoot tails inside the distilled-template cohort
    // span (widened by the cross-check margin) — and the cross-check
    // render itself must be thread-invariant.
    let config = SoakConfig::standard(SOAK_TENANTS);
    let scenarios = build_templates(config.seed);
    let report = soak_run(&config, &scenarios, &FleetExecutor::new(4));

    let serial = cross_check_run(&config, &scenarios, 8, &FleetExecutor::new(1));
    let threaded = cross_check_run(&config, &scenarios, 8, &FleetExecutor::new(4));
    assert_eq!(
        serial.render(),
        threaded.render(),
        "cross-check reports diverged across thread counts"
    );
    // The plan path at 2k tenants and 8 real plants per scenario,
    // pinned to absolute bytes.
    let text = serial.render();
    assert_eq!(
        fnv1a(&text),
        0xdb59_cfc4_85de_3ce7,
        "cross-check render moved:\n{text}"
    );
    assert_eq!(
        cross_check_failures(&report, &serial),
        Vec::<String>::new(),
        "real plants fell outside the template bracket:\n{}",
        serial.render()
    );
}
