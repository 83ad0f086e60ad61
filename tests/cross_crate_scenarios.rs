//! Integration tests across the host-system crates: every case study of
//! the paper's Table 6 runs under SmartConf and reproduces its headline
//! behaviour on the repository's fixed experiment seed.

use smartconf::dfs::Hd4995;
use smartconf::harness::{Baseline, Policy, Scenario, TradeoffDirection};
use smartconf::kvstore::scenarios::{Ca6059, Hb2149, Hb3813, Hb6728, TwinQueues};
use smartconf::mapred::Mr2820;

const SEED: u64 = 42;

fn all() -> Vec<Box<dyn Scenario + Sync>> {
    vec![
        Box::new(Ca6059::standard()),
        Box::new(Hb2149::standard()),
        Box::new(Hb3813::standard()),
        Box::new(Hb6728::standard()),
        Box::new(Hd4995::standard()),
        Box::new(Mr2820::standard()),
    ]
}

#[test]
fn smartconf_satisfies_every_constraint() {
    for s in all() {
        let r = s.run_smartconf(SEED);
        assert!(
            r.constraint_ok,
            "{}: SmartConf violated its constraint (crash: {:?})",
            s.id(),
            r.crash_time_us
        );
        assert!(r.tradeoff.is_finite(), "{}: degenerate trade-off", s.id());
        // Every scenario now runs through the shared control plane, so
        // every run carries the per-decision epoch log.
        assert!(!r.epochs.is_empty(), "{}: no epoch events recorded", s.id());
        assert_eq!(
            r.epochs.channels().len(),
            1,
            "{}: single-knob scenarios drive one channel",
            s.id()
        );
    }
}

#[test]
fn buggy_defaults_fail_everywhere() {
    // "The original default settings in all 6 issues fail" (paper 6.2),
    // while SmartConf satisfies: both halves run through the one
    // resolver from (scenario, seed, policy) to a run.
    for s in all() {
        let profiles = || s.evaluation_profiles(SEED);
        let (_, smart) = Policy::Smart.resolve(s.as_ref(), SEED, profiles).unwrap();
        assert!(
            smart.constraint_ok,
            "{}: SmartConf violated its constraint (crash at {:?})",
            s.id(),
            smart.crash_time_us
        );
        let (_, buggy) = Policy::Static(Baseline::BuggyDefault)
            .resolve(s.as_ref(), SEED, profiles)
            .unwrap_or_else(|| panic!("{}: every case study documents its buggy default", s.id()));
        assert!(
            !buggy.constraint_ok,
            "{}: expected the buggy default to violate the constraint, but it held",
            s.id()
        );
    }
}

#[test]
fn profiles_support_synthesis_everywhere() {
    for s in all() {
        let p = s.profile(SEED);
        assert!(p.num_settings() >= 2, "{}: too few settings", s.id());
        let fit = p
            .fit()
            .unwrap_or_else(|e| panic!("{}: fit failed: {e}", s.id()));
        assert!(fit.alpha() != 0.0, "{}: zero gain", s.id());
        assert!(
            p.check_monotonic(s.perfconf().config_name).is_ok(),
            "{}: non-monotonic profile",
            s.id()
        );
    }
}

#[test]
fn every_scenario_reports_consistent_metadata() {
    let mut ids = std::collections::BTreeSet::new();
    for s in all() {
        assert!(ids.insert(s.id().to_string()), "duplicate id {}", s.id());
        let conf = s.perfconf();
        assert!(!conf.description.is_empty());
        assert!(!conf.config_name.is_empty());
        assert!(
            s.candidate_settings().len() >= 10,
            "{}: sweep too small",
            s.id()
        );
        // The trade-off direction is coherent with the metric name.
        match s.tradeoff_direction() {
            TradeoffDirection::HigherIsBetter => {}
            TradeoffDirection::LowerIsBetter => {}
        }
    }
    assert_eq!(ids.len(), 6);
}

#[test]
fn deterministic_across_repeated_runs() {
    for s in all() {
        let a = s.run_static(s.candidate_settings()[3], 7);
        let b = s.run_static(s.candidate_settings()[3], 7);
        assert_eq!(a.tradeoff, b.tradeoff, "{}: nondeterministic", s.id());
        assert_eq!(a.constraint_ok, b.constraint_ok, "{}", s.id());
    }
}

#[test]
fn twin_queues_coordinate_under_one_goal() {
    let out = TwinQueues::standard().run_smartconf(13);
    assert_eq!(out.interaction_n, 2);
    assert!(out.result.constraint_ok);
    // Both queues carried real load at some point.
    let req = out
        .result
        .series("request_queue.len")
        .unwrap()
        .summary()
        .unwrap();
    let resp = out
        .result
        .series("response_queue.bytes_mb")
        .unwrap()
        .summary()
        .unwrap();
    assert!(req.max > 50.0, "request queue max {}", req.max);
    assert!(resp.max > 10.0, "response queue max {}", resp.max);
    // Both channels decide through one plane and share its epoch log.
    let epochs = &out.result.epochs;
    assert!(epochs.events_for("max.queue.size").count() > 0);
    assert!(epochs.events_for("response.queue.maxsize_mb").count() > 0);
}
