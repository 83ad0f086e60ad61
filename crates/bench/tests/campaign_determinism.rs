//! Campaign-composition determinism.
//!
//! Compound-fault [`FaultPlan`]s are the one place the fault plane
//! composes state: a [`Campaign`] merges several class plans into one
//! window list, and the injector's per-(seed, channel, epoch) hashing
//! must keep that composition pure — the same plan must produce the
//! same `EpochEvent::faults` bitsets whether it is evaluated by one
//! [`FaultInjector`] or a freshly built one, in a replayed run, or on a
//! fleet running 1 vs. 4 worker threads.

use proptest::prelude::*;
use smartconf_core::ModelMode;
use smartconf_harness::{run_fleet, Faults, Policy, RunSpec, Scenario};
use smartconf_kvstore::scenarios::Hb6728;
use smartconf_runtime::{
    Campaign, FaultInjector, FaultKind, FaultPlan, FaultWindow, FleetExecutor,
};

/// One window built from primitive draws, with every composition
/// feature reachable: all eight fault kinds, periodic bursts,
/// probability gates, and per-channel stagger.
fn build_window(
    (kind_sel, start, len): (u8, u64, u64),
    (period, active, knob, stagger): (u64, u64, f64, u64),
) -> FaultWindow {
    let kind = match kind_sel {
        0 => FaultKind::SensorDropout,
        1 => FaultKind::SensorStale,
        2 => FaultKind::SensorNan,
        3 => FaultKind::SensorSpike {
            factor: 2.0 + 30.0 * knob,
        },
        4 => FaultKind::ActuatorLag { epochs: 1 + active },
        5 => FaultKind::ActuatorSaturate {
            frac: 0.1 + 0.8 * knob,
        },
        6 => FaultKind::GoalFlap {
            frac: 0.05 + 0.25 * knob,
        },
        _ => FaultKind::PlantRestart,
    };
    let mut w = FaultWindow::new(kind, start, start + len);
    if period >= 2 {
        w = w.periodic(period, active.min(period));
    }
    if knob < 0.7 {
        // Leave some windows unconditional so both the rolled and the
        // always-on paths are exercised.
        w = w.with_probability(0.05 + knob);
    }
    w.staggered(stagger)
}

proptest! {
    /// A second injector built from the same (seed, plan) must
    /// reproduce the first one's faults exactly on every channel, for
    /// arbitrary merged multi-fault plans — the property the stateless
    /// per-(seed, channel, epoch) hashing exists to guarantee.
    #[test]
    fn composed_plans_replay_identically(
        draws in prop::collection::vec(
            ((0u8..8, 0u64..64, 1u64..128), (0u64..40, 1u64..8, 0.0f64..1.0, 0u64..4)),
            1..8,
        ),
        split_frac in 0.0f64..1.0,
        seed in 0u64..u64::MAX,
    ) {
        // Compose the plan the way campaigns compose: two window lists
        // merged in order.
        let split = ((draws.len() as f64) * split_frac) as usize;
        let mut first = FaultPlan::new();
        let mut second = FaultPlan::new();
        for (i, &(head, tail)) in draws.iter().enumerate() {
            let w = build_window(head, tail);
            if i < split {
                first = first.window(w);
            } else {
                second = second.window(w);
            }
        }
        let plan = first.merge(second);
        let inj = FaultInjector::new(seed, plan.clone());
        let replay = FaultInjector::new(seed, plan);
        for channel in 0..3 {
            for epoch in 0..300 {
                prop_assert_eq!(
                    inj.at(channel, epoch),
                    replay.at(channel, epoch),
                    "fresh injector diverged: channel {} epoch {}",
                    channel,
                    epoch
                );
            }
        }
    }

    /// Campaign presets are plain merged plans, so the same property
    /// must hold for every shipped [`Campaign`] at any seed.
    #[test]
    fn campaign_presets_replay_identically(
        campaign_idx in 0usize..Campaign::ALL.len(),
        seed in 0u64..u64::MAX,
    ) {
        let plan = Campaign::ALL[campaign_idx].plan();
        let inj = FaultInjector::new(seed, plan.clone());
        let replay = FaultInjector::new(seed, plan);
        for channel in 0..2 {
            for epoch in 0..400 {
                prop_assert_eq!(inj.at(channel, epoch), replay.at(channel, epoch));
            }
        }
    }
}

/// Two full campaign runs of the same scenario must log identical
/// per-epoch fault bitsets — the `EpochEvent::faults` face of the
/// replay guarantee — and actually inject something.
#[test]
fn campaign_runs_log_identical_fault_bitsets() {
    let scenario = Hb6728::standard();
    let profiles = scenario.evaluation_profiles(42);
    for campaign in Campaign::ALL {
        let spec = RunSpec::new(ModelMode::Frozen, Faults::Campaign(campaign));
        let a = scenario.run(42, &spec, &profiles);
        let b = scenario.run(42, &spec, &profiles);
        let bits_a: Vec<u16> = a.epochs.events().map(|e| e.faults.bits()).collect();
        let bits_b: Vec<u16> = b.epochs.events().map(|e| e.faults.bits()).collect();
        assert!(!bits_a.is_empty(), "{}: no epochs logged", campaign.label());
        assert!(
            bits_a.iter().any(|&bits| bits != 0),
            "{}: campaign injected no faults",
            campaign.label()
        );
        assert_eq!(
            bits_a,
            bits_b,
            "{}: fault bitsets diverged between replays",
            campaign.label()
        );
    }
}

/// A campaign fleet must render byte-identically at 1 and 4 worker
/// threads: the injector state is per-shard and stateless, so worker
/// scheduling cannot reorder or reroll any window.
#[test]
fn campaign_fleet_byte_identical_across_threads() {
    let scenarios: Vec<Box<dyn Scenario + Send + Sync>> = vec![Box::new(Hb6728::standard())];
    let seeds = [42, 43];
    let policies = [
        Policy::Campaign(Campaign::RestartUnderCorruption),
        Policy::Campaign(Campaign::BurstEverything),
        Policy::AdaptiveCampaign(Campaign::CascadingDropout),
        Policy::AdaptiveCampaign(Campaign::LagDuringGoalFlap),
    ];
    let serial = run_fleet(&scenarios, &seeds, &policies, &FleetExecutor::new(1));
    let threaded = run_fleet(&scenarios, &seeds, &policies, &FleetExecutor::new(4));
    assert_eq!(
        serial.render(),
        threaded.render(),
        "campaign fleet reports diverged across thread counts"
    );
}
