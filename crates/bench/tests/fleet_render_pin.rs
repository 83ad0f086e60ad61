//! An absolute pin on the fleet render under every policy.
//!
//! The smoke gates diff each fleet render 1-vs-N threads, which proves
//! thread invariance but not that a refactor of the run path left the
//! bytes alone. This test runs the seven-scenario roster at seed 42
//! under all 26 fleet policies — the smoke policies, then every chaos
//! and campaign policy not already listed — and pins the render's
//! FNV-1a digest.

use smartconf_bench::chaos::chaos_policies;
use smartconf_bench::fleet::{fleet_scenarios, SMOKE_POLICIES};
use smartconf_bench::resilience::campaign_policies;
use smartconf_harness::{run_fleet, Policy};
use smartconf_runtime::FleetExecutor;

/// FNV-1a over the render's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The smoke policies, then the chaos and campaign policies, each
/// listed once in first-seen order.
fn all_policies() -> Vec<Policy> {
    let mut policies = SMOKE_POLICIES.to_vec();
    for p in chaos_policies().into_iter().chain(campaign_policies()) {
        if !policies.contains(&p) {
            policies.push(p);
        }
    }
    policies
}

#[test]
fn every_policy_renders_to_pinned_bytes() {
    let policies = all_policies();
    assert_eq!(policies.len(), 26);
    let report = run_fleet(&fleet_scenarios(), &[42], &policies, &FleetExecutor::new(1));
    assert_eq!(report.shards.len(), 182);
    let text = report.render();
    assert_eq!(text.len(), 68_899, "fleet render changed length");
    assert_eq!(fnv1a(&text), 0x1a8a_9305_3a6a_af49, "fleet render moved");
}
