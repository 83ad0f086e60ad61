//! Satellite property: the fleet profile cache is purely a wall-clock
//! optimization. Cached and uncached profiling must produce
//! byte-identical [`FleetReport`]s across the full seven-scenario
//! roster — any divergence means a scenario's `run` consumed cached
//! profiles differently from freshly collected ones.

use smartconf_bench::fleet::fleet_scenarios;
use smartconf_core::ProfileSet;
use smartconf_harness::{
    run_fleet, Baseline, FaultClass, FleetExecutor, Policy, ProfileSchedule, RunResult, RunSpec,
    Scenario, TradeoffDirection,
};

/// Discards the cached profiles handed to every controlled shard and
/// re-runs the §6.1 profiling loop from scratch — the uncached
/// reference behavior the cache must reproduce byte-for-byte.
struct Unprofiled(Box<dyn Scenario + Send + Sync>);

impl Scenario for Unprofiled {
    fn id(&self) -> &str {
        self.0.id()
    }
    fn description(&self) -> &str {
        self.0.description()
    }
    fn config_name(&self) -> &str {
        self.0.config_name()
    }
    fn candidate_settings(&self) -> Vec<f64> {
        self.0.candidate_settings()
    }
    fn static_setting(&self, choice: Baseline) -> Option<f64> {
        self.0.static_setting(choice)
    }
    fn tradeoff_direction(&self) -> TradeoffDirection {
        self.0.tradeoff_direction()
    }
    fn run_static(&self, setting: f64, seed: u64) -> RunResult {
        self.0.run_static(setting, seed)
    }
    fn run(&self, seed: u64, spec: &RunSpec, _cached: &[ProfileSet]) -> RunResult {
        self.0.run(seed, spec, &self.0.evaluation_profiles(seed))
    }
    fn profile_schedule(&self) -> ProfileSchedule {
        self.0.profile_schedule()
    }
    fn profile(&self, seed: u64) -> ProfileSet {
        self.0.profile(seed)
    }
    fn evaluation_profiles(&self, seed: u64) -> Vec<ProfileSet> {
        self.0.evaluation_profiles(seed)
    }
}

fn uncached_roster() -> Vec<Box<dyn Scenario + Send + Sync>> {
    fleet_scenarios()
        .into_iter()
        .map(|s| Box::new(Unprofiled(s)) as Box<dyn Scenario + Send + Sync>)
        .collect()
}

/// Cached vs uncached `ProfileSet`s: byte-identical [`FleetReport`]s
/// across all seven scenarios and two seeds, for sampled fault classes
/// and worker counts.
///
/// The sampling loop is hand-rolled on the vendored proptest's
/// [`TestRng`](proptest::TestRng) instead of the `proptest!` macro: each
/// case runs the full roster twice (cached + uncached) in a debug build,
/// so the case count must stay far below the macro's global default.
#[test]
fn cached_and_uncached_profiles_are_byte_identical() {
    use proptest::{Strategy, TestRng};

    let mut rng = TestRng::deterministic("cached_and_uncached_profiles_are_byte_identical");
    for case in 0..3 {
        let class = FaultClass::ALL[(0usize..FaultClass::ALL.len()).sample(&mut rng)];
        let threads = (1usize..5).sample(&mut rng);
        let seeds = [42u64, 43];
        let policies = [Policy::Smart, Policy::Chaos(class)];
        let executor = FleetExecutor::new(threads);
        let cached = run_fleet(&fleet_scenarios(), &seeds, &policies, &executor);
        let uncached = run_fleet(&uncached_roster(), &seeds, &policies, &executor);
        assert_eq!(
            cached.shards, uncached.shards,
            "case {case}: class {class:?} at {threads} threads diverged"
        );
        assert_eq!(cached.render(), uncached.render());
    }
}
