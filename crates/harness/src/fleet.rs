//! Fleet runs: many (scenario × seed × policy) shards, one report.
//!
//! The paper evaluates SmartConf across applications, configurations,
//! and repeated runs; this module is the harness-level face of that
//! fleet. Work items are expanded in a fixed (scenario, seed, policy)
//! order, executed on a [`FleetExecutor`] — each shard building its own
//! plant, RNG, and control plane from its seed — and folded into a
//! [`FleetReport`] whose rendering is byte-identical at any worker
//! count.

use std::sync::OnceLock;

use smartconf_core::{ModelMode, ProfileSet};
use smartconf_runtime::{Baseline, Campaign, EpochSummary, FaultClass, FaultSet, FleetExecutor};

use crate::{sweep_statics, Faults, RunResult, RunSpec, Scenario};

/// How one shard drives its scenario: under a named static baseline, or
/// under SmartConf control with one of six fixed [`RunSpec`]s
/// ([`Policy::spec`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// SmartConf-controlled run.
    Smart,
    /// A named static baseline ([`Baseline::Optimal`]/
    /// [`Baseline::Nonoptimal`] trigger a per-shard exhaustive sweep).
    Static(Baseline),
    /// SmartConf-controlled run with the standard fault plan for one
    /// fault class injected.
    Chaos(FaultClass),
    /// SmartConf-controlled run with the online (RLS) gain estimator in
    /// place of the frozen offline fit.
    Adaptive,
    /// Adaptive run with the standard fault plan for one fault class
    /// injected.
    AdaptiveChaos(FaultClass),
    /// SmartConf-controlled run with a compound-fault campaign armed.
    Campaign(Campaign),
    /// Adaptive run with a compound-fault campaign armed.
    AdaptiveCampaign(Campaign),
}

impl Policy {
    /// The controlled run this policy stands for, or `None` for a static
    /// baseline.
    pub fn spec(&self) -> Option<RunSpec> {
        let (model, faults) = match *self {
            Policy::Static(_) => return None,
            Policy::Smart => (ModelMode::Frozen, Faults::Clean),
            Policy::Adaptive => (ModelMode::Adaptive, Faults::Clean),
            Policy::Chaos(c) => (ModelMode::Frozen, Faults::Class(c)),
            Policy::AdaptiveChaos(c) => (ModelMode::Adaptive, Faults::Class(c)),
            Policy::Campaign(c) => (ModelMode::Frozen, Faults::Campaign(c)),
            Policy::AdaptiveCampaign(c) => (ModelMode::Adaptive, Faults::Campaign(c)),
        };
        Some(RunSpec::new(model, faults))
    }

    /// Display label: the [`Baseline::label`] of a static policy, else
    /// its [`RunSpec::label`].
    pub fn label(&self) -> String {
        if let Policy::Static(b) = self {
            return b.label();
        }
        self.spec()
            .expect("non-static policies are controlled")
            .label()
    }

    /// Runs `scenario` at `seed` under this policy: the one path from a
    /// (scenario, seed, policy) triple to a run. Returns the static
    /// setting the policy resolved to (`None` for a controlled policy)
    /// with its run, or `None` for a static baseline the scenario cannot
    /// resolve.
    ///
    /// A named default or a [`Baseline::Fixed`] setting runs once under
    /// [`Scenario::run_static`]. [`Baseline::Optimal`] and
    /// [`Baseline::Nonoptimal`] sweep every candidate
    /// ([`sweep_statics`]) and return the sweep's own run of the chosen
    /// setting; no satisfying candidate leaves them unresolved. A static
    /// run is labelled with its baseline. A controlled policy runs
    /// [`Scenario::run`] under [`Policy::spec`] with the profiles
    /// `profiles` yields; static policies never call it.
    pub fn resolve<P: AsRef<[ProfileSet]>>(
        &self,
        scenario: &(impl Scenario + Sync + ?Sized),
        seed: u64,
        profiles: impl FnOnce() -> P,
    ) -> Option<(Option<f64>, RunResult)> {
        let Policy::Static(baseline) = *self else {
            let spec = self.spec().expect("non-static policies are controlled");
            return Some((None, scenario.run(seed, &spec, profiles().as_ref())));
        };
        let (setting, mut run) = match baseline {
            Baseline::Optimal | Baseline::Nonoptimal => {
                let mut sweep = sweep_statics(scenario, seed);
                let chosen = if baseline == Baseline::Optimal {
                    sweep.optimal
                } else {
                    sweep.nonoptimal
                };
                sweep.runs.swap_remove(chosen?)
            }
            _ => {
                let setting = baseline
                    .fixed_setting()
                    .or_else(|| scenario.static_setting(baseline))?;
                (setting, scenario.run_static(setting, seed))
            }
        };
        run.label = baseline.label();
        Some((Some(setting), run))
    }
}

/// One (scenario × seed × policy) shard of fleet work. `scenario` is an
/// index into the scenario list handed to [`run_fleet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetWorkItem {
    /// Index into the scenario roster.
    pub scenario: usize,
    /// The shard's base RNG seed.
    pub seed: u64,
    /// How the shard drives its scenario.
    pub policy: Policy,
}

/// Expands the (scenario × seed × policy) cross product in the fixed
/// deterministic order that [`run_fleet`] executes and reports.
pub fn fleet_work_items(
    n_scenarios: usize,
    seeds: &[u64],
    policies: &[Policy],
) -> Vec<FleetWorkItem> {
    let mut items = Vec::with_capacity(n_scenarios * seeds.len() * policies.len());
    for scenario in 0..n_scenarios {
        for &seed in seeds {
            for &policy in policies {
                items.push(FleetWorkItem {
                    scenario,
                    seed,
                    policy,
                });
            }
        }
    }
    items
}

/// One shard's outcome, boiled down to what the fleet report aggregates:
/// the run verdict plus per-channel [`EpochSummary`] lifetime aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Scenario identifier, e.g. `"HB3813"`.
    pub scenario_id: String,
    /// The shard's base seed.
    pub seed: u64,
    /// Policy label, e.g. `"SmartConf"` or `"Static-BuggyDefault"`.
    pub policy: String,
    /// Whether the policy resolved to a runnable setting (a static
    /// baseline the scenario does not define yields an unresolved,
    /// not-run shard).
    pub resolved: bool,
    /// Whether the run kept its constraint.
    pub constraint_ok: bool,
    /// Whether the run crashed (OOM etc.).
    pub crashed: bool,
    /// The trade-off metric value.
    pub tradeoff: f64,
    /// Name of the trade-off metric.
    pub tradeoff_name: String,
    /// Per-channel epoch aggregates, in channel-index order.
    pub channels: Vec<(String, EpochSummary)>,
}

impl ShardReport {
    fn unresolved(scenario_id: &str, seed: u64, policy: &Policy) -> ShardReport {
        ShardReport {
            scenario_id: scenario_id.to_string(),
            seed,
            policy: policy.label(),
            resolved: false,
            constraint_ok: false,
            crashed: false,
            tradeoff: 0.0,
            tradeoff_name: String::new(),
            channels: Vec::new(),
        }
    }

    fn from_run(scenario_id: &str, seed: u64, policy: &Policy, run: &RunResult) -> ShardReport {
        ShardReport {
            scenario_id: scenario_id.to_string(),
            seed,
            policy: policy.label(),
            resolved: true,
            constraint_ok: run.constraint_ok,
            crashed: run.crashed,
            tradeoff: run.tradeoff,
            tradeoff_name: run.tradeoff_name.clone(),
            channels: run
                .epochs
                .summaries()
                .map(|(name, s)| (name.to_string(), s))
                .collect(),
        }
    }
}

/// The merged outcome of a fleet run: one [`ShardReport`] per work item,
/// in work-item order regardless of worker count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetReport {
    /// Shard reports, in [`fleet_work_items`] order.
    pub shards: Vec<ShardReport>,
    /// Worker-thread count of the executor that produced this report
    /// (satellite of the `FleetExecutor::new` clamp fix: surfaced so
    /// operators can see what parallelism a report came from). This is
    /// provenance, not payload — [`FleetReport::render`] deliberately
    /// excludes it so reports from different thread counts still diff
    /// byte-identical.
    pub workers: usize,
}

impl FleetReport {
    /// The shard for one (scenario id, seed, policy label), if present.
    pub fn shard(&self, scenario_id: &str, seed: u64, policy: &str) -> Option<&ShardReport> {
        self.shards
            .iter()
            .find(|s| s.scenario_id == scenario_id && s.seed == seed && s.policy == policy)
    }

    /// Fraction of resolved shards that kept their constraint.
    pub fn constraint_satisfaction_rate(&self) -> f64 {
        let resolved: Vec<_> = self.shards.iter().filter(|s| s.resolved).collect();
        if resolved.is_empty() {
            return 0.0;
        }
        resolved.iter().filter(|s| s.constraint_ok).count() as f64 / resolved.len() as f64
    }

    /// Renders the report as deterministic text: the bytes are a pure
    /// function of the shard reports, so two runs of the same work items
    /// at different thread counts can be `diff`ed directly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fleet report: {} shards\n", self.shards.len()));
        for s in &self.shards {
            if !s.resolved {
                out.push_str(&format!(
                    "{} seed={} {}: unresolved\n",
                    s.scenario_id, s.seed, s.policy
                ));
                continue;
            }
            out.push_str(&format!(
                "{} seed={} {}: ok={} crashed={} {}={}\n",
                s.scenario_id,
                s.seed,
                s.policy,
                s.constraint_ok,
                s.crashed,
                s.tradeoff_name,
                s.tradeoff,
            ));
            for (name, c) in &s.channels {
                // MTTR per fault class, only classes that recovered.
                let mttr: Vec<String> = (0..8)
                    .filter(|&i| c.recoveries[i] > 0)
                    .map(|i| format!("{}:{}", FaultSet::BIT_LABELS[i], c.mttr[i]))
                    .collect();
                let mttr = if mttr.is_empty() {
                    "-".to_string()
                } else {
                    mttr.join(",")
                };
                out.push_str(&format!(
                    "  {}: epochs={} saturated={} violations={} settled_after={} mean_err={} max_abs_err={} faults={} guards={} fallback={} reengage={}/{}/{} bursts={}/{}/{} mttr={} unrecovered={}\n",
                    name,
                    c.epochs,
                    c.saturated,
                    c.violations,
                    c.settled_after,
                    c.mean_error,
                    match c.max_abs_error {
                        Some(e) => e.to_string(),
                        None => "-".to_string(),
                    },
                    c.faults_injected,
                    c.guard_activations,
                    c.fallback_epochs,
                    // count / mean dwell / max dwell (epochs to re-engage)
                    c.reengages,
                    c.mean_epochs_to_reengage,
                    c.max_epochs_to_reengage,
                    // count / max length / p99 length (violation bursts)
                    c.violation_bursts,
                    c.violation_burst_max,
                    c.violation_burst_p99,
                    mttr,
                    c.unrecovered,
                ));
            }
        }
        out
    }
}

/// Deterministic per-fleet-run memo of each scenario's evaluation
/// profiles, shared across every policy shard of the same
/// `(scenario, seed)` pair.
///
/// A fleet run drives each `(scenario, seed)` under several policies —
/// SmartConf, static baselines, and up to seven chaos classes — and
/// every smart policy starts with the identical §6.1 profiling loop
/// ([`Scenario::evaluation_profiles`] is a pure function of
/// `(scenario, seed)`). The cache computes that loop once, lazily, on
/// whichever worker gets there first; all later shards of the pair reuse
/// the result. Static-baseline shards never touch it, so fleets without
/// smart policies pay nothing.
///
/// Determinism: profiles are memoized, not mutated — every reader
/// observes the same value a serial run would compute, so fleet reports
/// stay byte-identical at any thread count and with the cache disabled.
#[derive(Debug)]
pub struct ProfileCache {
    seeds: Vec<u64>,
    /// One lazily-filled slot per (scenario, seed), indexed
    /// `scenario * seeds.len() + seed_index`.
    slots: Vec<OnceLock<Vec<ProfileSet>>>,
}

impl ProfileCache {
    /// An empty cache for a roster of `n_scenarios` scenarios evaluated
    /// at `seeds`.
    pub fn new(n_scenarios: usize, seeds: &[u64]) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(n_scenarios * seeds.len(), OnceLock::new);
        ProfileCache {
            seeds: seeds.to_vec(),
            slots,
        }
    }

    /// The evaluation profiles of `(scenario, seed)`, collecting them on
    /// first use. Falls back to an uncached collection when `seed` was
    /// not declared up front (callers running ad-hoc seeds).
    pub fn profiles(
        &self,
        scenario_index: usize,
        scenario: &(dyn Scenario + Send + Sync),
        seed: u64,
    ) -> std::borrow::Cow<'_, [ProfileSet]> {
        let Some(seed_index) = self.seeds.iter().position(|&s| s == seed) else {
            return std::borrow::Cow::Owned(scenario.evaluation_profiles(seed));
        };
        let slot = &self.slots[scenario_index * self.seeds.len() + seed_index];
        std::borrow::Cow::Borrowed(slot.get_or_init(|| scenario.evaluation_profiles(seed)))
    }
}

/// Runs the (scenario × seed × policy) cross product on `executor` and
/// merges the shards into a [`FleetReport`].
///
/// Every shard is independent: it derives its plant, RNG, and control
/// plane from its own `(scenario, seed, policy)` triple, so the report
/// is byte-identical at 1 and N worker threads, whatever event loop a
/// scenario's plant runs.
///
/// # Example
///
/// ```
/// # use smartconf_core::{Goal, ProfileSet};
/// # use smartconf_harness::{
/// #     run_fleet, Baseline, GuardPolicy, PerfConf, Policy, ProfileSchedule, RunResult, RunSpec,
/// #     Scenario, TradeoffDirection,
/// # };
/// # use smartconf_runtime::FleetExecutor;
/// # struct Toy;
/// # impl Scenario for Toy {
/// #     fn perfconf(&self) -> PerfConf {
/// #         PerfConf {
/// #             id: "TOY",
/// #             description: "toy",
/// #             config_name: "c",
/// #             candidates: vec![50.0, 100.0],
/// #             buggy_default: Some(150.0),
/// #             patch_default: None,
/// #             direction: TradeoffDirection::HigherIsBetter,
/// #             goal: Goal::new("m", 100.0),
/// #             bounds: (0.0, 200.0),
/// #             initial: 0.0,
/// #             schedule: ProfileSchedule::first_events(vec![50.0, 100.0], 10),
/// #             guard: GuardPolicy::new(),
/// #         }
/// #     }
/// #     fn run_static(&self, setting: f64, _seed: u64) -> RunResult {
/// #         RunResult::new("s", setting <= 100.0, setting, "t", TradeoffDirection::HigherIsBetter)
/// #     }
/// #     fn run(&self, seed: u64, _: &RunSpec, _: &[ProfileSet]) -> RunResult {
/// #         self.run_static(100.0, seed)
/// #     }
/// #     fn profile(&self, _seed: u64) -> ProfileSet { ProfileSet::new() }
/// # }
/// let scenarios: Vec<Box<dyn Scenario + Send + Sync>> = vec![Box::new(Toy)];
/// let policies = [Policy::Smart, Policy::Static(Baseline::BuggyDefault)];
/// let serial = run_fleet(&scenarios, &[41, 42], &policies, &FleetExecutor::new(1));
/// let parallel = run_fleet(&scenarios, &[41, 42], &policies, &FleetExecutor::new(4));
/// assert_eq!(serial.render(), parallel.render()); // byte-identical
/// assert_eq!(serial.shards.len(), 4);
/// ```
pub fn run_fleet(
    scenarios: &[Box<dyn Scenario + Send + Sync>],
    seeds: &[u64],
    policies: &[Policy],
    executor: &FleetExecutor,
) -> FleetReport {
    let items = fleet_work_items(scenarios.len(), seeds, policies);
    let cache = ProfileCache::new(scenarios.len(), seeds);
    let shards = executor.execute(&items, |_, item| {
        let scenario = scenarios[item.scenario].as_ref();
        let id = scenario.id();
        let profiles = || cache.profiles(item.scenario, scenario, item.seed);
        match item.policy.resolve(scenario, item.seed, profiles) {
            Some((_, run)) => ShardReport::from_run(id, item.seed, &item.policy, &run),
            None => ShardReport::unresolved(id, item.seed, &item.policy),
        }
    });
    FleetReport {
        shards,
        workers: executor.threads(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PerfConf, TradeoffDirection};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    /// Constraint: setting ≤ 100; trade-off = setting (higher better).
    struct Toy;
    impl Scenario for Toy {
        fn perfconf(&self) -> PerfConf {
            PerfConf {
                buggy_default: Some(140.0),
                patch_default: Some(60.0),
                ..PerfConf::toy(
                    "TOY",
                    vec![20.0, 60.0, 100.0, 140.0],
                    TradeoffDirection::HigherIsBetter,
                )
            }
        }
        fn run_static(&self, setting: f64, seed: u64) -> RunResult {
            // Seed perturbs the trade-off so shards at different seeds differ.
            RunResult::new(
                format!("static-{setting}"),
                setting <= 100.0,
                setting + (seed % 7) as f64 * 0.01,
                "t",
                TradeoffDirection::HigherIsBetter,
            )
        }
        fn run(&self, seed: u64, spec: &RunSpec, _profiles: &[ProfileSet]) -> RunResult {
            let mut r = self.run_static(100.0, seed);
            r.label = spec.label();
            r
        }
        fn profile(&self, _seed: u64) -> ProfileSet {
            ProfileSet::new()
        }
    }

    fn roster() -> Vec<Box<dyn Scenario + Send + Sync>> {
        vec![Box::new(Toy), Box::new(Toy)]
    }

    proptest::proptest! {
        /// Satellite property: the same work items and seeds produce an
        /// identical [`FleetReport`] at 1, 2, and 8 worker threads.
        #[test]
        fn fleet_report_is_identical_at_1_2_and_8_threads(
            seeds in proptest::collection::vec(0u64..u64::MAX, 1..5),
        ) {
            let scenarios = roster();
            let policies = [
                Policy::Smart,
                Policy::Static(Baseline::BuggyDefault),
                Policy::Static(Baseline::Optimal),
            ];
            let reference = run_fleet(&scenarios, &seeds, &policies, &FleetExecutor::new(1));
            for threads in [2, 8] {
                let report = run_fleet(&scenarios, &seeds, &policies, &FleetExecutor::new(threads));
                // `workers` is provenance and differs by construction;
                // the payload (shards + rendering) must not.
                proptest::prop_assert_eq!(report.workers, threads);
                proptest::prop_assert_eq!(&report.shards, &reference.shards);
                proptest::prop_assert_eq!(report.render(), reference.render());
            }
        }
    }

    #[test]
    fn work_items_expand_in_fixed_order() {
        let items = fleet_work_items(2, &[1, 2], &[Policy::Smart]);
        assert_eq!(items.len(), 4);
        assert_eq!(
            items[0],
            FleetWorkItem {
                scenario: 0,
                seed: 1,
                policy: Policy::Smart
            }
        );
        assert_eq!(
            items[3],
            FleetWorkItem {
                scenario: 1,
                seed: 2,
                policy: Policy::Smart
            }
        );
    }

    #[test]
    fn report_is_identical_across_thread_counts() {
        let scenarios = roster();
        let seeds = [11, 12, 13];
        let policies = [
            Policy::Smart,
            Policy::Static(Baseline::BuggyDefault),
            Policy::Static(Baseline::Optimal),
        ];
        let reference = run_fleet(&scenarios, &seeds, &policies, &FleetExecutor::new(1));
        assert_eq!(reference.workers, 1);
        for threads in [2, 8] {
            let report = run_fleet(&scenarios, &seeds, &policies, &FleetExecutor::new(threads));
            assert_eq!(report.workers, threads);
            assert_eq!(report.shards, reference.shards);
            assert_eq!(report.render(), reference.render());
        }
    }

    /// Every policy of the smoke, chaos and campaign fleets, each once.
    fn all_policies() -> Vec<Policy> {
        let mut policies = vec![
            Policy::Smart,
            Policy::Static(Baseline::BuggyDefault),
            Policy::Static(Baseline::PatchDefault),
            Policy::Adaptive,
        ];
        policies.extend(FaultClass::ALL.iter().map(|&c| Policy::Chaos(c)));
        policies.extend(FaultClass::ALL.iter().map(|&c| Policy::AdaptiveChaos(c)));
        policies.extend(Campaign::ALL.iter().map(|&c| Policy::Campaign(c)));
        policies.extend(Campaign::ALL.iter().map(|&c| Policy::AdaptiveCampaign(c)));
        policies
    }

    /// A toy that records the spec of every controlled run it is handed.
    struct Recorder(Arc<Mutex<Vec<RunSpec>>>);
    impl Scenario for Recorder {
        fn perfconf(&self) -> PerfConf {
            PerfConf {
                id: "REC",
                ..Toy.perfconf()
            }
        }
        fn run_static(&self, setting: f64, seed: u64) -> RunResult {
            Toy.run_static(setting, seed)
        }
        fn run(&self, seed: u64, spec: &RunSpec, profiles: &[ProfileSet]) -> RunResult {
            self.0.lock().unwrap().push(spec.clone());
            Toy.run(seed, spec, profiles)
        }
        fn profile(&self, _seed: u64) -> ProfileSet {
            ProfileSet::new()
        }
    }

    #[test]
    fn each_policy_delivers_its_run_spec() {
        for policy in all_policies() {
            let received = Arc::new(Mutex::new(Vec::new()));
            let scenarios: Vec<Box<dyn Scenario + Send + Sync>> =
                vec![Box::new(Recorder(received.clone()))];
            let report = run_fleet(&scenarios, &[42], &[policy], &FleetExecutor::new(1));
            let received = received.lock().unwrap().clone();
            let (model, faults) = match policy {
                Policy::Static(_) => {
                    assert!(received.is_empty(), "{policy:?} ran a controller");
                    continue;
                }
                Policy::Smart => (ModelMode::Frozen, Faults::Clean),
                Policy::Adaptive => (ModelMode::Adaptive, Faults::Clean),
                Policy::Chaos(c) => (ModelMode::Frozen, Faults::Class(c)),
                Policy::AdaptiveChaos(c) => (ModelMode::Adaptive, Faults::Class(c)),
                Policy::Campaign(c) => (ModelMode::Frozen, Faults::Campaign(c)),
                Policy::AdaptiveCampaign(c) => (ModelMode::Adaptive, Faults::Campaign(c)),
            };
            let expected = RunSpec::new(model, faults);
            assert_eq!(received, vec![expected.clone()], "{policy:?}");
            assert_eq!(policy.spec(), Some(expected));
            let shard = &report.shards[0];
            assert!(shard.resolved && shard.constraint_ok, "{policy:?}");
            assert_eq!(shard.policy, policy.label());
        }
    }

    #[test]
    fn chaos_policy_dispatches_to_run_chaos() {
        let received = Arc::new(Mutex::new(Vec::new()));
        let scenarios: Vec<Box<dyn Scenario + Send + Sync>> =
            vec![Box::new(Recorder(received.clone()))];
        let report = run_fleet(
            &scenarios,
            &[42],
            &[Policy::Chaos(FaultClass::SensorDropout)],
            &FleetExecutor::new(2),
        );
        // A chaos policy reaches the scenario as a frozen-model run with
        // that class's fault plan, and the shard is labeled as such.
        assert_eq!(
            *received.lock().unwrap(),
            vec![RunSpec::new(
                ModelMode::Frozen,
                Faults::Class(FaultClass::SensorDropout)
            )]
        );
        let shard = report.shard("REC", 42, "Chaos-SensorDropout").unwrap();
        assert!(shard.resolved && shard.constraint_ok);
    }

    #[test]
    fn campaign_policies_dispatch_and_label() {
        let received = Arc::new(Mutex::new(Vec::new()));
        let scenarios: Vec<Box<dyn Scenario + Send + Sync>> =
            vec![Box::new(Recorder(received.clone()))];
        let report = run_fleet(
            &scenarios,
            &[42],
            &[
                Policy::Campaign(Campaign::RestartUnderCorruption),
                Policy::AdaptiveCampaign(Campaign::BurstEverything),
            ],
            &FleetExecutor::new(2),
        );
        // Each campaign policy reaches the scenario as a run with that
        // campaign armed, under the matching model mode.
        let mut received = received.lock().unwrap().clone();
        received.sort_by_key(RunSpec::label);
        assert_eq!(
            received,
            vec![
                RunSpec::new(
                    ModelMode::Adaptive,
                    Faults::Campaign(Campaign::BurstEverything)
                ),
                RunSpec::new(
                    ModelMode::Frozen,
                    Faults::Campaign(Campaign::RestartUnderCorruption)
                ),
            ]
        );
        let shard = report
            .shard("REC", 42, "Campaign-restart-under-corruption")
            .unwrap();
        assert!(shard.resolved && shard.constraint_ok);
        let shard = report
            .shard("REC", 42, "AdaptiveCampaign-burst-everything")
            .unwrap();
        assert!(shard.resolved && shard.constraint_ok);
    }

    #[test]
    fn policy_labels_are_stable() {
        let expected = [
            "SmartConf",
            "Static-BuggyDefault",
            "Static-PatchDefault",
            "Adaptive",
            "Chaos-SensorDropout",
            "Chaos-StaleRepeat",
            "Chaos-Corruption",
            "Chaos-ActuatorLag",
            "Chaos-ActuatorSaturation",
            "Chaos-GoalFlap",
            "Chaos-PlantRestart",
            "AdaptiveChaos-SensorDropout",
            "AdaptiveChaos-StaleRepeat",
            "AdaptiveChaos-Corruption",
            "AdaptiveChaos-ActuatorLag",
            "AdaptiveChaos-ActuatorSaturation",
            "AdaptiveChaos-GoalFlap",
            "AdaptiveChaos-PlantRestart",
            "Campaign-restart-under-corruption",
            "Campaign-lag-during-goal-flap",
            "Campaign-cascading-dropout",
            "Campaign-burst-everything",
            "AdaptiveCampaign-restart-under-corruption",
            "AdaptiveCampaign-lag-during-goal-flap",
            "AdaptiveCampaign-cascading-dropout",
            "AdaptiveCampaign-burst-everything",
        ];
        let labels: Vec<String> = all_policies().iter().map(Policy::label).collect();
        assert_eq!(labels, expected);
        for policy in all_policies() {
            if let Some(spec) = policy.spec() {
                assert_eq!(policy.label(), spec.label());
            }
        }
    }

    /// A controlled run's profiles, never collected for a static policy.
    fn no_profiles() -> Vec<ProfileSet> {
        unreachable!("static policies take no profiles")
    }

    #[test]
    fn resolves_defaults_oracle_and_fixed() {
        // Every baseline variant: the defaults and a fixed setting run as
        // declared, the sweep picks the best and worst satisfiers, and
        // each run carries its baseline's label.
        let cases = [
            (Baseline::BuggyDefault, 140.0, false),
            (Baseline::PatchDefault, 60.0, true),
            (Baseline::Optimal, 100.0, true),
            (Baseline::Nonoptimal, 20.0, true),
            (Baseline::Fixed(80.0), 80.0, true),
        ];
        for (baseline, setting, ok) in cases {
            let (resolved, run) = Policy::Static(baseline)
                .resolve(&Toy, 42, no_profiles)
                .unwrap();
            assert_eq!(resolved, Some(setting), "{baseline:?}");
            assert_eq!(run.constraint_ok, ok, "{baseline:?}");
            assert_eq!(run.tradeoff, setting, "{baseline:?}");
            assert_eq!(run.label, baseline.label());
        }
        let (setting, smart) = Policy::Smart
            .resolve(&Toy, 42, Vec::<ProfileSet>::new)
            .unwrap();
        assert_eq!(setting, None);
        assert_eq!(smart.label, "SmartConf");
        assert!(smart.constraint_ok);
    }

    #[test]
    fn unresolved_baseline_yields_no_run() {
        // A default the scenario does not declare, and an oracle pair
        // with no satisfying candidate, resolve to nothing; a fixed
        // setting still runs.
        struct Hopeless;
        impl Scenario for Hopeless {
            fn perfconf(&self) -> PerfConf {
                PerfConf::toy("H", vec![500.0], TradeoffDirection::HigherIsBetter)
            }
            fn run_static(&self, setting: f64, _seed: u64) -> RunResult {
                RunResult::new("x", false, setting, "t", TradeoffDirection::HigherIsBetter)
            }
            fn run(&self, seed: u64, _spec: &RunSpec, _profiles: &[ProfileSet]) -> RunResult {
                self.run_static(1.0, seed)
            }
            fn profile(&self, _seed: u64) -> ProfileSet {
                ProfileSet::new()
            }
        }
        for baseline in [
            Baseline::BuggyDefault,
            Baseline::Optimal,
            Baseline::Nonoptimal,
        ] {
            assert!(Policy::Static(baseline)
                .resolve(&Hopeless, 1, no_profiles)
                .is_none());
        }
        let (setting, run) = Policy::Static(Baseline::Fixed(500.0))
            .resolve(&Hopeless, 1, no_profiles)
            .unwrap();
        assert_eq!(setting, Some(500.0));
        assert!(!run.constraint_ok);
    }

    #[test]
    fn policies_resolve_in_fleet_shards() {
        let scenarios = roster();
        let report = run_fleet(
            &scenarios,
            &[42],
            &[
                Policy::Smart,
                Policy::Static(Baseline::BuggyDefault),
                Policy::Static(Baseline::Optimal),
                Policy::Static(Baseline::Nonoptimal),
                Policy::Static(Baseline::Fixed(80.0)),
            ],
            &FleetExecutor::new(4),
        );
        assert_eq!(report.shards.len(), 10);
        let smart = report.shard("TOY", 42, "SmartConf").unwrap();
        assert!(smart.constraint_ok);
        let buggy = report.shard("TOY", 42, "Static-BuggyDefault").unwrap();
        assert!(!buggy.constraint_ok);
        // Optimal resolves via the per-shard sweep to setting 100.
        let optimal = report.shard("TOY", 42, "Static-Optimal").unwrap();
        assert!(optimal.resolved && optimal.constraint_ok);
        assert!((optimal.tradeoff - 100.0).abs() < 1.0);
        let rate = report.constraint_satisfaction_rate();
        assert!((rate - 0.8).abs() < 1e-12, "rate {rate}"); // 8 of 10 ok
    }

    #[test]
    fn optimal_shard_reports_the_sweeps_own_run() {
        /// The toy, counting its static runs.
        struct Counting(Arc<AtomicUsize>);
        impl Scenario for Counting {
            fn perfconf(&self) -> PerfConf {
                Toy.perfconf()
            }
            fn run_static(&self, setting: f64, seed: u64) -> RunResult {
                self.0.fetch_add(1, Ordering::Relaxed);
                Toy.run_static(setting, seed)
            }
            fn run(&self, seed: u64, spec: &RunSpec, profiles: &[ProfileSet]) -> RunResult {
                Toy.run(seed, spec, profiles)
            }
            fn profile(&self, _seed: u64) -> ProfileSet {
                ProfileSet::new()
            }
        }
        let runs = Arc::new(AtomicUsize::new(0));
        let scenarios: Vec<Box<dyn Scenario + Send + Sync>> =
            vec![Box::new(Counting(runs.clone()))];
        let policy = Policy::Static(Baseline::Optimal);
        let report = run_fleet(&scenarios, &[42], &[policy], &FleetExecutor::new(1));
        // One sweep over the candidates, and no second run of the winner.
        assert_eq!(runs.load(Ordering::Relaxed), Toy.candidate_settings().len());
        let sweep = sweep_statics(&Toy, 42);
        let (_, optimal) = &sweep.runs[sweep.optimal.unwrap()];
        assert_eq!(
            report.shards,
            vec![ShardReport::from_run("TOY", 42, &policy, optimal)]
        );
    }

    #[test]
    fn unresolved_baseline_renders_deterministically() {
        struct NoDefaults;
        impl Scenario for NoDefaults {
            fn perfconf(&self) -> PerfConf {
                PerfConf::toy("N", vec![1.0], TradeoffDirection::HigherIsBetter)
            }
            fn run_static(&self, setting: f64, _seed: u64) -> RunResult {
                RunResult::new("x", true, setting, "t", TradeoffDirection::HigherIsBetter)
            }
            fn run(&self, seed: u64, _spec: &RunSpec, _profiles: &[ProfileSet]) -> RunResult {
                self.run_static(1.0, seed)
            }
            fn profile(&self, _seed: u64) -> ProfileSet {
                ProfileSet::new()
            }
        }
        let scenarios: Vec<Box<dyn Scenario + Send + Sync>> = vec![Box::new(NoDefaults)];
        let report = run_fleet(
            &scenarios,
            &[1],
            &[Policy::Static(Baseline::BuggyDefault)],
            &FleetExecutor::new(2),
        );
        assert!(!report.shards[0].resolved);
        assert!(report
            .render()
            .contains("N seed=1 Static-BuggyDefault: unresolved"));
        assert_eq!(report.constraint_satisfaction_rate(), 0.0);
    }
}
