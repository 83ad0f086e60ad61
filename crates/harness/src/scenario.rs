//! The scenario abstraction: one PerfConf case study.

use smartconf_core::{ModelMode, ProfileSet};
use smartconf_runtime::{
    shard_seed, Baseline, Campaign, ChaosSpec, FaultClass, FaultPlan, GuardPolicy, ProfileSchedule,
    CHAOS_STREAM,
};

use crate::{Policy, RunResult, TradeoffDirection};

/// One PerfConf case study from Table 6 (e.g. HB3813), runnable under a
/// static setting or under SmartConf control.
///
/// Implementations live in the host-system crates
/// (`smartconf-kvstore`, `smartconf-dfs`, `smartconf-mapred`); the bench
/// crate drives them through this trait to regenerate the evaluation.
pub trait Scenario {
    /// Issue identifier, e.g. `"HB3813"`.
    fn id(&self) -> &str;

    /// One-line description of the configuration and its trade-off.
    fn description(&self) -> &str;

    /// The configuration name, e.g. `"ipc.server.max.queue.size"`.
    fn config_name(&self) -> &str;

    /// Candidate static settings for the exhaustive sweep that finds the
    /// static optimal (paper §6.3: "we find the best static configuration
    /// by exhaustively searching all possible PerfConf settings").
    fn candidate_settings(&self) -> Vec<f64>;

    /// The static setting associated with a named baseline. `Optimal`
    /// and `Nonoptimal` are discovered by sweeping and return `None`
    /// here; `Fixed` settings resolve without consulting the scenario.
    fn static_setting(&self, choice: Baseline) -> Option<f64>;

    /// Which direction of the trade-off metric is better.
    fn tradeoff_direction(&self) -> TradeoffDirection;

    /// Runs the two-phase evaluation workload with a fixed setting.
    fn run_static(&self, setting: f64, seed: u64) -> RunResult;

    /// Runs the evaluation workload under SmartConf control as `spec`
    /// describes: the controller's model mode, the faults injected, and
    /// — through [`RunSpec::chaos`] — the guard ladder that defends the
    /// hard goal. `profiles` holds [`Scenario::evaluation_profiles`] for
    /// `seed`, so a run replays exactly from `(seed, spec)`.
    ///
    /// This is the one controlled entry point: every fleet policy, the
    /// soak's real-plant cross-check and the convenience
    /// [`Scenario::run_smartconf`] all come through here, so a scenario
    /// cannot report a clean run under a chaos label.
    ///
    /// The soak's cross-check is looser about `profiles`: it stamps many
    /// per-tenant seeds with the profiles of one base seed (the plants
    /// differ in workload phase, not in gain).
    fn run(&self, seed: u64, spec: &RunSpec, profiles: &[ProfileSet]) -> RunResult;

    /// Profiles at `seed`, then runs the clean frozen-model SmartConf
    /// evaluation ([`RunSpec::default`]).
    fn run_smartconf(&self, seed: u64) -> RunResult {
        self.run(seed, &RunSpec::default(), &self.evaluation_profiles(seed))
    }

    /// The declarative profiling schedule (paper §6.1: which settings to
    /// hold, how many measurements per setting, how to sample them). The
    /// shared `Profiler` in `smartconf-runtime` drives this schedule;
    /// scenarios no longer hand-roll the loop. Defaults to the paper's
    /// 10 measurements at each candidate setting.
    fn profile_schedule(&self) -> ProfileSchedule {
        ProfileSchedule::first_events(self.candidate_settings(), 10)
    }

    /// Runs the profiling workload (distinct from the evaluation workload,
    /// §6.1) and returns the collected samples.
    fn profile(&self, seed: u64) -> ProfileSet;

    /// Every profile set a controlled evaluation run at `seed` consumes,
    /// in a stable order. The fleet harness memoizes this per
    /// `(scenario, seed)` and feeds it to [`Scenario::run`], so the §6.1
    /// profiling loop runs once per (scenario, seed) instead of once per
    /// policy shard.
    ///
    /// The default matches the Table 6 convention of one profile at
    /// `seed ^ 0x5eed`; scenarios that profile differently (e.g. TWIN's
    /// two queues) override it.
    fn evaluation_profiles(&self, seed: u64) -> Vec<ProfileSet> {
        vec![self.profile(seed ^ 0x5eed)]
    }
}

/// The per-mode entry points of the fleet benchmark under `perfbench/`,
/// which calls them on `&(dyn Scenario + Send + Sync)`. Each forwards to
/// [`Scenario::run`]; they are kept only for that caller and go away at
/// its next change. Being inherent, they cannot be overridden.
impl dyn Scenario + Send + Sync {
    fn run_policy(&self, policy: Policy, seed: u64, profiles: &[ProfileSet]) -> RunResult {
        let spec = policy.spec().expect("a controlled policy");
        self.run(seed, &spec, profiles)
    }

    /// [`Scenario::run`] under [`Policy::Smart`].
    pub fn run_smartconf_profiled(&self, seed: u64, profiles: &[ProfileSet]) -> RunResult {
        self.run_policy(Policy::Smart, seed, profiles)
    }

    /// [`Scenario::run`] under [`Policy::Adaptive`].
    pub fn run_adaptive_profiled(&self, seed: u64, profiles: &[ProfileSet]) -> RunResult {
        self.run_policy(Policy::Adaptive, seed, profiles)
    }

    /// [`Scenario::run`] under [`Policy::Chaos`].
    pub fn run_chaos_profiled(
        &self,
        seed: u64,
        class: FaultClass,
        profiles: &[ProfileSet],
    ) -> RunResult {
        self.run_policy(Policy::Chaos(class), seed, profiles)
    }

    /// [`Scenario::run`] under [`Policy::AdaptiveChaos`].
    pub fn run_adaptive_chaos_profiled(
        &self,
        seed: u64,
        class: FaultClass,
        profiles: &[ProfileSet],
    ) -> RunResult {
        self.run_policy(Policy::AdaptiveChaos(class), seed, profiles)
    }

    /// [`Scenario::run`] under [`Policy::Campaign`].
    pub fn run_campaign_profiled(
        &self,
        seed: u64,
        campaign: Campaign,
        profiles: &[ProfileSet],
    ) -> RunResult {
        self.run_policy(Policy::Campaign(campaign), seed, profiles)
    }

    /// [`Scenario::run`] under [`Policy::AdaptiveCampaign`].
    pub fn run_adaptive_campaign_profiled(
        &self,
        seed: u64,
        campaign: Campaign,
        profiles: &[ProfileSet],
    ) -> RunResult {
        self.run_policy(Policy::AdaptiveCampaign(campaign), seed, profiles)
    }
}

/// Where a controlled run's faults come from.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Faults {
    /// No fault plane: the paper's fault-free evaluation.
    #[default]
    Clean,
    /// The standard plan of one fault class ([`FaultClass::standard_plan`]).
    Class(FaultClass),
    /// A compound-fault campaign's composed plan ([`Campaign::plan`]);
    /// the guards run campaign-hardened.
    Campaign(Campaign),
    /// An explicit plan, e.g. one soak tenant's exported fault windows.
    Plan(FaultPlan),
}

/// One controlled run: which gain model the controller carries and which
/// faults it meets. The guard ladder is not a knob here — it follows
/// from the scenario's base guard, the model and the faults (see
/// [`RunSpec::chaos`]).
///
/// # Example
///
/// ```
/// use smartconf_core::ModelMode;
/// use smartconf_harness::{Faults, GuardPolicy, RunSpec};
/// use smartconf_runtime::Campaign;
///
/// let spec = RunSpec::new(ModelMode::Adaptive, Faults::Campaign(Campaign::BurstEverything));
/// assert_eq!(spec.label(), "AdaptiveCampaign-burst-everything");
/// let chaos = spec.chaos(42, GuardPolicy::new()).unwrap();
/// assert!(chaos.guard.vote && chaos.guard.backoff);
/// assert!(RunSpec::default().chaos(42, GuardPolicy::new()).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSpec {
    /// Frozen offline fit or online RLS estimator.
    pub model: ModelMode,
    /// The faults injected into the control plane.
    pub faults: Faults,
}

impl RunSpec {
    /// A spec from its two parts.
    pub fn new(model: ModelMode, faults: Faults) -> Self {
        RunSpec { model, faults }
    }

    /// The run label, e.g. `"SmartConf"`, `"Chaos-SensorDropout"` or
    /// `"AdaptiveCampaign-burst-everything"`; fleet policies render
    /// the same strings.
    pub fn label(&self) -> String {
        let adaptive = match self.model {
            ModelMode::Frozen => "",
            ModelMode::Adaptive => "Adaptive",
        };
        match &self.faults {
            Faults::Clean if adaptive.is_empty() => "SmartConf".to_string(),
            Faults::Clean => adaptive.to_string(),
            Faults::Class(c) => format!("{adaptive}Chaos-{}", c.label()),
            Faults::Campaign(c) => format!("{adaptive}Campaign-{}", c.label()),
            Faults::Plan(_) => format!("{adaptive}Plan-chaos"),
        }
    }

    /// The fault plane to arm for a run at `seed`, or `None` for a clean
    /// run. The injector seed is `shard_seed(seed, CHAOS_STREAM)`, kept
    /// apart from the plant's workload RNG. `base` is the scenario's
    /// guard ladder; a campaign adds [`GuardPolicy::campaign_hardened`].
    /// The model needs nothing here: the plane's model-doubt rung
    /// follows the controller's model.
    pub fn chaos(&self, seed: u64, base: GuardPolicy) -> Option<ChaosSpec> {
        let plan = match &self.faults {
            Faults::Clean => return None,
            Faults::Class(class) => class.standard_plan(),
            Faults::Campaign(campaign) => campaign.plan(),
            Faults::Plan(plan) => plan.clone(),
        };
        let guard = match self.faults {
            Faults::Campaign(_) => base.campaign_hardened(),
            _ => base,
        };
        Some(ChaosSpec::new(shard_seed(seed, CHAOS_STREAM), plan, guard))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy scenario over the plant `metric = setting`, constraint
    /// `metric <= 100`, trade-off = setting (higher is better).
    struct Toy;

    impl Scenario for Toy {
        fn id(&self) -> &str {
            "TOY1"
        }
        fn description(&self) -> &str {
            "toy"
        }
        fn config_name(&self) -> &str {
            "toy.setting"
        }
        fn candidate_settings(&self) -> Vec<f64> {
            (0..=20).map(|i| i as f64 * 10.0).collect()
        }
        fn static_setting(&self, choice: Baseline) -> Option<f64> {
            match choice {
                Baseline::BuggyDefault => Some(200.0),
                Baseline::PatchDefault => Some(150.0),
                _ => None,
            }
        }
        fn tradeoff_direction(&self) -> TradeoffDirection {
            TradeoffDirection::HigherIsBetter
        }
        fn run_static(&self, setting: f64, _seed: u64) -> RunResult {
            RunResult::new(
                format!("static-{setting}"),
                setting <= 100.0,
                setting,
                "setting",
                TradeoffDirection::HigherIsBetter,
            )
        }
        fn run(&self, seed: u64, spec: &RunSpec, _profiles: &[ProfileSet]) -> RunResult {
            let mut r = self.run_static(100.0, seed);
            r.label = spec.label();
            r
        }
        fn profile(&self, _seed: u64) -> ProfileSet {
            [(10.0, 10.0), (20.0, 20.0)].into_iter().collect()
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let s: Box<dyn Scenario> = Box::new(Toy);
        assert_eq!(s.id(), "TOY1");
        assert!(s.run_static(50.0, 1).constraint_ok);
        assert!(!s.run_static(150.0, 1).constraint_ok);
        assert_eq!(s.run_smartconf(1).label, "SmartConf");
        assert_eq!(s.static_setting(Baseline::Optimal), None);
        assert_eq!(s.profile(1).num_settings(), 2);
    }

    const MODELS: [ModelMode; 2] = [ModelMode::Frozen, ModelMode::Adaptive];

    fn every_faults() -> Vec<Faults> {
        let mut faults = vec![Faults::Clean];
        faults.extend(FaultClass::ALL.iter().map(|&c| Faults::Class(c)));
        faults.extend(Campaign::ALL.iter().map(|&c| Faults::Campaign(c)));
        faults.push(Faults::Plan(FaultClass::Corruption.standard_plan()));
        faults
    }

    #[test]
    fn chaos_is_none_exactly_when_clean() {
        for model in MODELS {
            for faults in every_faults() {
                let clean = faults == Faults::Clean;
                let spec = RunSpec::new(model, faults);
                assert_eq!(
                    spec.chaos(7, GuardPolicy::new()).is_none(),
                    clean,
                    "{spec:?}"
                );
            }
        }
    }

    #[test]
    fn chaos_hardening_iff_campaign() {
        let base = GuardPolicy::new().fallback_setting("c", 3.0);
        for model in MODELS {
            for faults in every_faults() {
                let campaign = matches!(faults, Faults::Campaign(_));
                let spec = RunSpec::new(model, faults);
                let Some(chaos) = spec.chaos(7, base.clone()) else {
                    continue;
                };
                let expected = if campaign {
                    base.clone().campaign_hardened()
                } else {
                    base.clone()
                };
                assert_eq!(chaos.guard, expected, "{spec:?}");
                assert_eq!(chaos.guard.vote, campaign, "{spec:?}");
                assert_eq!(chaos.guard.backoff, campaign, "{spec:?}");
                assert_eq!(chaos.guard.fallback_for("c"), Some(3.0));
            }
        }
    }

    #[test]
    fn chaos_seeds_from_the_chaos_stream_and_keeps_the_plan() {
        let plan = FaultClass::ActuatorLag.standard_plan();
        let cases = [
            (Faults::Class(FaultClass::ActuatorLag), plan.clone()),
            (
                Faults::Campaign(Campaign::CascadingDropout),
                Campaign::CascadingDropout.plan(),
            ),
            (Faults::Plan(plan.clone()), plan),
        ];
        for (faults, plan) in cases {
            for seed in [0, 42, u64::MAX] {
                let chaos = RunSpec::new(ModelMode::Frozen, faults.clone())
                    .chaos(seed, GuardPolicy::new())
                    .unwrap();
                assert_eq!(chaos.seed, shard_seed(seed, CHAOS_STREAM));
                assert_eq!(chaos.plan, plan);
            }
        }
    }

    #[test]
    fn run_smartconf_is_the_default_spec() {
        assert_eq!(
            RunSpec::default(),
            RunSpec::new(ModelMode::Frozen, Faults::Clean)
        );
        assert_eq!(Toy.run_smartconf(3).label, "SmartConf");
        let plan = RunSpec::new(ModelMode::Adaptive, Faults::Plan(FaultPlan::new()));
        assert_eq!(plan.label(), "AdaptivePlan-chaos");
    }
}
