//! Exhaustive static sweep: finding the best static configuration.
//!
//! Figure 5's "Static-Optimal" bar is "the best static configuration
//! [found] by exhaustively searching all possible PerfConf settings that
//! meet the constraint throughout our two-phase workloads" (§6.3). The
//! sweep runs every candidate as a fleet shard on a machine-sized
//! [`FleetExecutor`] and classifies the outcomes.

use smartconf_runtime::FleetExecutor;

use crate::{RunResult, Scenario, TradeoffDirection};

/// The outcome of sweeping every candidate static setting of a scenario.
#[derive(Debug)]
pub struct StaticSweep {
    /// `(setting, result)` for every candidate, in candidate order.
    pub runs: Vec<(f64, RunResult)>,
    /// Index into `runs` of the best constraint-satisfying setting.
    pub optimal: Option<usize>,
    /// Index into `runs` of the worst constraint-satisfying setting — the
    /// "plausible but poor" static choice.
    pub nonoptimal: Option<usize>,
}

impl StaticSweep {
    /// The best constraint-satisfying run, if any setting satisfied.
    pub fn optimal_run(&self) -> Option<(f64, &RunResult)> {
        self.optimal.map(|i| (self.runs[i].0, &self.runs[i].1))
    }

    /// The worst constraint-satisfying run.
    pub fn nonoptimal_run(&self) -> Option<(f64, &RunResult)> {
        self.nonoptimal.map(|i| (self.runs[i].0, &self.runs[i].1))
    }
}

/// Runs every candidate static setting of `scenario` (in parallel) and
/// classifies the best and worst constraint-satisfying choices.
pub fn sweep_statics(scenario: &(impl Scenario + Sync + ?Sized), seed: u64) -> StaticSweep {
    let candidates = scenario.candidate_settings();
    let runs: Vec<(f64, RunResult)> = FleetExecutor::available_parallelism()
        .execute(&candidates, |_, &setting| {
            (setting, scenario.run_static(setting, seed))
        });

    let direction = scenario.tradeoff_direction();
    let better = |a: f64, b: f64| match direction {
        TradeoffDirection::HigherIsBetter => a > b,
        TradeoffDirection::LowerIsBetter => a < b,
    };

    let mut optimal: Option<usize> = None;
    let mut nonoptimal: Option<usize> = None;
    for (i, (_, r)) in runs.iter().enumerate() {
        if !r.constraint_ok || !r.tradeoff.is_finite() {
            continue;
        }
        match optimal {
            None => optimal = Some(i),
            Some(j) if better(r.tradeoff, runs[j].1.tradeoff) => optimal = Some(i),
            _ => {}
        }
        match nonoptimal {
            None => nonoptimal = Some(i),
            Some(j) if better(runs[j].1.tradeoff, r.tradeoff) => nonoptimal = Some(i),
            _ => {}
        }
    }
    StaticSweep {
        runs,
        optimal,
        nonoptimal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PerfConf, RunSpec};
    use smartconf_core::ProfileSet;

    /// Constraint: setting <= 100. Trade-off: setting, higher better.
    struct Toy;
    impl Scenario for Toy {
        fn perfconf(&self) -> PerfConf {
            PerfConf::toy(
                "TOY",
                vec![20.0, 60.0, 100.0, 140.0],
                TradeoffDirection::HigherIsBetter,
            )
        }
        fn run_static(&self, setting: f64, _seed: u64) -> RunResult {
            RunResult::new(
                format!("s{setting}"),
                setting <= 100.0,
                setting,
                "t",
                TradeoffDirection::HigherIsBetter,
            )
        }
        fn run(&self, seed: u64, _spec: &RunSpec, _profiles: &[ProfileSet]) -> RunResult {
            self.run_static(100.0, seed)
        }
        fn profile(&self, _seed: u64) -> ProfileSet {
            ProfileSet::new()
        }
    }

    #[test]
    fn sweep_finds_optimal_and_nonoptimal() {
        let sweep = sweep_statics(&Toy, 1);
        assert_eq!(sweep.runs.len(), 4);
        let satisfying = sweep.runs.iter().filter(|(_, r)| r.constraint_ok);
        assert_eq!(satisfying.count(), 3);
        let (best, _) = sweep.optimal_run().unwrap();
        assert_eq!(best, 100.0);
        let (worst, _) = sweep.nonoptimal_run().unwrap();
        assert_eq!(worst, 20.0);
    }

    /// A scenario where nothing satisfies.
    struct Hopeless;
    impl Scenario for Hopeless {
        fn perfconf(&self) -> PerfConf {
            PerfConf::toy("H", vec![1.0, 2.0], TradeoffDirection::LowerIsBetter)
        }
        fn run_static(&self, setting: f64, _seed: u64) -> RunResult {
            RunResult::new("x", false, setting, "t", TradeoffDirection::LowerIsBetter)
        }
        fn run(&self, seed: u64, _spec: &RunSpec, _profiles: &[ProfileSet]) -> RunResult {
            self.run_static(1.0, seed)
        }
        fn profile(&self, _seed: u64) -> ProfileSet {
            ProfileSet::new()
        }
    }

    #[test]
    fn sweep_with_no_satisfying_setting() {
        let sweep = sweep_statics(&Hopeless, 1);
        assert!(sweep.optimal_run().is_none());
        assert!(sweep.nonoptimal_run().is_none());
        assert!(sweep.runs.iter().all(|(_, r)| !r.constraint_ok));
    }

    /// Lower-is-better directionality.
    struct Latency;
    impl Scenario for Latency {
        fn perfconf(&self) -> PerfConf {
            PerfConf::toy("L", vec![1.0, 2.0, 3.0], TradeoffDirection::LowerIsBetter)
        }
        fn run_static(&self, setting: f64, _seed: u64) -> RunResult {
            // latency = 10/setting, all satisfy
            RunResult::new(
                "x",
                true,
                10.0 / setting,
                "lat",
                TradeoffDirection::LowerIsBetter,
            )
        }
        fn run(&self, seed: u64, _spec: &RunSpec, _profiles: &[ProfileSet]) -> RunResult {
            self.run_static(3.0, seed)
        }
        fn profile(&self, _seed: u64) -> ProfileSet {
            ProfileSet::new()
        }
    }

    #[test]
    fn lower_is_better_sweep() {
        let sweep = sweep_statics(&Latency, 1);
        assert_eq!(sweep.optimal_run().unwrap().0, 3.0); // lowest latency
        assert_eq!(sweep.nonoptimal_run().unwrap().0, 1.0);
    }
}
