//! The shared "SmartConf vs named static baselines" comparison.
//!
//! Every scenario's evaluation boils down to the same shape: run
//! SmartConf, run a handful of named static baselines (the buggy
//! default, the patch default, the swept oracle), and assert that
//! SmartConf satisfies the constraint while staying competitive on the
//! trade-off. This module owns that shape once, so scenario crates and
//! the bench drivers stop re-implementing it.

use smartconf_runtime::{Baseline, FleetExecutor};

#[cfg(test)]
use crate::TradeoffDirection;
use crate::{sweep_statics, RunResult, Scenario};

/// One named baseline's resolved run within a [`Comparison`].
#[derive(Debug)]
pub struct BaselineRun {
    /// Which baseline this is.
    pub baseline: Baseline,
    /// The static setting it resolved to, when one exists. `Optimal`
    /// and `Nonoptimal` stay `None` if no candidate satisfied the
    /// constraint during the sweep.
    pub setting: Option<f64>,
    /// The run under that setting (`None` when the baseline could not
    /// be resolved).
    pub run: Option<RunResult>,
}

/// SmartConf and a set of named static baselines, run through one code
/// path at one seed.
#[derive(Debug)]
pub struct Comparison {
    /// Scenario identifier, e.g. `"HD4995"`.
    pub scenario_id: String,
    /// The SmartConf run.
    pub smart: RunResult,
    /// The baseline runs, in request order.
    pub baselines: Vec<BaselineRun>,
}

impl Comparison {
    /// The run of a named baseline, when it resolved.
    pub fn run_for(&self, baseline: Baseline) -> Option<&RunResult> {
        self.baselines
            .iter()
            .find(|b| b.baseline == baseline)
            .and_then(|b| b.run.as_ref())
    }

    /// SmartConf's Figure-5 speedup over a named baseline.
    pub fn speedup_over(&self, baseline: Baseline) -> Option<f64> {
        self.run_for(baseline).map(|r| self.smart.speedup_over(r))
    }

    /// Panics with a scenario-labelled message unless SmartConf
    /// satisfied its constraint while every resolved baseline in
    /// `expected_failing` violated its own. This is the shared
    /// "SmartConf fixes what the defaults break" assertion.
    pub fn assert_smart_fixes_defaults(&self, expected_failing: &[Baseline]) {
        assert!(
            self.smart.constraint_ok,
            "{}: SmartConf violated its constraint (crash at {:?})",
            self.scenario_id, self.smart.crash_time_us
        );
        for &b in expected_failing {
            if let Some(run) = self.run_for(b) {
                assert!(
                    !run.constraint_ok,
                    "{}: expected {} to violate the constraint, but it held",
                    self.scenario_id,
                    b.label()
                );
            }
        }
    }
}

/// Runs SmartConf and the named `baselines` of `scenario` at one seed.
///
/// `Fixed` and the issue defaults resolve directly through
/// [`Scenario::static_setting`]; `Optimal`/`Nonoptimal` trigger (at most
/// one) exhaustive static sweep, shared between them. The SmartConf run
/// and every fresh baseline run then execute as independent shards on a
/// machine-sized [`FleetExecutor`] — each run is a pure function of
/// `(scenario, setting, seed)`, so the parallelism does not change the
/// result.
pub fn compare(
    scenario: &(impl Scenario + Sync + ?Sized),
    baselines: &[Baseline],
    seed: u64,
) -> Comparison {
    let needs_sweep = baselines
        .iter()
        .any(|b| matches!(b, Baseline::Optimal | Baseline::Nonoptimal));
    let sweep = needs_sweep.then(|| sweep_statics(scenario, seed));

    /// A run still to execute: the SmartConf shard or one fresh static
    /// baseline shard (sweep-resolved baselines reuse their sweep run).
    #[derive(Clone, Copy)]
    enum Job {
        Smart,
        Static { baseline_idx: usize, setting: f64 },
    }

    let mut entries: Vec<BaselineRun> = Vec::new();
    let mut jobs = vec![Job::Smart];
    for (i, &baseline) in baselines.iter().enumerate() {
        let (setting, run) = match baseline {
            Baseline::Optimal | Baseline::Nonoptimal => {
                let found = sweep.as_ref().and_then(|sw| {
                    if baseline == Baseline::Optimal {
                        sw.optimal_run()
                    } else {
                        sw.nonoptimal_run()
                    }
                });
                match found {
                    Some((s, r)) => {
                        let mut r = r.clone();
                        r.label = baseline.label();
                        (Some(s), Some(r))
                    }
                    None => (None, None),
                }
            }
            _ => {
                let setting = baseline
                    .fixed_setting()
                    .or_else(|| scenario.static_setting(baseline));
                if let Some(s) = setting {
                    jobs.push(Job::Static {
                        baseline_idx: i,
                        setting: s,
                    });
                }
                (setting, None)
            }
        };
        entries.push(BaselineRun {
            baseline,
            setting,
            run,
        });
    }

    let results = FleetExecutor::available_parallelism().execute(&jobs, |_, job| match *job {
        Job::Smart => scenario.run_smartconf(seed),
        Job::Static {
            baseline_idx,
            setting,
        } => {
            let mut r = scenario.run_static(setting, seed);
            r.label = baselines[baseline_idx].label();
            r
        }
    });
    let mut results = results.into_iter();
    let smart = results.next().expect("the SmartConf job always runs");
    for (job, run) in jobs[1..].iter().zip(results) {
        if let Job::Static { baseline_idx, .. } = *job {
            entries[baseline_idx].run = Some(run);
        }
    }
    Comparison {
        scenario_id: scenario.id().to_string(),
        smart,
        baselines: entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunSpec;
    use smartconf_core::ProfileSet;

    /// Constraint: setting <= 100. Trade-off: setting, higher better.
    struct Toy;
    impl Scenario for Toy {
        fn id(&self) -> &str {
            "TOY"
        }
        fn description(&self) -> &str {
            "toy"
        }
        fn config_name(&self) -> &str {
            "c"
        }
        fn candidate_settings(&self) -> Vec<f64> {
            vec![20.0, 60.0, 100.0, 140.0]
        }
        fn static_setting(&self, choice: Baseline) -> Option<f64> {
            match choice {
                Baseline::BuggyDefault => Some(140.0),
                Baseline::PatchDefault => Some(60.0),
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
                "t",
                TradeoffDirection::HigherIsBetter,
            )
        }
        fn run(&self, seed: u64, _spec: &RunSpec, _profiles: &[ProfileSet]) -> RunResult {
            let mut r = self.run_static(95.0, seed);
            r.label = "SmartConf".into();
            r
        }
        fn profile(&self, _seed: u64) -> ProfileSet {
            ProfileSet::new()
        }
    }

    #[test]
    fn resolves_defaults_oracle_and_fixed() {
        let c = compare(
            &Toy,
            &[
                Baseline::BuggyDefault,
                Baseline::PatchDefault,
                Baseline::Optimal,
                Baseline::Nonoptimal,
                Baseline::Fixed(80.0),
            ],
            1,
        );
        assert_eq!(c.scenario_id, "TOY");
        assert_eq!(c.smart.label, "SmartConf");
        assert!(!c.run_for(Baseline::BuggyDefault).unwrap().constraint_ok);
        assert!(c.run_for(Baseline::PatchDefault).unwrap().constraint_ok);
        // The sweep resolves the oracle pair to the best/worst satisfiers.
        let optimal = c
            .baselines
            .iter()
            .find(|b| b.baseline == Baseline::Optimal)
            .unwrap();
        assert_eq!(optimal.setting, Some(100.0));
        let nonopt = c
            .baselines
            .iter()
            .find(|b| b.baseline == Baseline::Nonoptimal)
            .unwrap();
        assert_eq!(nonopt.setting, Some(20.0));
        assert_eq!(c.run_for(Baseline::Fixed(80.0)).unwrap().tradeoff, 80.0);
        // Labels come from the baseline, not the raw static run.
        assert_eq!(
            c.run_for(Baseline::Optimal).unwrap().label,
            "Static-Optimal"
        );
    }

    #[test]
    fn competitiveness_and_fix_assertions() {
        let c = compare(&Toy, &[Baseline::BuggyDefault, Baseline::Optimal], 1);
        // 95 vs optimal 100.
        assert_eq!(c.speedup_over(Baseline::Optimal), Some(0.95));
        c.assert_smart_fixes_defaults(&[Baseline::BuggyDefault]);
    }

    #[test]
    #[should_panic(expected = "expected Static-PatchDefault to violate")]
    fn fix_assertion_rejects_satisfying_baseline() {
        let c = compare(&Toy, &[Baseline::PatchDefault], 1);
        c.assert_smart_fixes_defaults(&[Baseline::PatchDefault]);
    }

    #[test]
    fn unresolved_baseline_is_competitive_by_default() {
        // `Fixed` settings not in the scenario still run; a baseline the
        // scenario cannot resolve yields no run and concedes nothing.
        struct NoDefaults;
        impl Scenario for NoDefaults {
            fn id(&self) -> &str {
                "N"
            }
            fn description(&self) -> &str {
                "n"
            }
            fn config_name(&self) -> &str {
                "c"
            }
            fn candidate_settings(&self) -> Vec<f64> {
                vec![500.0]
            }
            fn static_setting(&self, _c: Baseline) -> Option<f64> {
                None
            }
            fn tradeoff_direction(&self) -> TradeoffDirection {
                TradeoffDirection::HigherIsBetter
            }
            fn run_static(&self, setting: f64, _seed: u64) -> RunResult {
                RunResult::new("x", false, setting, "t", TradeoffDirection::HigherIsBetter)
            }
            fn run(&self, _seed: u64, _spec: &RunSpec, _profiles: &[ProfileSet]) -> RunResult {
                RunResult::new(
                    "SmartConf",
                    true,
                    1.0,
                    "t",
                    TradeoffDirection::HigherIsBetter,
                )
            }
            fn profile(&self, _seed: u64) -> ProfileSet {
                ProfileSet::new()
            }
        }
        let c = compare(&NoDefaults, &[Baseline::BuggyDefault, Baseline::Optimal], 1);
        assert!(c.run_for(Baseline::BuggyDefault).is_none());
        assert!(c.run_for(Baseline::Optimal).is_none());
        assert_eq!(c.speedup_over(Baseline::Optimal), None);
        c.assert_smart_fixes_defaults(&[Baseline::BuggyDefault]);
    }
}
