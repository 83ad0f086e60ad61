//! Figure 5: trade-off performance of SmartConf vs. static settings.
//!
//! For every case study, runs SmartConf and four static baselines over
//! the two-phase evaluation workload and reports each policy's speedup
//! relative to the best constraint-satisfying static setting (found by
//! exhaustive sweep, as in §6.3). Policies that fail the constraint are
//! marked with ✗, matching the red crosses in the paper's figure. Every
//! bar is one (scenario × seed × policy) fleet item resolved by
//! [`Policy::resolve`], so the figure at more seeds is more items.

use smartconf_dfs::Hd4995;
use smartconf_harness::{
    fleet_work_items, Baseline, FleetExecutor, Policy, RunResult, Scenario, TextTable,
};
use smartconf_kvstore::scenarios::{Ca6059, Hb2149, Hb3813, Hb6728};
use smartconf_mapred::Mr2820;

/// One policy's bar in Figure 5.
#[derive(Debug)]
pub struct Bar {
    /// Policy label, e.g. "Static-Optimal".
    pub label: String,
    /// The static setting (`None` for SmartConf).
    pub setting: Option<f64>,
    /// Trade-off speedup over the best constraint-satisfying static
    /// setting (NaN when the run has no comparable trade-off).
    pub speedup: f64,
    /// Whether the constraint held for the whole run.
    pub constraint_ok: bool,
    /// Simulated time of the run's OOM/OOD crash, if it crashed.
    pub crash_time_us: Option<u64>,
}

impl Bar {
    fn new(label: String, setting: Option<f64>, speedup: f64, run: &RunResult) -> Bar {
        Bar {
            label,
            setting,
            speedup,
            constraint_ok: run.constraint_ok,
            crash_time_us: run.crash_time_us,
        }
    }

    /// The table's constraint cell: `ok`, `X (crash @N s)` for a run
    /// that crashed at simulated second N (to a tenth), else
    /// `X (fails)`.
    pub fn constraint_cell(&self) -> String {
        match (self.constraint_ok, self.crash_time_us) {
            (true, _) => "ok".into(),
            (false, Some(t_us)) => format!("X (crash @{:.1} s)", t_us as f64 / 1e6),
            (false, None) => "X (fails)".into(),
        }
    }
}

/// One scenario's Figure 5 numbers.
#[derive(Debug)]
pub struct Figure5Row {
    /// Issue id, e.g. "HB3813".
    pub issue: String,
    /// One bar per policy, in the paper's bar order.
    pub bars: Vec<Bar>,
}

/// All six scenarios, boxed behind the common trait.
pub fn all_scenarios() -> Vec<Box<dyn Scenario + Send + Sync>> {
    vec![
        Box::new(Ca6059::standard()),
        Box::new(Hb2149::standard()),
        Box::new(Hb3813::standard()),
        Box::new(Hb6728::standard()),
        Box::new(Hd4995::standard()),
        Box::new(Mr2820::standard()),
    ]
}

/// The paper's bar order: SmartConf, the oracle pair, then the issue
/// defaults.
const FIGURE5_POLICIES: [Policy; 5] = [
    Policy::Smart,
    Policy::Static(Baseline::Optimal),
    Policy::Static(Baseline::Nonoptimal),
    Policy::Static(Baseline::PatchDefault),
    Policy::Static(Baseline::BuggyDefault),
];

/// Runs Figure 5 for `scenarios` at `seed`: every (scenario, policy)
/// item on one executor, one row per scenario. A baseline the scenario
/// cannot resolve has no bar.
pub fn run(scenarios: &[Box<dyn Scenario + Send + Sync>], seed: u64) -> Vec<Figure5Row> {
    let items = fleet_work_items(scenarios.len(), &[seed], &FIGURE5_POLICIES);
    let runs = FleetExecutor::available_parallelism().execute(&items, |_, item| {
        let scenario = scenarios[item.scenario].as_ref();
        item.policy.resolve(scenario, item.seed, || {
            scenario.evaluation_profiles(item.seed)
        })
    });
    scenarios
        .iter()
        .zip(runs.chunks(FIGURE5_POLICIES.len()))
        .map(|(scenario, runs)| {
            // FIGURE5_POLICIES[1], Static-Optimal, is the normalising bar.
            let optimal = runs[1].as_ref().map(|(_, r)| r);
            let bars = FIGURE5_POLICIES
                .iter()
                .zip(runs)
                .filter_map(|(policy, resolved)| {
                    let (setting, run) = resolved.as_ref()?;
                    let speedup = optimal.map_or(f64::NAN, |o| run.speedup_over(o));
                    Some(Bar::new(policy.label(), *setting, speedup, run))
                })
                .collect();
            Figure5Row {
                issue: scenario.id().to_string(),
                bars,
            }
        })
        .collect()
}

/// Renders the figure's table.
pub fn render(rows: &[Figure5Row]) -> String {
    let mut table = TextTable::new(vec![
        "issue",
        "policy",
        "setting",
        "speedup vs optimal",
        "constraint",
    ]);
    for row in rows {
        for bar in &row.bars {
            table.row(vec![
                row.issue.clone(),
                bar.label.clone(),
                bar.setting
                    .map(|s| format!("{s}"))
                    .unwrap_or_else(|| "-".into()),
                if bar.speedup.is_nan() {
                    "-".into()
                } else {
                    format!("{:.2}x", bar.speedup)
                },
                bar.constraint_cell(),
            ]);
        }
    }
    format!(
        "Figure 5: trade-off performance, normalized to the best \
         constraint-satisfying static setting\n\n{table}"
    )
}

/// Renders the figure's rows as `results/figure5.csv`.
pub fn csv(rows: &[Figure5Row]) -> String {
    let mut csv = String::from("issue,policy,setting,speedup_vs_optimal,constraint_ok\n");
    for row in rows {
        for bar in &row.bars {
            csv.push_str(&format!(
                "{},{},{},{},{}\n",
                row.issue,
                bar.label,
                bar.setting.map(|v| v.to_string()).unwrap_or_default(),
                if bar.speedup.is_nan() {
                    String::new()
                } else {
                    format!("{:.4}", bar.speedup)
                },
                bar.constraint_ok
            ));
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smartconf_satisfies_everywhere_and_beats_or_matches_optimal() {
        // The headline claim of the paper's §6.2/§6.3 on our seed.
        for row in run(&all_scenarios(), crate::EXPERIMENT_SEED) {
            let smart = &row.bars[0];
            assert_eq!(smart.label, "SmartConf");
            assert!(
                smart.constraint_ok,
                "{}: SmartConf must satisfy its constraint",
                row.issue
            );
            assert!(
                smart.speedup > 0.9,
                "{}: SmartConf speedup {} should be near or above optimal-static",
                row.issue,
                smart.speedup
            );
        }
    }

    #[test]
    fn a_failing_cell_names_its_crash_time_when_the_run_crashed() {
        let bar = |constraint_ok, crash_time_us| Bar {
            label: "Static-BuggyDefault".into(),
            setting: Some(1000.0),
            speedup: 0.5,
            constraint_ok,
            crash_time_us,
        };
        assert_eq!(bar(true, None).constraint_cell(), "ok");
        assert_eq!(bar(false, None).constraint_cell(), "X (fails)");
        assert_eq!(
            bar(false, Some(204_715_399)).constraint_cell(),
            "X (crash @204.7 s)"
        );
        assert_eq!(
            bar(false, Some(20_000_000)).constraint_cell(),
            "X (crash @20.0 s)"
        );
    }
}
