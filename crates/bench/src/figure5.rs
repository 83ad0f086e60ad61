//! Figure 5: trade-off performance of SmartConf vs. static settings.
//!
//! For every case study, runs SmartConf and four static baselines over
//! the two-phase evaluation workload and reports each policy's speedup
//! relative to the best constraint-satisfying static setting (found by
//! exhaustive sweep, as in §6.3). Policies that fail the constraint are
//! marked with ✗, matching the red crosses in the paper's figure.

use smartconf_dfs::Hd4995;
use smartconf_harness::{compare, Baseline, RunResult, Scenario, TextTable};
use smartconf_kvstore::scenarios::{Ca6059, Hb2149, Hb3813, Hb6728};
use smartconf_mapred::Mr2820;
use smartconf_runtime::FleetExecutor;

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

/// The paper's bar order: the oracle pair, then the issue defaults.
const FIGURE5_BASELINES: [Baseline; 4] = [
    Baseline::Optimal,
    Baseline::Nonoptimal,
    Baseline::PatchDefault,
    Baseline::BuggyDefault,
];

/// Runs Figure 5 for one scenario through the shared comparison harness.
pub fn run_scenario(scenario: &(dyn Scenario + Sync), seed: u64) -> Figure5Row {
    let cmp = compare(scenario, &FIGURE5_BASELINES, seed);
    let optimal = cmp.run_for(Baseline::Optimal).cloned();
    let speedup = |r: &RunResult| -> f64 {
        optimal
            .as_ref()
            .map(|b| r.speedup_over(b))
            .unwrap_or(f64::NAN)
    };

    let mut bars = vec![Bar::new(
        "SmartConf".into(),
        None,
        speedup(&cmp.smart),
        &cmp.smart,
    )];
    for b in &cmp.baselines {
        if let Some(r) = &b.run {
            bars.push(Bar::new(b.baseline.label(), b.setting, speedup(r), r));
        }
    }

    Figure5Row {
        issue: cmp.scenario_id,
        bars,
    }
}

/// Runs the whole figure (all scenarios sharded across the fleet
/// executor) and renders it.
pub fn render(seed: u64) -> String {
    let scenarios = all_scenarios();
    let rows: Vec<Figure5Row> = FleetExecutor::available_parallelism()
        .execute(&scenarios, |_, s| run_scenario(s.as_ref(), seed));

    let mut table = TextTable::new(vec![
        "issue",
        "policy",
        "setting",
        "speedup vs optimal",
        "constraint",
    ]);
    for row in &rows {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smartconf_satisfies_everywhere_and_beats_or_matches_optimal() {
        // The headline claim of the paper's §6.2/§6.3 on our seed.
        let scenarios = all_scenarios();
        for s in &scenarios {
            let row = run_scenario(s.as_ref(), crate::EXPERIMENT_SEED);
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
