//! Figure 6: SmartConf vs. the static optimal on HB3813.
//!
//! Reproduces the three panels of the paper's case study: (a) cumulative
//! throughput, (b) used memory against the hard constraint and the
//! automatically chosen virtual goal, (c) the `max.queue.size` trace.
//! The workload shifts from 1 MB to 2 MB requests at 200 s.

use smartconf_core::ModelMode;
use smartconf_harness::{AsciiChart, Baseline, Policy, RunResult, Scenario};
use smartconf_kvstore::scenarios::Hb3813;

/// The data behind the three panels.
#[derive(Debug)]
pub struct Figure6 {
    /// SmartConf's run.
    pub smart: RunResult,
    /// The best static setting found by sweeping, and its run.
    pub static_optimal: (f64, RunResult),
    /// The virtual goal SmartConf derived from profiling (MB).
    pub virtual_goal_mb: f64,
    /// The hard constraint (MB).
    pub goal_mb: f64,
}

/// Runs the experiment.
pub fn run(seed: u64) -> Figure6 {
    let scenario = Hb3813::standard();
    let profiles = scenario.evaluation_profiles(seed);
    let virtual_goal_mb = scenario
        .perfconf()
        .controller(&profiles[0], ModelMode::Frozen)
        .effective_target();

    let (_, smart) = Policy::Smart
        .resolve(&scenario, seed, || &profiles[..])
        .expect("a controlled policy always runs");
    let (setting, optimal) = Policy::Static(Baseline::Optimal)
        .resolve(&scenario, seed, || &profiles[..])
        .expect("some static setting satisfies the constraint");

    Figure6 {
        smart,
        static_optimal: (setting.expect("a static baseline has a setting"), optimal),
        virtual_goal_mb,
        goal_mb: scenario.heap_goal_mb(),
    }
}

/// Renders the figure as aligned time-series columns (10 s grid).
pub fn render(f: &Figure6) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 6: SmartConf vs static optimal ({} items) on HB3813\n",
        f.static_optimal.0
    ));
    out.push_str(&format!(
        "hard constraint: {} MB; SmartConf virtual goal: {:.0} MB\n",
        f.goal_mb, f.virtual_goal_mb
    ));
    out.push_str(&format!(
        "throughput: SmartConf {:.1} ops/s vs static {:.1} ops/s ({:.2}x)\n\n",
        f.smart.tradeoff,
        f.static_optimal.1.tradeoff,
        f.smart.speedup_over(&f.static_optimal.1)
    ));
    if let (Some(smart_mem), Some(static_mem)) = (
        f.smart.series("used_memory_mb"),
        f.static_optimal.1.series("used_memory_mb"),
    ) {
        out.push_str("used memory: s = SmartConf, o = static optimal\n");
        out.push_str(
            &AsciiChart::new(72, 14)
                .with_guide(f.goal_mb, "hard constraint")
                .with_guide(f.virtual_goal_mb, "virtual goal")
                .render(&[(static_mem, 'o'), (smart_mem, 's')]),
        );
        out.push('\n');
    }
    if let (Some(smart_cum), Some(static_cum)) = (
        f.smart.series("completed_ops_cumulative"),
        f.static_optimal.1.series("completed_ops_cumulative"),
    ) {
        out.push_str("cumulative completed operations (Figure 6a): s = SmartConf, o = static\n");
        out.push_str(&AsciiChart::new(72, 10).render(&[(static_cum, 'o'), (smart_cum, 's')]));
        out.push('\n');
    }
    out.push_str("t(s)  smart_thr  static_thr  smart_mem  static_mem  smart_bound  smart_qlen\n");
    let series = |r: &RunResult, name: &str, t: u64| -> String {
        r.series(name)
            .and_then(|s| s.value_at(t))
            .map(|v| format!("{v:9.1}"))
            .unwrap_or_else(|| format!("{:>9}", "-"))
    };
    for ts in (0..=400).step_by(10) {
        let t = ts * 1_000_000;
        out.push_str(&format!(
            "{ts:>4}  {}  {}  {}  {}  {}  {}\n",
            series(&f.smart, "throughput_ops_per_sec", t),
            series(&f.static_optimal.1, "throughput_ops_per_sec", t),
            series(&f.smart, "used_memory_mb", t),
            series(&f.static_optimal.1, "used_memory_mb", t),
            series(&f.smart, "max.queue.size", t),
            series(&f.smart, "queue.size", t),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_case_study_shape() {
        let f = run(crate::EXPERIMENT_SEED);
        // SmartConf satisfies the hard constraint...
        assert!(f.smart.constraint_ok);
        // ...its virtual goal sits below the real constraint...
        assert!(f.virtual_goal_mb < f.goal_mb);
        // ...and it beats the best static setting on throughput
        // (the paper reports 1.36x; shape, not exact factor).
        let speedup = f.smart.speedup_over(&f.static_optimal.1);
        assert!(speedup > 1.05, "speedup {speedup}");
        // The bound adapts down after the 200 s workload shift: queue
        // sits lower in phase 2 than in phase 1.
        let q = f.smart.series("queue.size").unwrap();
        let p1 = q.max_in(100_000_000, 200_000_000).unwrap();
        let p2 = q.max_in(300_000_000, 400_000_000).unwrap();
        assert!(
            p2 < p1 * 0.8,
            "phase-2 queue ({p2}) should sit well below phase 1 ({p1})"
        );
    }
}
