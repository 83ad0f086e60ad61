//! The adaptive-model comparison bench: goal-tracking error and
//! convergence epochs for the online (RLS) estimator against the frozen
//! offline profile and a classical proportional baseline, across every
//! fault class.
//!
//! The testbed is a single-channel plane over a *drifting* linear plant:
//! the true gain steps from [`GAIN_BEFORE`] to [`GAIN_AFTER`] at
//! [`DRIFT_EPOCH`], while every controller was synthesized against the
//! pre-drift gain. After the drift the frozen model is wrong by the
//! ratio `GAIN_AFTER / GAIN_BEFORE` — past the stability edge of the
//! frozen integral loop at this pole, so it limit-cycles — the
//! adaptive model relearns the gain in place and restabilizes, and the
//! proportional baseline (which never integrates the error out) keeps
//! a steady-state offset. Each [`FaultClass`] is
//! injected on top through the standard [`ChaosSpec`], guards armed the
//! same way the scenario chaos runs arm them.
//!
//! Determinism: the plant is noiseless (all variation comes from the
//! seeded fault plane), so the whole table replays exactly from the
//! seed baked into `run_matrix`.
//!
//! Reading the table: on the clean row the adaptive estimator wins on
//! both columns (it relearns the drifted gain; the frozen loop
//! limit-cycles). Under fault injection the model-doubt net parks the
//! channel on the conservative fallback whenever estimator confidence
//! collapses; with the default admitted-work shedding clamping a
//! degraded channel to the safe side of that fallback, the adaptive
//! rows beat the frozen model on *both* columns — lower `mean|err|`
//! everywhere, and violations driven to ≤1 under `SensorDropout`,
//! `StaleRepeat`, `ActuatorSaturation`, and `PlantRestart`. The
//! dwell on the fallback still costs tracking error relative to a
//! fault-free run (the fallback sits far below the goal); both columns
//! are reported so that cost stays visible instead of averaged away.

use smartconf_core::{ControlLaw, Controller, ControllerBuilder, Goal, SmartConf};
use smartconf_runtime::{
    ChannelId, ChaosSpec, ControlPlane, Decider, EventPlane, FaultClass, GuardPolicy, Plant, Sensed,
};

/// True plant gain the controllers were synthesized against.
pub const GAIN_BEFORE: f64 = 2.0;

/// True plant gain after the mid-run drift. The ratio 5 is past the
/// frozen loop's stability edge at the bench pole 0.5 (`(1 − p) · Δ ≥ 2` needs
/// `Δ ≥ 4`), so the frozen integral controller limit-cycles after the
/// drift; the adaptive estimator relearns the gain and restabilizes.
pub const GAIN_AFTER: f64 = 10.0;

/// Epoch at which the plant's gain drifts.
pub const DRIFT_EPOCH: u64 = 120;

/// Decide epochs per cell of the matrix.
pub const EPOCHS: u64 = 360;

/// The goal the single metric is held below.
const TARGET: f64 = 500.0;

/// Plant intercept (constant load offset).
const OFFSET: f64 = 40.0;

/// Regular pole shared by the integral strategies.
const POLE: f64 = 0.5;

/// Setting the guards hold during fallback. Like the scenario guards'
/// profiled-safe settings this is conservative, not optimal: the metric
/// stays well under [`TARGET`] at either plant gain (80 before the
/// drift, 240 after), trading tracking error for safety.
const FALLBACK: f64 = 20.0;

/// The three strategies the matrix compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Frozen offline profile, integral law (the paper's controller).
    StaticProfile,
    /// Online RLS estimator, integral law (this repo's extension).
    Adaptive,
    /// Frozen profile, proportional law (classical weak baseline).
    Proportional,
}

impl Strategy {
    /// All strategies, in table-column order.
    pub const ALL: [Strategy; 3] = [
        Strategy::StaticProfile,
        Strategy::Adaptive,
        Strategy::Proportional,
    ];

    /// Short column label.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::StaticProfile => "static-profile",
            Strategy::Adaptive => "adaptive",
            Strategy::Proportional => "proportional",
        }
    }
}

/// One cell of the comparison matrix.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Fault class injected, `None` for the clean row.
    pub class: Option<FaultClass>,
    /// Strategy under test.
    pub strategy: Strategy,
    /// Mean absolute tracking error over the finite-error epochs.
    pub mean_abs_error: f64,
    /// Epochs until the error last left the ±2% settling band.
    pub settled_after: u64,
    /// Epochs whose measured metric exceeded its target.
    pub violations: u64,
    /// Epochs on which at least one guard activated.
    pub guard_activations: u64,
}

/// The drifting linear plant: `s = gain(k) · c + OFFSET`, where the
/// gain steps at [`DRIFT_EPOCH`]. Noiseless — disturbances come from
/// the fault plane.
struct DriftingPlant {
    setting: f64,
    epoch: u64,
}

impl Plant for DriftingPlant {
    fn now_us(&self) -> u64 {
        0
    }
    fn sense(&mut self, _channel: ChannelId) -> Sensed {
        let gain = if self.epoch < DRIFT_EPOCH {
            GAIN_BEFORE
        } else {
            GAIN_AFTER
        };
        self.epoch += 1;
        Sensed::direct(gain * self.setting + OFFSET)
    }
    fn apply(&mut self, _channel: ChannelId, setting: f64) {
        self.setting = setting;
    }
}

fn strategy_controller(strategy: Strategy) -> Controller {
    let goal = Goal::new("metric", TARGET);
    let builder = ControllerBuilder::new(goal)
        .alpha(GAIN_BEFORE)
        .pole(POLE)
        .bounds(0.0, 2_000.0)
        .initial(10.0);
    let mut controller = match strategy {
        Strategy::Adaptive => builder.adaptive(),
        _ => builder,
    }
    .build()
    .expect("controller synthesis");
    if strategy == Strategy::Proportional {
        controller.set_control_law(ControlLaw::Proportional);
    }
    controller
}

/// Runs one cell: `strategy` against the drifting plant with `class`
/// injected (or clean when `None`), returning the tracking aggregates.
pub fn run_cell(strategy: Strategy, class: Option<FaultClass>, seed: u64) -> CellOutcome {
    let controller = strategy_controller(strategy);
    let conf = SmartConf::new("bench.adaptive", controller);
    let (mut plane, chan) = ControlPlane::single("bench.adaptive", Decider::Direct(Box::new(conf)));
    if let Some(class) = class {
        let guard = GuardPolicy::new().fallback_setting("bench.adaptive", FALLBACK);
        plane.enable_chaos(ChaosSpec::new(seed, class.standard_plan(), guard));
    }
    let plant = DriftingPlant {
        setting: plane.setting(chan),
        epoch: 0,
    };
    // One epoch per default 1 s period. The bench does not re-profile;
    // the plant keeps the no-op restart/shed hooks, so a restarted plant
    // keeps its (possibly drifted) gain and the frozen model its stale
    // one — exactly the gap the adaptive path closes in place.
    let mut events = EventPlane::new(plane, plant);
    events.run_until_us(EPOCHS * 1_000_000);
    let log = events.into_log();
    let summary = log.summary("bench.adaptive").expect("channel logged");
    let (mut abs_sum, mut n) = (0.0, 0u64);
    for e in log.events_for("bench.adaptive") {
        if e.error.is_finite() {
            abs_sum += e.error.abs();
            n += 1;
        }
    }
    CellOutcome {
        class,
        strategy,
        mean_abs_error: if n == 0 { 0.0 } else { abs_sum / n as f64 },
        settled_after: summary.settled_after,
        violations: summary.violations,
        guard_activations: summary.guard_activations,
    }
}

/// Runs the full matrix: the clean row plus one row per fault class,
/// three strategies each, at a fixed seed so the artifact is
/// reproducible byte for byte.
pub fn run_matrix(seed: u64) -> Vec<CellOutcome> {
    let mut rows = Vec::new();
    for class in std::iter::once(None).chain(FaultClass::ALL.iter().copied().map(Some)) {
        for strategy in Strategy::ALL {
            rows.push(run_cell(strategy, class, seed));
        }
    }
    rows
}

/// Renders the human-readable comparison table.
pub fn render_table(rows: &[CellOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:<15} {:>14} {:>13} {:>10} {:>7}\n",
        "fault class", "strategy", "mean|err|", "settled@", "violations", "guards"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:<15} {:>14.3} {:>13} {:>10} {:>7}\n",
            r.class.map_or("clean", |c| c.label()),
            r.strategy.label(),
            r.mean_abs_error,
            r.settled_after,
            r.violations,
            r.guard_activations
        ));
    }
    out
}

/// Renders the `BENCH_adaptive.json` artifact.
pub fn adaptive_json(seed: u64, rows: &[CellOutcome]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"epochs\": {EPOCHS},\n"));
    out.push_str(&format!("  \"drift_epoch\": {DRIFT_EPOCH},\n"));
    out.push_str(&format!(
        "  \"gain_drift\": [{GAIN_BEFORE}, {GAIN_AFTER}],\n"
    ));
    out.push_str("  \"cells\": [\n");
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"class\": \"{}\", \"strategy\": \"{}\", \"mean_abs_error\": {:.4}, \
                 \"settled_after\": {}, \"violations\": {}, \"guard_activations\": {}}}",
                r.class.map_or("clean", |c| c.label()),
                r.strategy.label(),
                r.mean_abs_error,
                r.settled_after,
                r.violations,
                r.guard_activations
            )
        })
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_class_and_strategy() {
        let rows = run_matrix(7);
        assert_eq!(
            rows.len(),
            (1 + FaultClass::ALL.len()) * Strategy::ALL.len()
        );
        // Every row triple holds the (static, adaptive, proportional)
        // column order.
        for triple in rows.chunks(3) {
            assert_eq!(triple[0].strategy, Strategy::StaticProfile);
            assert_eq!(triple[1].strategy, Strategy::Adaptive);
            assert_eq!(triple[2].strategy, Strategy::Proportional);
        }
    }

    #[test]
    fn clean_row_orders_the_strategies() {
        // On the clean drifting plant the adaptive controller must beat
        // the frozen profile on tracking error (it relearns the drifted
        // gain), and both integral laws must beat the proportional
        // baseline (which cannot remove its steady-state offset).
        let adaptive = run_cell(Strategy::Adaptive, None, 7);
        let frozen = run_cell(Strategy::StaticProfile, None, 7);
        let proportional = run_cell(Strategy::Proportional, None, 7);
        assert!(
            adaptive.mean_abs_error < frozen.mean_abs_error,
            "adaptive {:.3} !< frozen {:.3}",
            adaptive.mean_abs_error,
            frozen.mean_abs_error
        );
        assert!(
            frozen.mean_abs_error < proportional.mean_abs_error,
            "frozen {:.3} !< proportional {:.3}",
            frozen.mean_abs_error,
            proportional.mean_abs_error
        );
    }

    #[test]
    fn cells_replay_exactly_from_the_seed() {
        let a = run_cell(Strategy::Adaptive, Some(FaultClass::Corruption), 11);
        let b = run_cell(Strategy::Adaptive, Some(FaultClass::Corruption), 11);
        assert_eq!(a.mean_abs_error.to_bits(), b.mean_abs_error.to_bits());
        assert_eq!(a.settled_after, b.settled_after);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn json_and_table_are_well_formed() {
        let rows = vec![CellOutcome {
            class: None,
            strategy: Strategy::Adaptive,
            mean_abs_error: 1.25,
            settled_after: 130,
            violations: 2,
            guard_activations: 0,
        }];
        let json = adaptive_json(42, &rows);
        assert!(json.contains("\"class\": \"clean\""));
        assert!(json.contains("\"strategy\": \"adaptive\""));
        assert!(json.contains("\"mean_abs_error\": 1.2500"));
        let table = render_table(&rows);
        assert!(table.contains("adaptive"));
        assert!(table.contains("clean"));
    }
}
