//! The HD4995 scenario wiring: profiling, SmartConf synthesis, and the
//! two-phase evaluation.

use smartconf_core::{
    Controller, ControllerBuilder, Goal, ModelMode, ProfileSet, SmartConfIndirect,
};
use smartconf_harness::{Baseline, RunResult, RunSpec, Scenario, TradeoffDirection};
use smartconf_runtime::{ChaosSpec, Decider, GuardPolicy, ProfileSchedule, Profiler};
use smartconf_simkernel::{SimDuration, SimTime, Simulation};

use crate::namenode::{NamenodeEvent, NamenodeModel};
use crate::namespace::Namespace;
use smartconf_workload::TestDfsIoWorkload;

/// Seed of the deterministic namespace every HD4995 run traverses.
const NS_SEED: u64 = 0xd1f5;

/// The HD4995 scenario.
///
/// * Profiling: single-client TestDFSIO — one `du` at a time, light
///   writers (Table 6).
/// * Evaluation: multi-client — `du` requests keep arriving while
///   writers run; the worst-case writer-block goal is 20 s in phase 1
///   and tightens to 10 s in phase 2.
/// * Trade-off: mean `du` completion latency (lower is better).
#[derive(Debug, Clone)]
pub struct Hd4995 {
    /// Traversal cost per inode.
    per_file: SimDuration,
    /// Re-acquisition overhead per yield.
    yield_overhead: SimDuration,
    /// The single-client profiling workload (Table 6).
    profile_workload: TestDfsIoWorkload,
    /// The multi-client evaluation workload.
    eval_workload: TestDfsIoWorkload,
    /// Worst-case writer-block goals per phase, seconds.
    phase_goals_secs: (f64, f64),
    /// Phase durations.
    phase_secs: (u64, u64),
    /// When set, the controller senses on this period instead of at
    /// quantum edges ([`NamenodeModel::new`] with a sensing period).
    sensing_period_us: Option<u64>,
    profile_settings: Vec<f64>,
}

impl Hd4995 {
    /// The standard setup: 1 M-inode `du`s at 20 µs/inode (20 s of pure
    /// traversal), 2 s yield overhead, `du` requests every ~50 s,
    /// writer-block goals 20 s then 10 s.
    pub fn standard() -> Self {
        Hd4995 {
            per_file: SimDuration::from_micros(20),
            yield_overhead: SimDuration::from_secs(2),
            // One client issuing a du every ~40 s over a 1 M-inode tree,
            // writers at 100 ops/s.
            profile_workload: TestDfsIoWorkload::new(
                1,
                100.0,
                1_000_000,
                SimDuration::from_secs(40),
            ),
            // Several clients: du requests arrive every ~50 s on average
            // and can queue behind each other.
            eval_workload: TestDfsIoWorkload::new(4, 100.0, 1_000_000, SimDuration::from_secs(50)),
            phase_goals_secs: (20.0, 10.0),
            phase_secs: (200, 200),
            sensing_period_us: None,
            profile_settings: vec![100_000.0, 300_000.0, 500_000.0, 700_000.0],
        }
    }

    /// Switches control from quantum-edge sites to a fixed sensing
    /// period (clamped ≥ 1 µs): the limit channel is declared with that
    /// `period_us` and a periodic control tick senses/decides at exactly
    /// that cadence. Quanta between ticks run under the limit in force.
    #[must_use]
    pub fn with_sensing_period(mut self, period_us: u64) -> Self {
        self.sensing_period_us = Some(period_us.max(1));
        self
    }

    /// The workload's aggregate write rate, as a mean inter-arrival gap.
    fn write_gap(w: &TestDfsIoWorkload) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / w.arrivals().mean_rate())
    }

    /// Per-phase worst-case writer-block goals in seconds.
    pub fn phase_goals_secs(&self) -> (f64, f64) {
        self.phase_goals_secs
    }

    /// Profiles the writer-block duration against the traversal limit
    /// under the single-client profiling workload, via the shared
    /// [`Profiler`].
    pub fn collect_profile(&self, seed: u64) -> ProfileSet {
        Profiler::new(Scenario::profile_schedule(self)).collect(seed, |setting, s| {
            let horizon = SimTime::from_secs(120);
            let w = &self.profile_workload;
            let model = NamenodeModel::new(
                self.per_file,
                self.yield_overhead,
                Decider::Static(setting),
                Self::write_gap(w),
                w.du_interval(),
                Namespace::synthesize_shared(w.du_files(), 100, NS_SEED),
                horizon,
                None,
            );
            let mut sim = Simulation::new(model, s);
            sim.schedule_at(SimTime::ZERO, NamenodeEvent::WriteArrival);
            sim.schedule_at(SimTime::ZERO, NamenodeEvent::DuArrival);
            sim.run_until(horizon);
            sim.into_model().block_series
        })
    }

    /// Synthesizes the SmartConf controller for the traversal limit.
    /// [`ModelMode::Adaptive`] seeds an online RLS estimator from the
    /// profile instead of freezing the offline fit.
    ///
    /// # Panics
    ///
    /// Panics if synthesis fails (the standard profile is well-formed:
    /// block duration is essentially affine in the limit).
    pub fn build_controller(&self, profile: &ProfileSet, mode: ModelMode) -> Controller {
        let goal = Goal::new("write_block_secs", self.phase_goals_secs.0);
        ControllerBuilder::new(goal)
            .profile(profile)
            .expect("profiling data supports synthesis")
            .bounds(1_000.0, 5_000_000.0)
            .initial(100_000.0)
            .model_mode(mode)
            .build()
            .expect("controller synthesis")
    }

    /// The guard ladder shared by every chaos and campaign run.
    ///
    /// The smallest profiled limit is the profiled-safe fallback: it
    /// met the block goal at every profiled load level.
    fn guard(&self) -> GuardPolicy {
        GuardPolicy::new().fallback_setting("content-summary.limit", 100_000.0)
    }

    fn run_model(
        &self,
        decider: Decider,
        seed: u64,
        label: &str,
        chaos: Option<ChaosSpec>,
    ) -> RunResult {
        let (p1, p2) = self.phase_secs;
        let horizon = SimTime::from_secs(p1 + p2);
        let w = &self.eval_workload;
        let mut model = NamenodeModel::new(
            self.per_file,
            self.yield_overhead,
            decider,
            Self::write_gap(w),
            w.du_interval(),
            Namespace::synthesize_shared(w.du_files(), 100, NS_SEED),
            horizon,
            self.sensing_period_us,
        );
        if let Some(spec) = chaos {
            model.enable_chaos(spec);
        }
        let first_tick = model.sensing_period();
        let mut sim = Simulation::new(model, seed);
        sim.schedule_at(SimTime::ZERO, NamenodeEvent::WriteArrival);
        sim.schedule_at(SimTime::ZERO, NamenodeEvent::DuArrival);
        sim.schedule_at(SimTime::ZERO, NamenodeEvent::Sample);
        if let Some(period) = first_tick {
            sim.schedule_at(SimTime::ZERO + period, NamenodeEvent::ControlTick);
        }

        // Phase 1 under the loose goal.
        sim.run_until(SimTime::from_secs(p1));
        let phase1_worst = sim.model().run_worst_block_secs;
        // Goal tightens for phase 2 (the paper's changing constraint).
        sim.model_mut().set_goal(self.phase_goals_secs.1);
        sim.run_until(horizon);

        let m = sim.into_model();
        // Soft goals tolerate marginal overshoot (paper §4.3): a block
        // within 2% of the cap counts as meeting it — the controller
        // steers *to* the cap, so measurement noise straddles it.
        const SOFT_TOLERANCE: f64 = 1.02;
        // A quantum admitted under the phase-1 goal can still be holding
        // the lock when the goal tightens; `setGoal` only steers quanta
        // the controller has yet to size (§4.3). Blocks completing within
        // one old-goal quantum (plus the yield) of the boundary are
        // charged to phase 1. Periodic sensing re-sizes quanta at most
        // one sensing period after the change, so the grace widens by
        // one period.
        let grace_secs = self.phase_goals_secs.0 * SOFT_TOLERANCE
            + self.yield_overhead.as_secs_f64()
            + self.sensing_period_us.map_or(0.0, |p| p as f64 / 1e6);
        let phase2_from_us = ((p1 as f64 + grace_secs) * 1e6) as u64;
        let phase2_worst = m
            .block_series
            .points()
            .iter()
            .filter(|p| p.t_us >= phase2_from_us)
            .map(|p| p.value)
            .fold(0.0_f64, f64::max);
        let ok = phase1_worst <= self.phase_goals_secs.0 * SOFT_TOLERANCE
            && phase2_worst <= self.phase_goals_secs.1 * SOFT_TOLERANCE;
        let du_latency_secs = if m.du_latency.is_empty() {
            f64::NAN
        } else {
            m.du_latency.mean() / 1e6
        };
        RunResult::new(
            label,
            ok,
            du_latency_secs,
            "mean du latency (s)",
            TradeoffDirection::LowerIsBetter,
        )
        .with_series(m.block_series)
        .with_series(m.conf_series)
        .with_epochs(m.plane.into_log())
    }
}

impl Default for Hd4995 {
    fn default() -> Self {
        Self::standard()
    }
}

impl Scenario for Hd4995 {
    fn id(&self) -> &str {
        "HD4995"
    }

    fn description(&self) -> &str {
        "content-summary.limit limits #files traversed before du releases the big lock. \
         Too big, write blocked for long; too small, du latency hurts."
    }

    fn config_name(&self) -> &str {
        "content-summary.limit"
    }

    fn candidate_settings(&self) -> Vec<f64> {
        (1..=20).map(|i| (i * 100_000) as f64).collect()
    }

    fn static_setting(&self, choice: Baseline) -> Option<f64> {
        match choice {
            // The hard-coded behaviour traversed everything in one lock
            // acquisition; the patch exposed the knob but kept that
            // default (the issue's complaint).
            Baseline::BuggyDefault => Some(5_000_000.0),
            Baseline::PatchDefault => Some(5_000_000.0),
            _ => None,
        }
    }

    fn tradeoff_direction(&self) -> TradeoffDirection {
        TradeoffDirection::LowerIsBetter
    }

    fn run_static(&self, setting: f64, seed: u64) -> RunResult {
        self.run_model(
            Decider::Static(setting.max(1.0)),
            seed,
            &format!("static-{setting}"),
            None,
        )
    }

    fn run(&self, seed: u64, spec: &RunSpec, profiles: &[ProfileSet]) -> RunResult {
        let controller = self.build_controller(&profiles[0], spec.model);
        let conf = SmartConfIndirect::new("content-summary.limit", controller);
        self.run_model(
            Decider::Deputy(Box::new(conf)),
            seed,
            &spec.label(),
            spec.chaos(seed, self.guard()),
        )
    }

    fn profile_schedule(&self) -> ProfileSchedule {
        // Writer blocks are event-triggered, so profiling takes the
        // first 40 recorded block durations at each traversal limit.
        ProfileSchedule::first_events(self.profile_settings.clone(), 40)
    }

    fn profile(&self, seed: u64) -> ProfileSet {
        self.collect_profile(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartconf_harness::Faults;
    use smartconf_runtime::FaultClass;

    fn quick() -> Hd4995 {
        let mut s = Hd4995::standard();
        s.phase_secs = (100, 100);
        // Denser du stream so both phases see several traversals.
        s.eval_workload = TestDfsIoWorkload::new(4, 100.0, 1_000_000, SimDuration::from_secs(15));
        s
    }

    #[test]
    fn profile_is_affine_in_limit() {
        let p = Hd4995::standard().collect_profile(3);
        assert_eq!(p.num_settings(), 4);
        let fit = p.fit().unwrap();
        // Worst block = limit * 20us => slope 2e-5 s/inode.
        assert!(
            (fit.alpha() - 2e-5).abs() < 5e-6,
            "alpha {} (expected ~2e-5)",
            fit.alpha()
        );
    }

    #[test]
    fn smartconf_meets_both_goals_and_adapts_down() {
        let s = quick();
        let smart = s.run_smartconf(19);
        assert!(smart.constraint_ok, "SmartConf violated a block goal");
        let conf = smart.series("content-summary.limit").unwrap();
        let p1 = conf.value_at(95_000_000).unwrap();
        let p2 = conf.value_at(195_000_000).unwrap();
        assert!(
            p2 < p1,
            "limit should tighten with the goal: phase1 {p1}, phase2 {p2}"
        );
    }

    #[test]
    fn whole_namespace_quantum_violates() {
        let s = quick();
        // Entire 1M-inode du in one quantum: 20 s block > 10 s goal.
        let r = s.run_static(5_000_000.0, 19);
        assert!(!r.constraint_ok);
    }

    #[test]
    fn tiny_limit_satisfies_but_du_is_slow() {
        let s = quick();
        let tiny = s.run_static(100_000.0, 19);
        let moderate = s.run_static(400_000.0, 19);
        assert!(tiny.constraint_ok);
        if moderate.constraint_ok {
            assert!(
                tiny.tradeoff > moderate.tradeoff,
                "tiny du latency {} should exceed moderate {}",
                tiny.tradeoff,
                moderate.tradeoff
            );
        }
    }

    #[test]
    fn chaos_run_keeps_hard_goal_and_replays() {
        let s = quick();
        let spec = RunSpec::new(ModelMode::Frozen, Faults::Class(FaultClass::SensorDropout));
        let profiles = s.evaluation_profiles(19);
        let a = s.run(19, &spec, &profiles);
        assert!(a.constraint_ok, "block goal violated under sensor dropout");
        assert!(a.label.starts_with("Chaos-"));
        let b = s.run(19, &spec, &profiles);
        assert_eq!(a.tradeoff, b.tradeoff, "chaos run must replay exactly");
    }

    #[test]
    fn deterministic() {
        let s = quick();
        let a = s.run_static(300_000.0, 4);
        let b = s.run_static(300_000.0, 4);
        assert_eq!(a.tradeoff, b.tradeoff);
    }

    #[test]
    fn periodic_sensing_meets_goals_on_its_own_cadence() {
        let s = quick().with_sensing_period(5_000_000);
        let smart = s.run_smartconf(19);
        assert!(smart.constraint_ok, "periodic SmartConf violated a goal");
        // 200 s on a 5 s sensing period caps control at 40 epochs; ticks
        // with no fresh block evidence decline to decide, so the count
        // lands at or under the cap — and on the period grid.
        let epochs: Vec<_> = smart.epochs.events().collect();
        assert!(
            !epochs.is_empty() && epochs.len() <= 40,
            "expected ≤ 40 periodic epochs, got {}",
            epochs.len()
        );
        assert!(epochs.iter().all(|e| e.t_us % 5_000_000 == 0));
    }

    #[test]
    fn periodic_sensing_is_deterministic() {
        let s = quick().with_sensing_period(5_000_000);
        let a = s.run_smartconf(7);
        let b = s.run_smartconf(7);
        assert_eq!(a.tradeoff, b.tradeoff);
    }

    #[test]
    fn adaptive_relearn_closes_seed_43_plant_restart_gap() {
        // Seed 43's HD4995 PlantRestart chaos run violates the hard
        // latency goal under the frozen model (the restart resets the
        // controller to its initial setting and logs REPROFILE, but
        // nothing re-profiles, so the stale profile stays); the
        // adaptive estimator relearns in place through the restart and
        // holds the goal. Both halves are pinned so the gap's closure
        // doesn't silently regress (and so the frozen gap's eventual
        // fix shows up here too).
        let s = Hd4995::standard();
        let profiles = s.evaluation_profiles(43);
        let frozen = s.run(
            43,
            &RunSpec::new(ModelMode::Frozen, Faults::Class(FaultClass::PlantRestart)),
            &profiles,
        );
        assert!(
            !frozen.constraint_ok,
            "frozen seed-43 PlantRestart gap closed; update this pin and ROADMAP.md"
        );
        let adaptive = s.run(
            43,
            &RunSpec::new(ModelMode::Adaptive, Faults::Class(FaultClass::PlantRestart)),
            &profiles,
        );
        assert!(
            adaptive.constraint_ok,
            "adaptive in-place relearning regressed the seed-43 PlantRestart recovery"
        );
    }

    #[test]
    fn scenario_metadata() {
        let s = Hd4995::standard();
        assert_eq!(s.id(), "HD4995");
        assert_eq!(s.phase_goals_secs(), (20.0, 10.0));
        assert_eq!(s.tradeoff_direction(), TradeoffDirection::LowerIsBetter);
        assert_eq!(
            s.static_setting(Baseline::BuggyDefault),
            s.static_setting(Baseline::PatchDefault),
        );
    }
}
