//! HB2149: `global.memstore.lowerLimit` — how deep a blocking memstore
//! flush drains.
//!
//! "global.memstore.lowerLimit decides how much memstore data is flushed.
//! Too big, write blocked for too long; too small, write blocked too
//! often." (Table 6.) When the memstore hits its fixed upper watermark,
//! HBase blocks writes and flushes down to the lower watermark. Each
//! flush pays a fixed setup overhead, so *deep* flushes (low
//! `lowerLimit`) block for a long time but happen rarely — better
//! aggregate throughput, worse worst-case write latency. The user's goal
//! is a cap on the worst-case write-block duration; the goal *tightens*
//! from 10 s to 5 s between phases (§6.1: "either the workload or the
//! performance goal changes"), which SmartConf follows via `setGoal`.
//!
//! This is a **conditional, direct, soft** PerfConf (`Y-Y-N`): the
//! controller acts on the configuration itself and is only invoked when
//! a blocking flush actually happens.

use smartconf_core::{Controller, ControllerBuilder, Goal, ModelMode, ProfileSet, SmartConf};
use smartconf_harness::{Baseline, RunResult, RunSpec, Scenario, TradeoffDirection};
use smartconf_metrics::TimeSeries;
use smartconf_runtime::{
    ChannelId, ChaosSpec, ControlPlane, Decider, GuardPolicy, ProfileSchedule, Profiler,
};
use smartconf_simkernel::{Context, Model, SimDuration, SimTime, Simulation};
use smartconf_workload::{PhasedWorkload, YcsbWorkload};

use crate::Memstore;

const MB: u64 = 1_000_000;
const SAMPLE_TICK: SimDuration = SimDuration::from_millis(500);

/// The HB2149 scenario.
#[derive(Debug, Clone)]
pub struct Hb2149 {
    /// Fixed blocking watermark in bytes.
    upper: u64,
    /// Disk drain rate during a blocking flush, bytes/second.
    drain_rate: f64,
    /// Fixed per-flush setup overhead.
    flush_overhead_secs: f64,
    /// Worst-case block-duration goal per phase, seconds.
    phase_goals_secs: (f64, f64),
    eval: PhasedWorkload<YcsbWorkload>,
    profile_workload: YcsbWorkload,
    /// Profiled lowerLimit settings in MB.
    profile_settings: Vec<f64>,
}

impl Hb2149 {
    /// Standard setup: YCSB `1.0W, 1MB`; worst-case block goal 10 s in
    /// phase 1, tightened to 5 s in phase 2 (Table 6).
    pub fn standard() -> Self {
        Hb2149 {
            upper: 200 * MB,
            drain_rate: 25.0 * MB as f64,
            flush_overhead_secs: 2.0,
            phase_goals_secs: (10.0, 5.0),
            eval: PhasedWorkload::new(vec![
                (SimDuration::from_secs(200), Self::workload()),
                (SimDuration::from_secs(200), Self::workload()),
            ]),
            profile_workload: Self::workload(),
            profile_settings: vec![40.0, 80.0, 120.0, 160.0],
        }
    }

    fn workload() -> YcsbWorkload {
        YcsbWorkload::paper("1.0W", 1.0, 0.0, 40.0)
    }

    /// The per-phase worst-case block-duration goals in seconds.
    pub fn phase_goals_secs(&self) -> (f64, f64) {
        self.phase_goals_secs
    }

    /// Profiles the block duration against the lowerLimit setting: the
    /// controller is invoked at flush events (conditional PerfConf), so
    /// that is also where profiling measures.
    pub fn collect_profile(&self, seed: u64) -> ProfileSet {
        Profiler::new(Scenario::profile_schedule(self)).collect(seed, |setting_mb, s| {
            let workload =
                PhasedWorkload::single(SimDuration::from_secs(120), self.profile_workload.clone());
            self.run_model(
                Decider::Static(setting_mb),
                &workload,
                s,
                "profiling",
                (self.phase_goals_secs.0, self.phase_goals_secs.0),
                None,
            )
            .series("block_duration_secs")
            .expect("profiling run records block durations")
            .clone()
        })
    }

    /// Synthesizes the SmartConf controller: a direct controller on the
    /// lowerLimit whose metric is the observed block duration.
    ///
    /// # Panics
    ///
    /// Panics if synthesis fails (the standard profile is well-formed —
    /// block duration is exactly affine in the setting).
    ///
    /// [`ModelMode::Adaptive`] seeds an online RLS estimator from the
    /// profile instead of freezing the offline fit.
    pub fn build_controller(&self, profile: &ProfileSet, mode: ModelMode) -> Controller {
        let goal = Goal::new("write_block_secs", self.phase_goals_secs.0);
        ControllerBuilder::new(goal)
            .profile(profile)
            .expect("profiling data supports synthesis")
            .bounds(0.0, self.upper as f64 / MB as f64)
            .initial(self.upper as f64 / MB as f64 * 0.7)
            .model_mode(mode)
            .build()
            .expect("controller synthesis")
    }

    /// The guard ladder shared by every chaos and campaign run.
    ///
    /// Profiled-safe fallback: the patched shallow lowerLimit keeps
    /// every blocking flush short at the cost of flushing often. While
    /// the guard holds a degraded channel, the in-force lowerLimit is
    /// clamped to the shallow side of that fallback and the blocking
    /// flush drains only to it: the store content above it is the
    /// admitted work the guard sheds.
    fn guard(&self) -> GuardPolicy {
        GuardPolicy::new().fallback_setting("memstore.lowerLimit_mb", 175.0)
    }

    fn run_model(
        &self,
        decider: Decider,
        workload: &PhasedWorkload<YcsbWorkload>,
        seed: u64,
        label: &str,
        goals: (f64, f64),
        chaos: Option<ChaosSpec>,
    ) -> RunResult {
        let horizon = SimTime::ZERO + workload.total_duration();
        let goal_change_at = if workload.len() > 1 {
            workload.boundaries().first().copied()
        } else {
            None
        };
        // Declared sensing period (metadata for event-driven embeddings):
        // HB2149 is a *conditional* PerfConf — the lockstep path decides
        // only at blocking flushes — so the nominal quantum is the
        // sampling tick.
        let (mut plane, chan) = ControlPlane::single_with_period(
            "memstore.lowerLimit_mb",
            decider,
            SAMPLE_TICK.as_micros(),
        );
        if let Some(spec) = chaos {
            plane.enable_chaos(spec);
        }
        let initial_lower = (plane.setting(chan).max(0.0) * MB as f64) as u64;
        let model = MemstoreModel {
            memstore: Memstore::new(
                self.upper,
                initial_lower,
                self.drain_rate,
                self.flush_overhead_secs,
            ),
            plane,
            chan,
            phased: workload.clone(),
            blocked_until: SimTime::ZERO,
            completed_writes: 0,
            goals,
            current_goal: goals.0,
            violated: false,
            worst_block_secs: 0.0,
            block_series: TimeSeries::new("block_duration_secs"),
            conf_series: TimeSeries::new("memstore.lowerLimit_mb"),
            store_series: TimeSeries::new("memstore_mb"),
            horizon,
        };
        let mut sim = Simulation::new(model, seed);
        sim.schedule_at(SimTime::ZERO, Ev::Arrival);
        sim.schedule_at(SimTime::ZERO, Ev::Sample);
        if let Some(t) = goal_change_at {
            sim.schedule_at(t, Ev::GoalChange);
        }
        sim.run_until(horizon);

        let m = sim.into_model();
        let elapsed_secs = workload.total_duration().as_secs_f64();
        let result = RunResult::new(
            label,
            !m.violated,
            m.completed_writes as f64 / elapsed_secs,
            "write throughput (ops/s)",
            TradeoffDirection::HigherIsBetter,
        );
        result
            .with_series(m.block_series)
            .with_series(m.conf_series)
            .with_series(m.store_series)
            .with_epochs(m.plane.into_log())
    }
}

impl Default for Hb2149 {
    fn default() -> Self {
        Self::standard()
    }
}

impl Scenario for Hb2149 {
    fn id(&self) -> &str {
        "HB2149"
    }

    fn description(&self) -> &str {
        "global.memstore.lowerLimit decides how much memstore data is flushed. \
         Too big, write blocked for too long; too small, write blocked too often."
    }

    fn config_name(&self) -> &str {
        "global.memstore.lowerLimit"
    }

    fn candidate_settings(&self) -> Vec<f64> {
        // lowerLimit in MB, below the 200 MB upper watermark.
        (0..=19).map(|i| (i * 10) as f64).collect()
    }

    fn static_setting(&self, choice: Baseline) -> Option<f64> {
        match choice {
            // Figure 5 annotates HB2149's statics as fractions of heap
            // against an upper watermark of 0.40: the buggy default 0.25
            // flushes so deep it blocks past the tightened 5 s goal,
            // the patched 0.35 is shallow — safe but slow.
            Baseline::BuggyDefault => Some(120.0),
            Baseline::PatchDefault => Some(175.0),
            _ => None,
        }
    }

    fn tradeoff_direction(&self) -> TradeoffDirection {
        TradeoffDirection::HigherIsBetter
    }

    fn run_static(&self, setting: f64, seed: u64) -> RunResult {
        self.run_model(
            Decider::Static(setting.clamp(0.0, 200.0)),
            &self.eval.clone(),
            seed,
            &format!("static-{setting}MB"),
            self.phase_goals_secs,
            None,
        )
    }

    fn run(&self, seed: u64, spec: &RunSpec, profiles: &[ProfileSet]) -> RunResult {
        let controller = self.build_controller(&profiles[0], spec.model);
        let conf = SmartConf::new("global.memstore.lowerLimit", controller);
        self.run_model(
            Decider::Direct(Box::new(conf)),
            &self.eval.clone(),
            seed,
            &spec.label(),
            self.phase_goals_secs,
            spec.chaos(seed, self.guard()),
        )
    }

    fn profile_schedule(&self) -> ProfileSchedule {
        // The controller is invoked at flush events (conditional
        // PerfConf), so profiling takes the paper's 10 measurements from
        // the first recorded block events rather than a time grid.
        ProfileSchedule::first_events(self.profile_settings.clone(), 10)
    }

    fn profile(&self, seed: u64) -> ProfileSet {
        self.collect_profile(seed)
    }
}

#[derive(Debug)]
enum Ev {
    Arrival,
    Unblock,
    GoalChange,
    Sample,
}

#[derive(Debug)]
struct MemstoreModel {
    memstore: Memstore,
    plane: ControlPlane,
    chan: ChannelId,
    phased: PhasedWorkload<YcsbWorkload>,
    blocked_until: SimTime,
    completed_writes: u64,
    goals: (f64, f64),
    current_goal: f64,
    violated: bool,
    worst_block_secs: f64,
    block_series: TimeSeries,
    conf_series: TimeSeries,
    store_series: TimeSeries,
    horizon: SimTime,
}

impl Model for MemstoreModel {
    type Event = Ev;

    fn handle(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
        match event {
            Ev::Arrival => {
                let now = ctx.now();
                let workload = self.phased.at(now).clone();
                if now >= self.blocked_until {
                    let op = workload.next_op(ctx.rng());
                    if op.is_write() {
                        self.memstore.write(op.size_bytes());
                        self.completed_writes += 1;
                        if self.memstore.at_upper() {
                            // Blocking flush. The control plane is invoked
                            // exactly here — when the configuration takes
                            // effect (conditional PerfConf, §4.2).
                            let last_block = self.worst_block_secs.max(0.0);
                            if last_block > 0.0 {
                                let lower_mb = self
                                    .plane
                                    .decide(self.chan, now.as_micros(), last_block)
                                    .max(0.0);
                                if self.plane.take_plant_restart(self.chan) {
                                    // Injected plant restart: the store
                                    // empties; this flush is a short one.
                                    self.memstore.clear();
                                }
                                self.memstore.set_lower((lower_mb * MB as f64) as u64);
                                // Guard-directed shedding: the imminent
                                // blocking flush drains exactly to the
                                // clamped watermark — that drain *is*
                                // the shed, so only the flag needs
                                // consuming here.
                                let _ = self.plane.take_plant_shed(self.chan);
                            }
                            let block = self.memstore.blocking_flush();
                            let secs = block.as_secs_f64();
                            self.worst_block_secs = secs;
                            self.block_series.push(now.as_micros(), secs);
                            if secs > self.current_goal {
                                self.violated = true;
                            }
                            self.blocked_until = now + block;
                            ctx.schedule_at(self.blocked_until, Ev::Unblock);
                        }
                    }
                }
                // Arrivals during a block are retried by the client once
                // the store unblocks; the lost time is the throughput
                // cost of blocking often.
                let gap = workload.arrivals().next_gap(ctx.rng());
                ctx.schedule_in(gap, Ev::Arrival);
            }
            Ev::Unblock => {
                // Nothing to do: arrivals check `blocked_until`.
            }
            Ev::GoalChange => {
                self.current_goal = self.goals.1;
                self.plane
                    .set_goal(self.chan, self.goals.1)
                    .expect("finite goal");
            }
            Ev::Sample => {
                let t = ctx.now().as_micros();
                self.conf_series
                    .push(t, self.memstore.lower() as f64 / MB as f64);
                self.store_series
                    .push(t, self.memstore.bytes() as f64 / MB as f64);
                if ctx.now() < self.horizon {
                    ctx.schedule_in(SAMPLE_TICK, Ev::Sample);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartconf_harness::Faults;
    use smartconf_runtime::FaultClass;

    fn quick() -> Hb2149 {
        let mut s = Hb2149::standard();
        s.eval = PhasedWorkload::new(vec![
            (SimDuration::from_secs(60), Hb2149::workload()),
            (SimDuration::from_secs(60), Hb2149::workload()),
        ]);
        s
    }

    #[test]
    fn shed_admitted_holds_block_goal_under_recoverable_faults() {
        // With admitted-work shedding, every fault class the guard can
        // recover from must leave the block-duration goal intact.
        // ActuatorSaturation is excluded: it caps the actuator *below*
        // the safe shallow watermark, so deep flushes are physically
        // unavoidable — no controller-side guard can reach a setting the
        // actuator cannot apply.
        let t = quick();
        let profiles = t.evaluation_profiles(13);
        for class in FaultClass::ALL {
            if class == FaultClass::ActuatorSaturation {
                continue;
            }
            let spec = RunSpec::new(ModelMode::Frozen, Faults::Class(class));
            let out = t.run(13, &spec, &profiles);
            assert!(
                out.constraint_ok,
                "{class:?}: shed-armed chaos run violated the block goal"
            );
            let again = t.run(13, &spec, &profiles);
            assert_eq!(out.tradeoff.to_bits(), again.tradeoff.to_bits());
        }
    }

    #[test]
    fn block_duration_is_affine_in_setting() {
        let p = Hb2149::standard().collect_profile(3);
        let fit = p.fit().unwrap();
        // d = overhead + (upper - lower)/drain: slope = -1/drain = -0.04.
        assert!(
            (fit.alpha() + 0.04).abs() < 0.005,
            "alpha {} (expected -0.04)",
            fit.alpha()
        );
        assert!((fit.beta() - 10.0).abs() < 0.5, "beta {}", fit.beta());
    }

    #[test]
    fn smartconf_meets_both_goals_and_flushes_deep() {
        let s = quick();
        let smart = s.run_smartconf(9);
        assert!(smart.constraint_ok, "SmartConf violated the block goal");
        // In phase 1 (10 s goal) the controller flushes deeper than in
        // phase 2 (5 s goal): the lowerLimit rises after the goal change.
        let conf = smart.series("memstore.lowerLimit_mb").unwrap();
        let p1 = conf.value_at(55_000_000).unwrap();
        let p2 = conf.value_at(115_000_000).unwrap();
        assert!(p2 > p1, "phase2 lower {p2} should exceed phase1 lower {p1}");
    }

    #[test]
    fn shallow_static_violates_nothing_but_loses_throughput() {
        let s = quick();
        let shallow = s.run_static(190.0, 9); // flush only 10 MB at a time
        let deep = s.run_static(75.0, 9);
        assert!(shallow.constraint_ok);
        if deep.constraint_ok {
            assert!(
                deep.tradeoff > shallow.tradeoff,
                "deep {} <= shallow {}",
                deep.tradeoff,
                shallow.tradeoff
            );
        }
    }

    #[test]
    fn too_deep_static_violates_tight_goal() {
        let s = quick();
        // Flushing the whole 200 MB: block = 2 + 200/25 = 10 s > 5 s goal.
        let r = s.run_static(0.0, 9);
        assert!(
            !r.constraint_ok,
            "full-drain flush must violate the 5 s goal"
        );
    }

    #[test]
    fn deterministic() {
        let s = quick();
        let a = s.run_static(100.0, 4);
        let b = s.run_static(100.0, 4);
        assert_eq!(a.tradeoff, b.tradeoff);
    }

    #[test]
    fn scenario_metadata() {
        let s = Hb2149::standard();
        assert_eq!(s.id(), "HB2149");
        assert_eq!(s.phase_goals_secs(), (10.0, 5.0));
        assert_eq!(s.tradeoff_direction(), TradeoffDirection::HigherIsBetter);
    }
}
