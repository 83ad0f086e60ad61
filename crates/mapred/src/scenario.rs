//! The MR2820 scenario wiring.

use smartconf_core::{FnTransducer, Goal, Hardness, ProfileSet, SmartConfIndirect};
use smartconf_harness::{PerfConf, RunResult, RunSpec, Scenario, TradeoffDirection};
use smartconf_runtime::{ChaosSpec, Decider, GuardPolicy, ProfileSchedule, Profiler};
use smartconf_simkernel::{BackgroundChurn, SimDuration, SimRng, SimTime, Simulation};
use smartconf_workload::WordCountJob;

use crate::cluster::{materialize_job, ClusterEvent, ClusterModel};

const MB: u64 = 1_000_000;

/// The MR2820 scenario: `local.dir.minspacestart`.
///
/// * Profiling: WordCount `(2G, 64MB, 1)` on the same cluster (Table 6).
/// * Evaluation: WordCount `(640MB, 64MB, 2)` then `(640MB, 128MB, 2)` —
///   phase 2's bigger splits spill twice as much per task.
/// * Constraint (hard): no out-of-disk; the controller keeps the worst
///   per-worker disk usage below the capacity goal.
/// * Trade-off: total completion time of both jobs (lower is better).
#[derive(Debug, Clone)]
pub struct Mr2820 {
    workers: usize,
    slots_per_worker: u32,
    disk_capacity: u64,
    /// The user's usage goal; OOD (the crash) sits at full capacity,
    /// with operational slack between them as on any real disk.
    disk_goal: u64,
    disk_base: u64,
    churn_mean: f64,
    process_rate: f64,
    shuffle_delay: SimDuration,
    horizon: SimTime,
}

impl Mr2820 {
    /// Standard setup: two workers × two slots, 860 MB local disks with
    /// ~500 MB already claimed by base usage and co-tenants. Map spills
    /// stay resident until the (slow) shuffle fetches them, so back-to-
    /// back jobs overlap their disk footprints at the job boundary —
    /// exactly where a too-small reserve runs out of disk.
    pub fn standard() -> Self {
        Mr2820 {
            workers: 2,
            slots_per_worker: 2,
            disk_capacity: 900 * MB,
            disk_goal: 860 * MB,
            disk_base: 200 * MB,
            churn_mean: 300.0 * MB as f64,
            process_rate: 20.0 * MB as f64,
            shuffle_delay: SimDuration::from_secs(30),
            horizon: SimTime::from_secs(900),
        }
    }

    /// The disk-usage goal in MB (the user's constraint; the physical
    /// out-of-disk crash sits at full capacity above it).
    pub fn disk_goal_mb(&self) -> f64 {
        self.disk_goal as f64 / MB as f64
    }

    fn eval_jobs(&self, seed: u64) -> Vec<Vec<smartconf_workload::MapTask>> {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x90b5);
        vec![
            materialize_job(&WordCountJob::new(720 * MB, 16 * MB, 2), &mut rng),
            materialize_job(&WordCountJob::new(1_440 * MB, 32 * MB, 2), &mut rng),
        ]
    }

    fn churn(&self) -> BackgroundChurn {
        BackgroundChurn::with_spikes(
            self.churn_mean,
            3.0 * MB as f64,
            0.002,
            10.0 * MB as f64,
            20.0 * MB as f64,
        )
        .with_reversion(0.02)
    }

    fn run_cluster(
        &self,
        decider: Decider,
        initial_minspace: u64,
        jobs: Vec<Vec<smartconf_workload::MapTask>>,
        seed: u64,
        label: &str,
        chaos: Option<ChaosSpec>,
    ) -> RunResult {
        let mut model = ClusterModel::new(
            self.workers,
            self.slots_per_worker,
            self.disk_capacity,
            self.disk_base,
            self.churn(),
            decider,
            initial_minspace,
            jobs,
            self.process_rate,
            self.shuffle_delay,
            self.disk_goal_mb(),
            self.horizon,
        );
        if let Some(spec) = chaos {
            model.enable_chaos(spec);
        }
        let mut sim = Simulation::new(model, seed);
        sim.schedule_at(SimTime::ZERO, ClusterEvent::Assign);
        sim.schedule_at(SimTime::ZERO, ClusterEvent::SpillTick);
        sim.schedule_at(SimTime::ZERO, ClusterEvent::ChurnTick);
        sim.schedule_at(SimTime::ZERO, ClusterEvent::Sample);
        sim.run_until(self.horizon);
        let m = sim.into_model();

        let makespan = match (m.crashed, m.finished_at) {
            (Some(_), _) | (None, None) => f64::INFINITY, // failed or hung
            (None, Some(t)) => t.as_secs_f64(),
        };
        let mut result = RunResult::new(
            label,
            m.crashed.is_none() && m.finished_at.is_some(),
            makespan,
            "job completion time (s)",
            TradeoffDirection::LowerIsBetter,
        );
        if let Some(t) = m.crashed {
            result = result.with_crash(t.as_micros());
        }
        result
            .with_series(m.used_series)
            .with_epochs(m.plane.into_log())
    }
}

impl Scenario for Mr2820 {
    fn perfconf(&self) -> PerfConf {
        PerfConf {
            id: "MR2820",
            description: "local.dir.minspacestart decides if a worker has enough disk to run a \
                          task. Too small, OOD; too big, low utility (job latency hurts).",
            config_name: "local.dir.minspacestart",
            candidates: (0..=14).map(|i| (i * 30) as f64).collect(),
            // The original default reserved nothing; the patch reserved
            // a token 1 MB (Figure 5's "0M" and "1M" annotations).
            buggy_default: Some(0.0),
            patch_default: Some(1.0),
            direction: TradeoffDirection::LowerIsBetter,
            // Direct on the reserve, hard goal on worst-worker disk usage.
            goal: Goal::new("worker_disk_mb", self.disk_goal_mb())
                .with_hardness(Hardness::Hard)
                .expect("positive target"),
            bounds: (0.0, self.disk_goal_mb()),
            initial: self.disk_goal_mb() * 0.6,
            // 48 disk samples on a 1 s grid after the job's 5 s ramp-up,
            // at each profiled reserve setting.
            schedule: ProfileSchedule::grid(
                vec![150.0, 230.0, 310.0, 390.0],
                48,
                5_000_000,
                1_000_000,
            ),
            // Fallback in controller space: aim for 60% of the usage
            // goal, the same conservative point the controller starts
            // from.
            guard: GuardPolicy::new()
                .fallback_setting("local.dir.minspacestart_mb", self.disk_goal_mb() * 0.6),
        }
    }

    fn run_static(&self, setting: f64, seed: u64) -> RunResult {
        let bytes = (setting.max(0.0) * MB as f64) as u64;
        self.run_cluster(
            Decider::Static(setting.max(0.0)),
            bytes,
            self.eval_jobs(seed),
            seed,
            &format!("static-{setting}MB"),
            None,
        )
    }

    fn run(&self, seed: u64, spec: &RunSpec, profiles: &[ProfileSet]) -> RunResult {
        let conf = self.perfconf();
        // The controller acts on the deputy (committed usage), whose gain
        // on the metric is identically 1; profiling still supplies the
        // pole and virtual-goal margin. An adaptive model seeds its online
        // RLS estimator from that unit gain, not the profiled fit.
        let controller = conf
            .builder(&profiles[0], spec.model)
            .alpha(1.0)
            .build()
            .expect("controller synthesis");
        let initial = ((self.disk_goal_mb() - controller.current()) * MB as f64) as u64;
        // minspace = capacity − desired usage: the §5.3 transducer for a
        // threshold expressed as *free* rather than *used* space.
        let cap = self.disk_capacity as f64 / MB as f64;
        let deputy = SmartConfIndirect::with_transducer(
            conf.config_name,
            controller,
            Box::new(FnTransducer::new(move |desired: f64| {
                (cap - desired).max(0.0)
            })),
        );
        self.run_cluster(
            Decider::Deputy(Box::new(deputy)),
            initial,
            self.eval_jobs(seed),
            seed,
            &spec.label(),
            spec.chaos(seed, conf.guard),
        )
    }

    /// Profiles worst-worker disk usage against the reserve setting using
    /// the profiling job `(2G, 64MB, 1)`, via the shared [`Profiler`].
    fn profile(&self, seed: u64) -> ProfileSet {
        Profiler::new(self.perfconf().schedule).collect(seed, |setting_mb, s| {
            let mut rng = SimRng::seed_from_u64(seed ^ 0x9a0f);
            let job = materialize_job(&WordCountJob::new(2_048 * MB, 16 * MB, 1), &mut rng);
            self.run_cluster(
                Decider::Static(setting_mb),
                (setting_mb * MB as f64) as u64,
                vec![job],
                s,
                "profiling",
                None,
            )
            .series("worst_worker_disk_mb")
            .expect("disk series")
            .clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartconf_core::ModelMode;
    use smartconf_harness::{Baseline, Faults};
    use smartconf_runtime::FaultClass;

    #[test]
    fn profile_slopes_down() {
        let p = Mr2820::standard().profile(3);
        assert_eq!(p.num_settings(), 4);
        let fit = p.fit().unwrap();
        // Bigger reserve => lower worst-case usage.
        assert!(
            fit.alpha() < 0.0,
            "alpha {} should be negative",
            fit.alpha()
        );
    }

    #[test]
    fn smartconf_finishes_without_ood() {
        let s = Mr2820::standard();
        let r = s.run_smartconf(23);
        assert!(
            r.constraint_ok,
            "SmartConf OOD or hung: {:?}",
            r.crash_time_us
        );
        assert!(r.tradeoff.is_finite());
    }

    #[test]
    fn no_reserve_goes_ood() {
        let s = Mr2820::standard();
        let buggy = s.run_static(0.0, 23);
        let patch = s.run_static(1.0, 23);
        assert!(!buggy.constraint_ok, "0-byte reserve must fail");
        assert!(!patch.constraint_ok, "1MB reserve must fail");
    }

    #[test]
    fn big_reserve_is_safe_but_slow() {
        let s = Mr2820::standard();
        let big = s.run_static(250.0, 23);
        if big.constraint_ok {
            let smart = s.run_smartconf(23);
            assert!(
                smart.tradeoff <= big.tradeoff * 1.05,
                "SmartConf {}s should not be much slower than static-250 {}s",
                smart.tradeoff,
                big.tradeoff
            );
        }
    }

    #[test]
    fn chaos_run_survives_restarts_and_replays() {
        let s = Mr2820::standard();
        let spec = RunSpec::new(ModelMode::Frozen, Faults::Class(FaultClass::PlantRestart));
        let profiles = s.evaluation_profiles(23);
        let a = s.run(23, &spec, &profiles);
        assert!(a.constraint_ok, "OOD or hang under injected restarts");
        let b = s.run(23, &spec, &profiles);
        assert_eq!(a.tradeoff, b.tradeoff, "chaos run must replay exactly");
    }

    #[test]
    fn deterministic() {
        let s = Mr2820::standard();
        let a = s.run_static(150.0, 4);
        let b = s.run_static(150.0, 4);
        assert_eq!(a.tradeoff, b.tradeoff);
    }

    #[test]
    fn scenario_metadata() {
        let s = Mr2820::standard();
        assert_eq!(s.id(), "MR2820");
        assert_eq!(s.static_setting(Baseline::BuggyDefault), Some(0.0));
        assert_eq!(s.static_setting(Baseline::PatchDefault), Some(1.0));
        assert_eq!(s.tradeoff_direction(), TradeoffDirection::LowerIsBetter);
    }
}
