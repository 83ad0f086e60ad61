//! CA6059: `memtable_total_space_in_mb` — the Cassandra write-buffer
//! threshold.
//!
//! "memtable_total_space_in_mb limits the memtable size. Too big, OOM;
//! too small, write latency hurts." (Table 6.) Cassandra developers chose
//! a conservative static default that "lowers the possibility of OOM by
//! sacrificing write performance for many workloads" (§2.2.3) — exactly
//! what SmartConf removes the need for.
//!
//! The model: writes buffer into a [`Memtable`]; when the active buffer
//! reaches the threshold a flush drains it to disk. If the fresh buffer
//! fills *again* before the drain completes, writes stall until it
//! finishes — so small thresholds mean frequent flushes and stall
//! windows (worse write latency), while large thresholds put memory at
//! risk. In phase 2 the workload turns `0.9W, C0.5`: a read cache
//! ramps up and squeezes the memtable's budget. **Indirect, hard**
//! (`N-N-Y`): the deputy is the memtable's resident bytes.

use smartconf_core::{Goal, Hardness, ProfileSet, SmartConfIndirect};
use smartconf_harness::{PerfConf, RunResult, RunSpec, Scenario, TradeoffDirection};
use smartconf_metrics::{Histogram, TimeSeries};
use smartconf_runtime::{
    ChannelId, ChaosSpec, ControlPlane, Decider, GuardPolicy, ProfileSchedule, Profiler, Sensed,
};
use smartconf_simkernel::{Context, Model, SimDuration, SimTime, Simulation};
use smartconf_workload::{PhasedWorkload, YcsbWorkload};

use crate::{BackgroundChurn, HeapModel, Memtable};

const MB: u64 = 1_000_000;
const CHURN_TICK: SimDuration = SimDuration::from_millis(100);
const SAMPLE_TICK: SimDuration = SimDuration::from_millis(500);

/// The CA6059 scenario.
#[derive(Debug, Clone)]
pub struct Ca6059 {
    heap_goal: u64,
    oom_limit: u64,
    base_bytes: u64,
    churn_mean: f64,
    churn_sigma: f64,
    /// Disk drain rate for memtable flushes, bytes/second.
    flush_rate: f64,
    /// Target size of the phase-2 read cache (grows as reads warm it).
    cache_target: u64,
    /// Cache warm-up rate in bytes/second while reads are cached.
    cache_warm_rate: f64,
    eval: PhasedWorkload<YcsbWorkload>,
    profile_workload: YcsbWorkload,
}

impl Ca6059 {
    /// Standard two-phase setup: phase 1 `1.0W, 1MB, C0`, phase 2
    /// `0.9W, 1MB, C0.5` (Table 6), 200 s each. Profiling uses YCSB-A
    /// (`0.5W, 1MB`).
    pub fn standard() -> Self {
        Ca6059 {
            heap_goal: 495 * MB,
            oom_limit: 510 * MB,
            base_bytes: 100 * MB,
            churn_mean: 120.0 * MB as f64,
            churn_sigma: 1.5 * MB as f64,
            flush_rate: 150.0 * MB as f64,
            cache_target: 150 * MB,
            cache_warm_rate: 5.0 * MB as f64,
            eval: PhasedWorkload::new(vec![
                (SimDuration::from_secs(200), Self::workload("1.0W", 0.0)),
                (SimDuration::from_secs(200), Self::workload("0.9W", 0.5)),
            ]),
            profile_workload: Self::workload("0.5W", 0.0),
        }
    }

    fn workload(spec: &str, cache_ratio: f64) -> YcsbWorkload {
        YcsbWorkload::paper(spec, 1.0, cache_ratio, 60.0)
    }

    /// The memory goal in MB.
    pub fn heap_goal_mb(&self) -> f64 {
        self.heap_goal as f64 / MB as f64
    }

    fn run_model(
        &self,
        decider: Decider,
        workload: &PhasedWorkload<YcsbWorkload>,
        seed: u64,
        label: &str,
        chaos: Option<ChaosSpec>,
    ) -> RunResult {
        let horizon = SimTime::ZERO + workload.total_duration();
        let mut heap = HeapModel::new(self.oom_limit);
        heap.set_component("base", self.base_bytes);
        let (mut plane, chan) = ControlPlane::single("memtable_total_space_mb", decider);
        if let Some(spec) = chaos {
            plane.enable_chaos(spec);
        }
        let initial = (plane.setting(chan).max(1.0) * MB as f64) as u64;
        let model = MemtableModel {
            heap,
            churn: BackgroundChurn::with_spikes(
                self.churn_mean,
                self.churn_sigma,
                0.002,
                4.0 * MB as f64,
                6.0 * MB as f64,
            )
            .with_reversion(0.02),
            memtable: Memtable::new(initial, self.flush_rate),
            flush: None,
            pause_until: SimTime::ZERO,
            flush_pause: SimDuration::from_millis(300),
            cache_bytes: 0,
            cache_target: self.cache_target,
            cache_warm_rate: self.cache_warm_rate,
            plane,
            chan,
            phased: workload.clone(),
            write_latency: Histogram::new(),
            crashed: None,
            goal_mb: self.heap_goal_mb(),
            goal_violated: false,
            mem_series: TimeSeries::new("used_memory_mb"),
            horizon,
        };
        let mut sim = Simulation::new(model, seed);
        sim.schedule_at(SimTime::ZERO, Ev::Arrival);
        sim.schedule_at(SimTime::ZERO, Ev::ChurnTick);
        sim.schedule_at(SimTime::ZERO, Ev::Sample);
        sim.run_until(horizon);

        let m = sim.into_model();
        let avg_latency_ms = if m.write_latency.is_empty() {
            f64::NAN
        } else {
            m.write_latency.mean() / 1_000.0
        };
        let mut result = RunResult::new(
            label,
            m.crashed.is_none() && !m.goal_violated,
            avg_latency_ms,
            "mean write latency (ms)",
            TradeoffDirection::LowerIsBetter,
        );
        if let Some(t) = m.crashed {
            result = result.with_crash(t.as_micros());
        }
        result
            .with_series(m.mem_series)
            .with_epochs(m.plane.into_log())
    }
}

impl Scenario for Ca6059 {
    fn perfconf(&self) -> PerfConf {
        PerfConf {
            id: "CA6059",
            description: "memtable_total_space_in_mb limits the memtable size. \
                          Too big, OOM; too small, write latency hurts.",
            config_name: "memtable_total_space_in_mb",
            candidates: (1..=25).map(|i| (i * 10) as f64).collect(),
            // One third of the heap, Cassandra's memtable share before
            // the issue was fixed.
            buggy_default: Some(165.0),
            // The patched default: one quarter of the heap.
            patch_default: Some(124.0),
            direction: TradeoffDirection::LowerIsBetter,
            goal: Goal::new("memory_mb", self.heap_goal_mb())
                .with_hardness(Hardness::Hard)
                .expect("positive target"),
            bounds: (8.0, 2_000.0),
            initial: 8.0,
            // 48 memory samples on a 1 s grid after 10 s of warmup, at
            // each of the four profiling thresholds.
            schedule: ProfileSchedule::grid(
                vec![40.0, 80.0, 120.0, 160.0],
                48,
                10_000_000,
                1_000_000,
            ),
            // Profiled-safe fallback: the smallest profiled threshold
            // keeps memory well clear of the hard goal at higher write
            // latency.
            guard: GuardPolicy::new().fallback_setting("memtable_total_space_mb", 40.0),
        }
    }

    fn run_static(&self, setting: f64, seed: u64) -> RunResult {
        self.run_model(
            Decider::Static(setting.max(1.0)),
            &self.eval.clone(),
            seed,
            &format!("static-{setting}MB"),
            None,
        )
    }

    fn run(&self, seed: u64, spec: &RunSpec, profiles: &[ProfileSet]) -> RunResult {
        let conf = self.perfconf();
        let controller = conf.controller(&profiles[0], spec.model);
        let deputy = SmartConfIndirect::new(conf.config_name, controller);
        self.run_model(
            Decider::Deputy(Box::new(deputy)),
            &self.eval.clone(),
            seed,
            &spec.label(),
            spec.chaos(seed, conf.guard),
        )
    }

    /// Profiles memory against the memtable threshold by driving the
    /// shared [`Profiler`] through this scenario's schedule.
    fn profile(&self, seed: u64) -> ProfileSet {
        Profiler::new(self.perfconf().schedule).collect(seed, |setting_mb, s| {
            let workload =
                PhasedWorkload::single(SimDuration::from_secs(60), self.profile_workload.clone());
            self.run_model(Decider::Static(setting_mb), &workload, s, "profiling", None)
                .series("used_memory_mb")
                .expect("profiling run records memory")
                .clone()
        })
    }
}

#[derive(Debug)]
enum Ev {
    Arrival,
    FlushDone,
    ChurnTick,
    Sample,
}

#[derive(Debug)]
struct MemtableModel {
    heap: HeapModel,
    churn: BackgroundChurn,
    memtable: Memtable,
    cache_bytes: u64,
    cache_target: u64,
    cache_warm_rate: f64,
    plane: ControlPlane,
    chan: ChannelId,
    phased: PhasedWorkload<YcsbWorkload>,
    /// In-progress flush: (bytes, start, duration). Flushed bytes drain
    /// linearly over the duration (Cassandra frees memtable memory as
    /// the SSTable is written out).
    flush: Option<(u64, SimTime, SimDuration)>,
    /// Writes arriving before this instant wait for the flush-induced
    /// pause (commit-log sync / compaction kick) to pass.
    pause_until: SimTime,
    flush_pause: SimDuration,
    write_latency: Histogram,
    crashed: Option<SimTime>,
    goal_mb: f64,
    goal_violated: bool,
    mem_series: TimeSeries,
    horizon: SimTime,
}

impl MemtableModel {
    /// Baseline latency of an unstalled write (commit log append).
    const FAST_WRITE_US: u64 = 1_000;

    /// Invoked at the write-arrival use site; the deputy (§5.3) is the
    /// memtable's resident bytes (active plus still-draining) in MB.
    fn control_step(&mut self, now: SimTime) {
        let deputy_mb =
            (self.memtable.active_bytes() + self.flush_residual(now)) as f64 / MB as f64;
        let sensed = Sensed::with_deputy(self.heap.used_mb(), deputy_mb);
        let threshold_mb = self
            .plane
            .decide(self.chan, now.as_micros(), sensed)
            .max(1.0);
        if self.plane.take_plant_restart(self.chan) {
            // Injected plant restart: buffered writes and the warm read
            // cache are gone (commit log replays out of band).
            self.memtable.clear();
            self.flush = None;
            self.cache_bytes = 0;
            self.sync_heap(now);
        }
        self.memtable
            .set_threshold((threshold_mb * MB as f64) as u64);
    }

    /// Residency of the draining flush at `now` (linear release).
    fn flush_residual(&self, now: SimTime) -> u64 {
        match self.flush {
            None => 0,
            Some((bytes, t0, dur)) => {
                if dur.is_zero() {
                    return 0;
                }
                let elapsed = now.duration_since(t0).as_micros() as f64;
                let frac = (elapsed / dur.as_micros() as f64).min(1.0);
                (bytes as f64 * (1.0 - frac)) as u64
            }
        }
    }

    fn sync_heap(&mut self, now: SimTime) {
        let residency = self.memtable.active_bytes() + self.flush_residual(now);
        self.heap.set_component("memtable", residency);
        self.heap.set_component("read_cache", self.cache_bytes);
    }

    fn maybe_start_flush(&mut self, ctx: &mut Context<'_, Ev>) {
        if self.memtable.should_flush() && !self.memtable.is_flushing() {
            let dur = self.memtable.start_flush();
            self.flush = Some((self.memtable.flushing_bytes(), ctx.now(), dur));
            self.pause_until = ctx.now() + self.flush_pause;
            ctx.schedule_in(dur, Ev::FlushDone);
        }
    }

    fn check_oom(&mut self, ctx: &mut Context<'_, Ev>) {
        if self.crashed.is_none() && self.heap.is_oom() {
            self.crashed = Some(ctx.now());
            let t = ctx.now().as_micros();
            self.mem_series.push(t, self.heap.used_mb());
            ctx.halt();
        }
    }
}

impl Model for MemtableModel {
    type Event = Ev;

    fn handle(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
        match event {
            Ev::Arrival => {
                let now = ctx.now();
                let workload = self.phased.at(now).clone();
                let op = workload.next_op(ctx.rng());
                if op.is_write() {
                    self.control_step(now);
                    self.memtable.write(op.size_bytes());
                    // Writes that land inside a flush-induced pause wait
                    // for it to pass — the latency cost of flushing
                    // often (small thresholds flush more often).
                    let wait = self.pause_until.duration_since(now).as_micros();
                    self.write_latency.record(Self::FAST_WRITE_US + wait);
                    self.maybe_start_flush(ctx);
                    self.sync_heap(now);
                    self.check_oom(ctx);
                } else {
                    // Reads warm the cache when the workload caches them.
                    if let smartconf_workload::KvOp::Read { cached: true, .. } = op {
                        let step = (self.cache_warm_rate / 10.0) as u64;
                        self.cache_bytes = (self.cache_bytes + step).min(self.cache_target);
                        self.sync_heap(now);
                        self.check_oom(ctx);
                    }
                }
                if self.crashed.is_none() {
                    let gap = workload.arrivals().next_gap(ctx.rng());
                    ctx.schedule_in(gap, Ev::Arrival);
                }
            }
            Ev::FlushDone => {
                self.memtable.finish_flush();
                self.flush = None;
                // If the buffer filled past the threshold again while
                // draining, start the next flush immediately.
                self.maybe_start_flush(ctx);
                self.sync_heap(ctx.now());
            }
            Ev::ChurnTick => {
                let level = self.churn.tick(ctx.rng());
                self.heap.set_component("churn", level);
                self.sync_heap(ctx.now());
                self.check_oom(ctx);
                ctx.schedule_in(CHURN_TICK, Ev::ChurnTick);
            }
            Ev::Sample => {
                if self.heap.used_mb() > self.goal_mb {
                    self.goal_violated = true;
                }
                self.sync_heap(ctx.now());
                let t = ctx.now().as_micros();
                self.mem_series.push(t, self.heap.used_mb());
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
    use smartconf_harness::Baseline;

    fn quick() -> Ca6059 {
        let mut s = Ca6059::standard();
        s.eval = PhasedWorkload::new(vec![
            (SimDuration::from_secs(40), Ca6059::workload("1.0W", 0.0)),
            (SimDuration::from_secs(40), Ca6059::workload("0.9W", 0.5)),
        ]);
        // Warm the phase-2 cache fast enough to matter in a 40 s phase.
        s.cache_warm_rate = 25.0 * MB as f64;
        s
    }

    #[test]
    fn profile_shape() {
        let p = Ca6059::standard().profile(3);
        assert_eq!(p.num_settings(), 4);
        let fit = p.fit().unwrap();
        // Memory grows with the threshold (time-averaged buffer level is
        // a fraction of it).
        assert!(
            fit.alpha() > 0.2 && fit.alpha() < 2.0,
            "alpha {}",
            fit.alpha()
        );
    }

    #[test]
    fn smartconf_ok_and_latency_reasonable() {
        let s = quick();
        let smart = s.run_smartconf(11);
        assert!(smart.constraint_ok, "SmartConf failed: {smart:?}");
        assert!(smart.tradeoff.is_finite() && smart.tradeoff > 0.0);
    }

    #[test]
    fn small_threshold_raises_latency() {
        let s = quick();
        let small = s.run_static(10.0, 11);
        let large = s.run_static(100.0, 11);
        if small.constraint_ok && large.constraint_ok {
            assert!(
                small.tradeoff > large.tradeoff,
                "small {} <= large {}",
                small.tradeoff,
                large.tradeoff
            );
        }
    }

    #[test]
    fn buggy_default_fails() {
        let s = quick();
        let r = s.run_static(165.0, 11);
        assert!(!r.constraint_ok, "one-third-heap memtable must fail");
    }

    #[test]
    fn deterministic() {
        let s = quick();
        let a = s.run_static(60.0, 5);
        let b = s.run_static(60.0, 5);
        assert_eq!(a.tradeoff, b.tradeoff);
    }

    #[test]
    fn scenario_metadata() {
        let s = Ca6059::standard();
        assert_eq!(s.id(), "CA6059");
        assert_eq!(s.tradeoff_direction(), TradeoffDirection::LowerIsBetter);
        assert!(s.static_setting(Baseline::BuggyDefault).unwrap() > 150.0);
    }
}
