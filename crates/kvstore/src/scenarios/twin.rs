//! Figure 8: two interacting PerfConfs sharing one memory goal.
//!
//! HB3813's request-queue bound and HB6728's response-queue bound both
//! affect the same region server's heap. The paper §6.5 runs them
//! together: a write-heavy workload fills the request queue; after 50 s
//! a read workload arrives whose responses fill the response queue.
//! With the goal marked *super-hard*, each controller splits the error
//! across the `N = 2` interacting configurations (§5.4), and memory
//! never violates the constraint while the two bounds trade the budget
//! between themselves.

use smartconf_core::{Goal, Hardness, ProfileSet, Registry, SmartConfIndirect};
use smartconf_harness::{PerfConf, RunResult, RunSpec, Scenario, TradeoffDirection};
use smartconf_metrics::TimeSeries;
use smartconf_runtime::{
    ChannelId, ControlPlane, ControlPlaneBuilder, Decider, GuardPolicy, ProfileSchedule, Profiler,
    Sensed,
};
use smartconf_simkernel::{Context, Model, SimDuration, SimTime, Simulation};
use smartconf_workload::{PhasedWorkload, YcsbWorkload};

use crate::{BackgroundChurn, ByteBoundedQueue, CountBoundedQueue, HeapModel, QueuedRequest};

const MB: u64 = 1_000_000;
const CHURN_TICK: SimDuration = SimDuration::from_millis(100);
const SAMPLE_TICK: SimDuration = SimDuration::from_millis(500);

/// Outcome of a Figure 8 run.
#[derive(Debug)]
pub struct TwinRunResult {
    /// The run outcome: constraint status, combined throughput, and the
    /// series `used_memory_mb`, `max.queue.size`,
    /// `response.queue.maxsize_mb`, `request_queue.len`,
    /// `response_queue.bytes_mb`.
    pub result: RunResult,
    /// The interaction factor each controller used (must be 2).
    pub interaction_n: u32,
}

/// The combined two-queue experiment of paper §6.5.
#[derive(Debug, Clone)]
pub struct TwinQueues {
    heap_goal: u64,
    oom_limit: u64,
    base_bytes: u64,
    churn_mean: f64,
    write_request_bytes: u64,
    read_request_bytes: u64,
    read_response_bytes: u64,
    /// Phase 1: writes only; phase 2 adds reads (paper: at 50 s).
    phase1: SimDuration,
    phase2: SimDuration,
}

impl TwinQueues {
    /// The standard §6.5 setup: writes from the start, reads joining at
    /// 50 s, 240 s total (matching Figure 8's x-axis).
    pub fn standard() -> Self {
        TwinQueues {
            heap_goal: 495 * MB,
            oom_limit: 510 * MB,
            base_bytes: 100 * MB,
            churn_mean: 150.0 * MB as f64,
            write_request_bytes: MB,
            read_request_bytes: 50_000,
            read_response_bytes: 2 * MB,
            phase1: SimDuration::from_secs(50),
            phase2: SimDuration::from_secs(190),
        }
    }

    /// The memory goal in MB.
    pub fn heap_goal_mb(&self) -> f64 {
        self.heap_goal as f64 / MB as f64
    }

    fn write_workload() -> YcsbWorkload {
        YcsbWorkload::paper("1.0W", 1.0, 0.0, 60.0)
    }

    fn read_workload() -> YcsbWorkload {
        YcsbWorkload::paper("0.0W", 1.0, 0.0, 120.0)
    }

    /// Profiles one queue's memory response while the other is held at a
    /// small fixed bound, via the shared [`Profiler`].
    fn profile_queue(&self, which: WhichQueue, seed: u64) -> ProfileSet {
        Profiler::new(self.perfconf().schedule).collect(seed, |setting, s| {
            let (req_bound, resp_bound_mb, workload) = match which {
                WhichQueue::Request => (setting as usize, 10.0, Self::write_workload()),
                // Profiling the response bound needs reads to actually
                // flow: a wide-open request queue of tiny read requests
                // keeps the response queue saturated at its bound.
                WhichQueue::Response => (300, setting, Self::read_workload()),
            };
            let (plane, req_chan, resp_chan) = Self::static_plane(req_bound, resp_bound_mb);
            self.run_plane(
                plane,
                req_chan,
                resp_chan,
                PhasedWorkload::single(SimDuration::from_secs(60), workload),
                s,
            )
            .result
            .series("used_memory_mb")
            .expect("memory series")
            .clone()
        })
    }

    /// Runs the §6.5 experiment with *fixed* bounds on both queues — the
    /// alternative the paper dismisses: "otherwise, we would have to pick
    /// very small sizes for both queues". A pair that survives the worst
    /// co-occurrence of both workloads must be small, and costs
    /// throughput all the time.
    pub fn run_static(&self, req_bound: usize, resp_bound_mb: f64, seed: u64) -> TwinRunResult {
        let phased = self.eval_phases();
        let (plane, req_chan, resp_chan) = Self::static_plane(req_bound, resp_bound_mb);
        self.run_plane(plane, req_chan, resp_chan, phased, seed)
    }

    /// A plane holding both queue bounds fixed.
    fn static_plane(req_bound: usize, resp_bound_mb: f64) -> (ControlPlane, ChannelId, ChannelId) {
        let mut b = ControlPlaneBuilder::new();
        let req_chan = b.channel("max.queue.size", Decider::Static(req_bound as f64));
        let resp_chan = b.channel("response.queue.maxsize_mb", Decider::Static(resp_bound_mb));
        (b.build(), req_chan, resp_chan)
    }

    fn eval_phases(&self) -> PhasedWorkload<YcsbWorkload> {
        // After the write-only opening, read- and write-heavy periods
        // alternate — the paper's §6.5 narrative: "during periods where
        // more read requests enter the system, the response queue size
        // is limited; when there are more write requests, the RPC queue
        // size is throttled".
        let mut phases = vec![(self.phase1, Self::write_workload())];
        let block = SimDuration::from_secs(24);
        let blocks = (self.phase2.as_secs_f64() / block.as_secs_f64()).ceil() as usize;
        for i in 0..blocks {
            let w = if i % 2 == 0 {
                YcsbWorkload::paper("0.2W", 1.0, 0.0, 90.0)
            } else {
                YcsbWorkload::paper("0.8W", 1.0, 0.0, 90.0)
            };
            phases.push((block, w));
        }
        PhasedWorkload::new(phases)
    }

    /// Runs the §6.5 experiment under SmartConf with both controllers
    /// coordinated through a super-hard goal.
    ///
    /// # Panics
    ///
    /// Panics if controller synthesis fails (the standard profiles are
    /// well-formed).
    pub fn run_smartconf(&self, seed: u64) -> TwinRunResult {
        self.run_smartconf_with_interaction(seed, None)
    }

    /// Like [`TwinQueues::run_smartconf`] but overriding the interaction
    /// factor — the §5.4 ablation: `Some(1)` disables error splitting, so
    /// both controllers claim the full error and jointly overshoot.
    ///
    /// # Panics
    ///
    /// Panics if controller synthesis fails or `interaction` is `Some(0)`.
    pub fn run_smartconf_with_interaction(
        &self,
        seed: u64,
        interaction: Option<u32>,
    ) -> TwinRunResult {
        self.run_twin(
            seed,
            &RunSpec::default(),
            &Scenario::evaluation_profiles(self, seed),
            interaction,
        )
    }

    /// Runs both coordinated controllers as `spec` describes.
    /// `profiles[0]` is the request queue at `seed ^ 0xaaaa`,
    /// `profiles[1]` the response queue at `seed ^ 0xbbbb` (the
    /// [`Scenario::evaluation_profiles`] order); `interaction` overrides
    /// the §5.4 interaction factor.
    fn run_twin(
        &self,
        seed: u64,
        spec: &RunSpec,
        profiles: &[ProfileSet],
        interaction: Option<u32>,
    ) -> TwinRunResult {
        // Registry drives the coordination: two configurations mapped to
        // one super-hard metric gives each controller N = 2 (§5.4).
        let conf = self.perfconf();
        let metric = conf.goal.metric();
        let mut registry = Registry::new();
        registry
            .add_conf("max.queue.size", metric, conf.initial, conf.bounds)
            .add_conf(
                "ipc.server.response.queue.maxsize",
                metric,
                conf.initial,
                conf.bounds,
            )
            .set_goal(conf.goal.clone());
        let interaction_n = interaction.unwrap_or_else(|| registry.interaction_count(metric));

        let req_conf =
            SmartConfIndirect::new("max.queue.size", conf.controller(&profiles[0], spec.model));
        let resp_conf = SmartConfIndirect::new(
            "ipc.server.response.queue.maxsize",
            conf.controller(&profiles[1], spec.model),
        );

        // The plane's builder discovers the shared super-hard metric and
        // splits the error N = 2 ways on its own (§5.4); the ablation
        // overrides that count after the fact.
        let mut b = ControlPlaneBuilder::new();
        let req_chan = b.channel("max.queue.size", Decider::Deputy(Box::new(req_conf)));
        let resp_chan = b.channel(
            "response.queue.maxsize_mb",
            Decider::Deputy(Box::new(resp_conf)),
        );
        let mut plane = b.build();
        if let Some(n) = interaction {
            plane.set_interaction(req_chan, n).expect("positive N");
            plane.set_interaction(resp_chan, n).expect("positive N");
        }
        if let Some(chaos) = spec.chaos(seed, conf.guard) {
            plane.enable_chaos(chaos);
        }

        let phased = self.eval_phases();
        let mut out = self.run_plane(plane, req_chan, resp_chan, phased, seed);
        out.interaction_n = interaction_n;
        out.result.label = spec.label();
        out
    }

    fn run_plane(
        &self,
        mut plane: ControlPlane,
        req_chan: ChannelId,
        resp_chan: ChannelId,
        workload: PhasedWorkload<YcsbWorkload>,
        seed: u64,
    ) -> TwinRunResult {
        let horizon = SimTime::ZERO + workload.total_duration();
        let mut heap = HeapModel::new(self.oom_limit);
        heap.set_component("base", self.base_bytes);
        let req_bound = plane.setting(req_chan).round().max(0.0) as usize;
        let resp_bound = (plane.setting(resp_chan).max(0.0) * MB as f64) as u64;
        let model = TwinModel {
            heap,
            churn: BackgroundChurn::with_spikes(
                self.churn_mean,
                1.5 * MB as f64,
                0.002,
                4.0 * MB as f64,
                6.0 * MB as f64,
            )
            .with_reversion(0.02),
            req_queue: CountBoundedQueue::new(req_bound),
            resp_queue: ByteBoundedQueue::new(resp_bound),
            plane,
            req_chan,
            resp_chan,
            phased: workload.clone(),
            serving: false,
            sending: false,
            write_request_bytes: self.write_request_bytes,
            read_request_bytes: self.read_request_bytes,
            read_response_bytes: self.read_response_bytes,
            completed: 0,
            crashed: None,
            goal_mb: self.heap_goal_mb(),
            goal_violated: false,
            mem_series: TimeSeries::new("used_memory_mb"),
            req_conf_series: TimeSeries::new("max.queue.size"),
            resp_conf_series: TimeSeries::new("response.queue.maxsize_mb"),
            req_len_series: TimeSeries::new("request_queue.len"),
            resp_bytes_series: TimeSeries::new("response_queue.bytes_mb"),
            horizon,
        };
        let mut sim = Simulation::new(model, seed);
        sim.schedule_at(SimTime::ZERO, Ev::Arrival);
        sim.schedule_at(SimTime::ZERO, Ev::ChurnTick);
        sim.schedule_at(SimTime::ZERO, Ev::Sample);
        sim.run_until(horizon);

        let m = sim.into_model();
        let elapsed = workload.total_duration().as_secs_f64();
        let mut result = RunResult::new(
            "Twin SmartConf",
            m.crashed.is_none() && !m.goal_violated,
            m.completed as f64 / elapsed,
            "combined throughput (ops/s)",
            TradeoffDirection::HigherIsBetter,
        );
        if let Some(t) = m.crashed {
            result = result.with_crash(t.as_micros());
        }
        let result = result
            .with_series(m.mem_series)
            .with_series(m.req_conf_series)
            .with_series(m.resp_conf_series)
            .with_series(m.req_len_series)
            .with_series(m.resp_bytes_series)
            .with_epochs(m.plane.into_log());
        TwinRunResult {
            result,
            interaction_n: 0,
        }
    }
}

/// The fleet-facing face of the twin-queue experiment: one scalar maps
/// onto *both* bounds (request bound = `setting` items, response bound =
/// `setting` MB), which is exactly the static alternative the paper
/// dismisses — a pair sized to survive the worst co-occurrence must be
/// small for both queues at once.
impl Scenario for TwinQueues {
    fn perfconf(&self) -> PerfConf {
        PerfConf {
            id: "TWIN",
            description: "two interacting queue bounds sharing one super-hard memory goal \
                          (paper §6.5, Figure 8)",
            config_name: "max.queue.size + ipc.server.response.queue.maxsize",
            candidates: (1..=12).map(|i| i as f64 * 25.0).collect(),
            // Generous bounds that each look fine alone but together
            // exceed the heap when both queues fill.
            buggy_default: Some(250.0),
            // A conservatively small pair that survives the worst
            // co-occurrence of both workloads.
            patch_default: Some(60.0),
            direction: TradeoffDirection::HigherIsBetter,
            goal: Goal::new("memory_consumption", self.heap_goal_mb())
                .with_hardness(Hardness::SuperHard)
                .expect("positive target"),
            bounds: (0.0, 2_000.0),
            initial: 0.0,
            // Each queue is profiled at four bounds, sampling memory on a
            // 1 s grid after 10 s of warmup (48 samples — see HB3813).
            schedule: ProfileSchedule::grid(
                vec![30.0, 70.0, 110.0, 150.0],
                48,
                10_000_000,
                1_000_000,
            ),
            // Profiled-safe fallbacks: the conservative static pair that
            // survives the worst co-occurrence of both workloads.
            guard: GuardPolicy::new()
                .fallback_setting("max.queue.size", 60.0)
                .fallback_setting("response.queue.maxsize_mb", 60.0),
        }
    }

    fn run_static(&self, setting: f64, seed: u64) -> RunResult {
        let req_bound = setting.round().max(0.0) as usize;
        TwinQueues::run_static(self, req_bound, setting, seed).result
    }

    fn run(&self, seed: u64, spec: &RunSpec, profiles: &[ProfileSet]) -> RunResult {
        self.run_twin(seed, spec, profiles, None).result
    }

    /// TWIN profiles each queue separately: the request queue at
    /// `seed ^ 0xaaaa` and the response queue at `seed ^ 0xbbbb`, in
    /// that order (the order every committed TWIN render was profiled
    /// in, so cached runs replay byte-identically).
    fn evaluation_profiles(&self, seed: u64) -> Vec<ProfileSet> {
        vec![
            self.profile_queue(WhichQueue::Request, seed ^ 0xaaaa),
            self.profile_queue(WhichQueue::Response, seed ^ 0xbbbb),
        ]
    }

    fn profile(&self, seed: u64) -> ProfileSet {
        self.profile_queue(WhichQueue::Request, seed)
    }
}

#[derive(Debug, Clone, Copy)]
enum WhichQueue {
    Request,
    Response,
}

#[derive(Debug)]
enum Ev {
    Arrival,
    ServiceDone,
    SendDone,
    ChurnTick,
    Sample,
}

#[derive(Debug)]
struct TwinModel {
    heap: HeapModel,
    churn: BackgroundChurn,
    req_queue: CountBoundedQueue,
    resp_queue: ByteBoundedQueue,
    plane: ControlPlane,
    req_chan: ChannelId,
    resp_chan: ChannelId,
    phased: PhasedWorkload<YcsbWorkload>,
    serving: bool,
    sending: bool,
    write_request_bytes: u64,
    read_request_bytes: u64,
    read_response_bytes: u64,
    completed: u64,
    crashed: Option<SimTime>,
    goal_mb: f64,
    goal_violated: bool,
    mem_series: TimeSeries,
    req_conf_series: TimeSeries,
    resp_conf_series: TimeSeries,
    req_len_series: TimeSeries,
    resp_bytes_series: TimeSeries,
    horizon: SimTime,
}

impl TwinModel {
    fn used_mb(&self) -> f64 {
        self.heap.used_mb()
    }

    fn control_req(&mut self, now: SimTime) {
        let sensed = Sensed::with_deputy(self.used_mb(), self.req_queue.len() as f64);
        let bound = self
            .plane
            .decide(self.req_chan, now.as_micros(), sensed)
            .round()
            .max(0.0) as usize;
        if self.plane.take_plant_restart(self.req_chan) {
            // Injected plant restart: queued requests are lost.
            self.req_queue.clear();
            self.sync_heap();
        }
        self.req_queue.set_max_items(bound);
        if self.plane.take_plant_shed(self.req_chan) {
            // Guard-directed shedding: a degraded channel drops admitted
            // requests beyond the in-force bound.
            if self.req_queue.shed_to_bound() > 0 {
                self.sync_heap();
            }
        }
    }

    fn control_resp(&mut self, now: SimTime) {
        let mb = self.resp_queue.bytes() as f64 / MB as f64;
        let sensed = Sensed::with_deputy(self.used_mb(), mb);
        let bound_mb = self
            .plane
            .decide(self.resp_chan, now.as_micros(), sensed)
            .max(0.0);
        if self.plane.take_plant_restart(self.resp_chan) {
            // Injected plant restart: queued responses are lost.
            self.resp_queue.clear();
            self.sync_heap();
        }
        self.resp_queue.set_max_bytes((bound_mb * MB as f64) as u64);
        if self.plane.take_plant_shed(self.resp_chan) {
            // Guard-directed shedding: a degraded channel drops admitted
            // responses beyond the in-force bound.
            if self.resp_queue.shed_to_bound() > 0 {
                self.sync_heap();
            }
        }
    }

    fn sync_heap(&mut self) {
        self.heap.set_component("rpc_queue", self.req_queue.bytes());
        self.heap
            .set_component("response_queue", self.resp_queue.bytes());
    }

    fn check_oom(&mut self, ctx: &mut Context<'_, Ev>) {
        if self.crashed.is_none() && self.heap.is_oom() {
            self.crashed = Some(ctx.now());
            // Terminal sample so post-mortems see the true OOM state.
            let t = ctx.now().as_micros();
            self.mem_series.push(t, self.used_mb());
            self.req_conf_series
                .push(t, self.req_queue.max_items() as f64);
            self.resp_conf_series
                .push(t, self.resp_queue.max_bytes() as f64 / MB as f64);
            self.req_len_series.push(t, self.req_queue.len() as f64);
            self.resp_bytes_series
                .push(t, self.resp_queue.bytes() as f64 / MB as f64);
            ctx.halt();
        }
    }

    fn maybe_start_service(&mut self, ctx: &mut Context<'_, Ev>) {
        if !self.serving && !self.req_queue.is_empty() {
            self.serving = true;
            let depth = self.req_queue.len() as f64;
            let amortized = 2_000_000.0 / (1.0 + depth);
            let svc = SimDuration::from_micros(20_000 + amortized as u64);
            ctx.schedule_in(svc, Ev::ServiceDone);
        }
    }

    fn maybe_start_send(&mut self, ctx: &mut Context<'_, Ev>) {
        if !self.sending && !self.resp_queue.is_empty() {
            self.sending = true;
            let depth = self.resp_queue.len() as f64;
            let amortized = 2_000_000.0 / (1.0 + depth);
            let send = SimDuration::from_micros(10_000 + amortized as u64);
            ctx.schedule_in(send, Ev::SendDone);
        }
    }
}

impl Model for TwinModel {
    type Event = Ev;

    fn handle(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
        match event {
            Ev::Arrival => {
                let now = ctx.now();
                let workload = self.phased.at(now).clone();
                let op = workload.next_op(ctx.rng());
                let bytes = if op.is_write() {
                    self.write_request_bytes
                } else {
                    self.read_request_bytes
                };
                self.control_req(now);
                let pushed = self.req_queue.try_push(QueuedRequest {
                    enqueued_at: now,
                    bytes,
                    is_write: op.is_write(),
                });
                if pushed {
                    self.sync_heap();
                    self.check_oom(ctx);
                }
                if self.crashed.is_none() {
                    self.maybe_start_service(ctx);
                    let gap = workload.arrivals().next_gap(ctx.rng());
                    ctx.schedule_in(gap, Ev::Arrival);
                }
            }
            Ev::ServiceDone => {
                if let Some(item) = self.req_queue.pop() {
                    self.completed += 1;
                    if !item.is_write {
                        // A served read produces a response awaiting
                        // network transmission.
                        self.control_resp(ctx.now());
                        self.resp_queue.try_push(QueuedRequest {
                            enqueued_at: ctx.now(),
                            bytes: self.read_response_bytes,
                            is_write: false,
                        });
                    }
                    self.sync_heap();
                    self.check_oom(ctx);
                }
                self.serving = false;
                if self.crashed.is_none() {
                    self.maybe_start_service(ctx);
                    self.maybe_start_send(ctx);
                }
            }
            Ev::SendDone => {
                if self.resp_queue.pop().is_some() {
                    self.sync_heap();
                }
                self.sending = false;
                self.maybe_start_send(ctx);
            }
            Ev::ChurnTick => {
                let level = self.churn.tick(ctx.rng());
                self.heap.set_component("churn", level);
                self.check_oom(ctx);
                ctx.schedule_in(CHURN_TICK, Ev::ChurnTick);
            }
            Ev::Sample => {
                if self.used_mb() > self.goal_mb {
                    self.goal_violated = true;
                }
                let t = ctx.now().as_micros();
                self.mem_series.push(t, self.used_mb());
                self.req_conf_series
                    .push(t, self.req_queue.max_items() as f64);
                self.resp_conf_series
                    .push(t, self.resp_queue.max_bytes() as f64 / MB as f64);
                self.req_len_series.push(t, self.req_queue.len() as f64);
                self.resp_bytes_series
                    .push(t, self.resp_queue.bytes() as f64 / MB as f64);
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
    use smartconf_core::ModelMode;
    use smartconf_harness::{Baseline, Faults};
    use smartconf_runtime::FaultClass;

    fn quick() -> TwinQueues {
        let mut s = TwinQueues::standard();
        s.phase1 = SimDuration::from_secs(25);
        s.phase2 = SimDuration::from_secs(50);
        s
    }

    #[test]
    fn shed_admitted_holds_hard_goal_under_every_fault_class() {
        // Admission-only guards cannot touch backlog the controller
        // already let in; a guard-degraded channel also drops admitted
        // items past the in-force bound, so no fault class may leave the
        // super-hard memory goal violated.
        let t = quick();
        let profiles = t.evaluation_profiles(13);
        for class in FaultClass::ALL {
            let spec = RunSpec::new(ModelMode::Frozen, Faults::Class(class));
            let out = t.run(13, &spec, &profiles);
            assert!(
                out.constraint_ok,
                "{class:?}: shed-armed chaos run violated the hard goal \
                 (crash: {:?})",
                out.crash_time_us
            );
            // Same spec, same seed: the chaos run must replay exactly.
            let again = t.run(13, &spec, &profiles);
            assert_eq!(out.tradeoff.to_bits(), again.tradeoff.to_bits());
        }
    }

    #[test]
    fn coordinated_controllers_hold_the_constraint() {
        let out = quick().run_smartconf(13);
        assert_eq!(out.interaction_n, 2, "both confs share the super-hard goal");
        assert!(
            out.result.constraint_ok,
            "coordinated controllers must not violate memory: {:?}",
            out.result.crash_time_us
        );
    }

    #[test]
    fn response_queue_grows_after_reads_arrive() {
        let out = quick().run_smartconf(13);
        let resp = out.result.series("response_queue.bytes_mb").unwrap();
        let before = resp.max_in(0, 25_000_000).unwrap_or(0.0);
        let after = resp.max_in(25_000_000, 75_000_000).unwrap();
        assert!(
            after > before + 1.0,
            "responses appear with reads: before {before}, after {after}"
        );
    }

    #[test]
    fn request_bound_tightens_when_responses_take_memory() {
        let out = quick().run_smartconf(13);
        let mem = out.result.series("used_memory_mb").unwrap();
        // Memory stays under the goal throughout (Figure 8's red line).
        let max = mem.summary().unwrap().max;
        assert!(max <= 495.0 + 1e-9, "memory peaked at {max}");
    }

    #[test]
    fn deterministic() {
        let a = quick().run_smartconf(5);
        let b = quick().run_smartconf(5);
        assert_eq!(a.result.tradeoff, b.result.tradeoff);
    }

    #[test]
    fn safe_static_pair_is_slower_than_coordination() {
        let t = quick();
        let smart = t.run_smartconf(13);
        // A static pair sized to survive the worst co-occurrence: small
        // request queue + small response queue.
        let static_small = t.run_static(80, 60.0, 13);
        assert!(
            static_small.result.constraint_ok,
            "the safe pair must survive"
        );
        assert!(
            smart.result.tradeoff > static_small.result.tradeoff,
            "coordination should beat the small static pair: {} vs {}",
            smart.result.tradeoff,
            static_small.result.tradeoff
        );
    }

    #[test]
    fn scenario_impl_defaults_behave_as_labelled() {
        let t = quick();
        let s: &dyn Scenario = &t;
        assert_eq!(s.id(), "TWIN");
        let buggy = s.run_static(s.static_setting(Baseline::BuggyDefault).unwrap(), 13);
        assert!(!buggy.constraint_ok, "the generous pair must violate");
        let patch = s.run_static(s.static_setting(Baseline::PatchDefault).unwrap(), 13);
        assert!(patch.constraint_ok, "the conservative pair must survive");
        let smart = s.run_smartconf(13);
        assert!(smart.constraint_ok);
        assert!(
            smart.tradeoff > patch.tradeoff,
            "coordination beats the small pair"
        );
    }

    #[test]
    fn generous_static_pair_violates_memory() {
        let t = quick();
        // Bounds that each look fine alone but together exceed the heap
        // when both queues fill.
        let r = t.run_static(250, 200.0, 13);
        assert!(
            !r.result.constraint_ok,
            "250 requests + 200 MB responses must blow the 495 MB goal"
        );
    }
}
