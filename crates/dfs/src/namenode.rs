//! The namenode: namespace lock shared by writers and `du` traversals.

use std::collections::VecDeque;
use std::sync::Arc;

use smartconf_metrics::TimeSeries;
use smartconf_runtime::{ChannelId, ChaosSpec, ControlPlane, Decider, Sensed};
use smartconf_simkernel::{Context, Model, SimDuration, SimTime};

use crate::namespace::{ContentSummary, Namespace, TraversalCursor};

/// Events of the namenode model.
#[derive(Debug)]
pub enum NamenodeEvent {
    /// A client write operation arrives.
    WriteArrival,
    /// A `du` (content summary) request arrives.
    DuArrival,
    /// The current traversal quantum finishes and the lock is released.
    QuantumEnd,
    /// The yield window (writer drain + re-acquisition) ends; the next
    /// quantum may start.
    YieldEnd,
    /// Periodic series sampling.
    Sample,
}

/// One in-flight or queued `du` request.
#[derive(Debug, Clone)]
struct DuRequest {
    arrived: SimTime,
    cursor: TraversalCursor,
    summary: ContentSummary,
}

/// The namenode simulation model.
///
/// A `du` traversal holds the namespace lock for `limit × per_file_cost`
/// per quantum. Writers arriving during a quantum wait for
/// [`NamenodeEvent::QuantumEnd`]; their wait is the write-block latency
/// HD4995's users complained about.
#[derive(Debug)]
pub struct NamenodeModel {
    /// Traversal cost per inode.
    per_file: SimDuration,
    /// Lock re-acquisition + writer-drain overhead between quanta.
    yield_overhead: SimDuration,
    /// Current `content-summary.limit`.
    limit: u64,
    /// The control plane owning the limit channel. For SmartConf the
    /// deputy is the inodes traversed in the last quantum and the metric
    /// is the worst writer-block duration since the last adjustment.
    pub(crate) plane: ControlPlane,
    chan: ChannelId,
    /// Mean gap between write arrivals.
    write_gap_mean: SimDuration,
    /// Mean gap between `du` arrivals ([`SimDuration::ZERO`] disables).
    du_gap_mean: SimDuration,
    /// The namespace every `du` traverses. Shared read-only across
    /// models so fleet shards reuse one synthesized tree.
    namespace: Arc<Namespace>,
    /// Active `du`, if any.
    active: Option<DuRequest>,
    /// Queued `du` requests.
    du_queue: VecDeque<DuRequest>,
    /// Whether a quantum currently holds the lock.
    in_quantum: bool,
    /// Files being traversed in the current quantum.
    quantum_files: u64,
    /// Writers waiting for the quantum to end (arrival times).
    waiting_writers: Vec<SimTime>,
    /// Worst writer block observed since the last controller step.
    worst_block_secs: f64,
    /// Worst writer block in the whole run.
    pub(crate) run_worst_block_secs: f64,
    /// Total latency of every completed `du` (µs).
    pub(crate) du_latency_sum_us: u128,
    /// Number of completed `du`s.
    pub(crate) du_completed: u64,
    /// Summary returned by the most recently completed `du`.
    pub(crate) last_summary: Option<ContentSummary>,
    pub(crate) block_series: TimeSeries,
    pub(crate) conf_series: TimeSeries,
    horizon: SimTime,
}

impl NamenodeModel {
    /// Creates a model whose limit channel is adjusted at quantum edges.
    pub fn new(
        per_file: SimDuration,
        yield_overhead: SimDuration,
        decider: Decider,
        write_gap_mean: SimDuration,
        du_gap_mean: SimDuration,
        namespace: Arc<Namespace>,
        horizon: SimTime,
    ) -> Self {
        let (mut plane, chan) = ControlPlane::single("content-summary.limit", decider);
        let initial_limit = plane.setting(chan).max(0.0) as u64;
        NamenodeModel {
            per_file,
            yield_overhead,
            limit: initial_limit,
            plane,
            chan,
            write_gap_mean,
            du_gap_mean,
            namespace,
            active: None,
            du_queue: VecDeque::new(),
            in_quantum: false,
            quantum_files: 0,
            waiting_writers: Vec::new(),
            worst_block_secs: 0.0,
            run_worst_block_secs: 0.0,
            du_latency_sum_us: 0,
            du_completed: 0,
            last_summary: None,
            block_series: TimeSeries::new("write_block_secs"),
            conf_series: TimeSeries::new("content-summary.limit"),
            horizon,
        }
    }

    /// Mean latency of the completed `du`s (µs); NaN when none
    /// completed.
    pub(crate) fn du_mean_latency_us(&self) -> f64 {
        self.du_latency_sum_us as f64 / self.du_completed as f64
    }

    /// Current traversal limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Arms the fault-injection plane (chaos mode) on the limit channel.
    pub fn enable_chaos(&mut self, spec: ChaosSpec) {
        self.plane.enable_chaos(spec);
    }

    /// Updates the goal of a SmartConf channel (phase goal change).
    pub fn set_goal(&mut self, goal_secs: f64) {
        self.plane
            .set_goal(self.chan, goal_secs)
            .expect("finite goal");
    }

    /// Adjusts the limit before a quantum: the controller reads the worst
    /// block observed since its last step and the deputy (inodes actually
    /// traversed last quantum).
    fn control_step(&mut self, now: SimTime, last_quantum_files: u64) {
        if self.worst_block_secs > 0.0 && last_quantum_files > 0 {
            let sensed = Sensed::with_deputy(self.worst_block_secs, last_quantum_files as f64);
            self.limit = self
                .plane
                .decide(self.chan, now.as_micros(), sensed)
                .round()
                .max(1_000.0) as u64;
            if self.plane.take_plant_restart(self.chan) {
                // A namenode restart aborts the in-flight traversal and
                // drops queued `du`s; blocked writers retry after failover.
                self.active = None;
                self.du_queue.clear();
                self.waiting_writers.clear();
                self.quantum_files = 0;
            }
            self.worst_block_secs = 0.0;
        }
    }

    fn start_quantum(&mut self, ctx: &mut Context<'_, NamenodeEvent>) {
        let Some(active) = &self.active else {
            return;
        };
        self.in_quantum = true;
        self.quantum_files = active.cursor.remaining().min(self.limit.max(1));
        let hold = self.per_file * self.quantum_files;
        ctx.schedule_in(hold, NamenodeEvent::QuantumEnd);
    }
}

impl Model for NamenodeModel {
    type Event = NamenodeEvent;

    fn handle(&mut self, event: NamenodeEvent, ctx: &mut Context<'_, NamenodeEvent>) {
        match event {
            NamenodeEvent::WriteArrival => {
                let now = ctx.now();
                if self.in_quantum {
                    self.waiting_writers.push(now);
                }
                let gap = ctx.rng().exp_gap(self.write_gap_mean);
                ctx.schedule_in(gap, NamenodeEvent::WriteArrival);
            }
            NamenodeEvent::DuArrival => {
                let now = ctx.now();
                let request = DuRequest {
                    arrived: now,
                    cursor: TraversalCursor::new(&self.namespace, self.namespace.root()),
                    summary: ContentSummary::default(),
                };
                if self.active.is_none() {
                    self.active = Some(request);
                    self.control_step(now, self.quantum_files);
                    self.start_quantum(ctx);
                } else {
                    self.du_queue.push_back(request);
                }
                if !self.du_gap_mean.is_zero() {
                    let gap = ctx.rng().exp_gap(self.du_gap_mean);
                    ctx.schedule_in(gap, NamenodeEvent::DuArrival);
                }
            }
            NamenodeEvent::QuantumEnd => {
                let now = ctx.now();
                self.in_quantum = false;
                // Drain the writers that piled up behind the lock.
                for &arrived in &self.waiting_writers {
                    let waited = now.duration_since(arrived);
                    let secs = waited.as_secs_f64();
                    self.worst_block_secs = self.worst_block_secs.max(secs);
                    self.run_worst_block_secs = self.run_worst_block_secs.max(secs);
                    self.block_series.push(now.as_micros(), secs);
                }
                self.waiting_writers.clear();

                if let Some(active) = &mut self.active {
                    active.summary += active.cursor.advance(&self.namespace, self.quantum_files);
                    if active.cursor.is_done() {
                        let latency = now.duration_since(active.arrived);
                        self.du_latency_sum_us += u128::from(latency.as_micros());
                        self.du_completed += 1;
                        self.last_summary = Some(active.summary);
                        self.active = self.du_queue.pop_front();
                    }
                }
                if self.active.is_some() {
                    ctx.schedule_in(self.yield_overhead, NamenodeEvent::YieldEnd);
                }
            }
            NamenodeEvent::YieldEnd => {
                if self.active.is_some() && !self.in_quantum {
                    self.control_step(ctx.now(), self.quantum_files);
                    self.start_quantum(ctx);
                }
            }
            NamenodeEvent::Sample => {
                let t = ctx.now().as_micros();
                self.conf_series.push(t, self.limit as f64);
                if ctx.now() < self.horizon {
                    ctx.schedule_in(SimDuration::from_millis(500), NamenodeEvent::Sample);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartconf_simkernel::Simulation;

    fn run(limit: u64, du_files: u64, secs: u64) -> NamenodeModel {
        let horizon = SimTime::from_secs(secs);
        let namespace = Namespace::synthesize_shared(du_files, 100, 1);
        let model = NamenodeModel::new(
            SimDuration::from_micros(20),
            SimDuration::from_secs(2),
            Decider::Static(limit as f64),
            SimDuration::from_millis(10),
            SimDuration::ZERO,
            namespace,
            horizon,
        );
        let mut sim = Simulation::new(model, 7);
        sim.schedule_at(SimTime::ZERO, NamenodeEvent::WriteArrival);
        sim.schedule_at(SimTime::ZERO, NamenodeEvent::DuArrival);
        sim.schedule_at(SimTime::ZERO, NamenodeEvent::Sample);
        sim.run_until(horizon);
        sim.into_model()
    }

    #[test]
    fn single_du_completes_and_latency_includes_yields() {
        // 100k files at 20us = 2s of traversal; limit 25k => 4 quanta,
        // 3 yields of 2s each => ~8s total.
        let m = run(25_000, 100_000, 30);
        assert_eq!(m.du_completed, 1);
        let s = m.last_summary.expect("du produced a summary");
        assert_eq!(s.file_count, 100_000);
        assert!(s.length > 0);
        let lat_s = m.du_mean_latency_us() / 1e6;
        assert!((7.0..12.0).contains(&lat_s), "du latency {lat_s}s");
    }

    #[test]
    fn bigger_limit_blocks_writers_longer() {
        let small = run(25_000, 100_000, 30);
        let big = run(100_000, 100_000, 30);
        assert!(
            big.run_worst_block_secs > small.run_worst_block_secs,
            "big {} <= small {}",
            big.run_worst_block_secs,
            small.run_worst_block_secs
        );
        // Worst block is about one quantum: limit * 20us.
        assert!((big.run_worst_block_secs - 2.0).abs() < 0.3);
        assert!((small.run_worst_block_secs - 0.5).abs() < 0.2);
    }

    #[test]
    fn bigger_limit_speeds_du() {
        let small = run(10_000, 100_000, 60);
        let big = run(100_000, 100_000, 60);
        assert!(big.du_mean_latency_us() < small.du_mean_latency_us());
    }

    #[test]
    fn writes_flow_freely_without_du() {
        let horizon = SimTime::from_secs(5);
        let model = NamenodeModel::new(
            SimDuration::from_micros(20),
            SimDuration::from_secs(2),
            Decider::Static(1_000.0),
            SimDuration::from_millis(10),
            SimDuration::ZERO,
            Arc::new(Namespace::new()),
            horizon,
        );
        let mut sim = Simulation::new(model, 7);
        sim.schedule_at(SimTime::ZERO, NamenodeEvent::WriteArrival);
        sim.run_until(horizon);
        let m = sim.into_model();
        // No writer ever waited behind the lock.
        assert!(m.block_series.is_empty());
        assert_eq!(m.run_worst_block_secs, 0.0);
    }
}
