//! The cluster model: master, workers, task lifecycle, disk dynamics.

use std::collections::VecDeque;

use smartconf_metrics::TimeSeries;
use smartconf_runtime::{ChannelId, ChaosSpec, ControlPlane, Decider, Sensed};
use smartconf_simkernel::{BackgroundChurn, Context, Model, SimDuration, SimTime};
use smartconf_workload::{MapTask, WordCountJob};

use crate::WorkerDisk;

/// Events of the cluster model.
#[derive(Debug)]
pub enum ClusterEvent {
    /// Master scheduling pass: assign pending tasks to eligible workers.
    Assign,
    /// Advance running tasks' spill output.
    SpillTick,
    /// A task finished on a worker.
    TaskDone {
        /// Worker index.
        worker: usize,
        /// Index into the running-task table.
        slot_key: u64,
    },
    /// The shuffle fetched a finished task's spill.
    ShuffleDone {
        /// Worker index.
        worker: usize,
        /// Spill bytes to release.
        bytes: u64,
    },
    /// Per-worker co-tenant churn update.
    ChurnTick,
    /// Periodic series sampling.
    Sample,
}

#[derive(Debug)]
struct RunningTask {
    key: u64,
    worker: usize,
    /// The task description, kept so an injected cluster restart can
    /// requeue the task from scratch.
    task: MapTask,
    spill_total: u64,
    spill_written: u64,
    duration: SimDuration,
    started: SimTime,
}

/// One worker's state.
#[derive(Debug)]
struct Worker {
    disk: WorkerDisk,
    churn: BackgroundChurn,
    busy_slots: u32,
}

/// The MapReduce cluster simulation model.
#[derive(Debug)]
pub struct ClusterModel {
    workers: Vec<Worker>,
    slots_per_worker: u32,
    /// The control plane owning the reserve channel. For SmartConf the
    /// deputy is the worst per-worker committed disk usage (MB); the
    /// transducer maps the desired usage back to the reserve,
    /// `minspace = capacity − desired` (paper §5.3's threshold pattern).
    /// The result is shipped to the workers at assignment time.
    pub(crate) plane: ControlPlane,
    chan: ChannelId,
    minspace: u64,
    /// Jobs to run back-to-back.
    jobs: VecDeque<Vec<MapTask>>,
    pending: VecDeque<MapTask>,
    running: Vec<RunningTask>,
    next_key: u64,
    /// Outstanding tasks of the current job (running + pending + shuffling
    /// does not count — a job is done when all its tasks finished).
    tasks_left_in_job: usize,
    /// Processing rate for map input, bytes/second.
    process_rate: f64,
    /// Delay between task completion and its spill being fetched.
    shuffle_delay: SimDuration,
    /// Completion time of the final job.
    pub(crate) finished_at: Option<SimTime>,
    pub(crate) crashed: Option<SimTime>,
    pub(crate) goal_mb: f64,
    pub(crate) goal_violated: bool,
    pub(crate) used_series: TimeSeries,
    horizon: SimTime,
}

impl ClusterModel {
    /// Creates a cluster.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        num_workers: usize,
        slots_per_worker: u32,
        disk_capacity: u64,
        disk_base: u64,
        churn: BackgroundChurn,
        decider: Decider,
        initial_minspace: u64,
        jobs: Vec<Vec<MapTask>>,
        process_rate: f64,
        shuffle_delay: SimDuration,
        goal_mb: f64,
        horizon: SimTime,
    ) -> Self {
        let workers = (0..num_workers)
            .map(|_| Worker {
                disk: WorkerDisk::new(disk_capacity, disk_base),
                churn: churn.clone(),
                busy_slots: 0,
            })
            .collect();
        let mut jobs: VecDeque<Vec<MapTask>> = jobs.into_iter().collect();
        let first = jobs.pop_front().unwrap_or_default();
        let tasks_left = first.len();
        let (plane, chan) = ControlPlane::single("local.dir.minspacestart_mb", decider);
        ClusterModel {
            workers,
            slots_per_worker,
            plane,
            chan,
            minspace: initial_minspace,
            jobs,
            pending: first.into_iter().collect(),
            running: Vec::new(),
            next_key: 0,
            tasks_left_in_job: tasks_left,
            process_rate,
            shuffle_delay,
            finished_at: None,
            crashed: None,
            goal_mb,
            goal_violated: false,
            used_series: TimeSeries::new("worst_worker_disk_mb"),
            horizon,
        }
    }

    /// Arms the fault-injection plane (chaos mode) on the reserve channel.
    pub fn enable_chaos(&mut self, spec: ChaosSpec) {
        self.plane.enable_chaos(spec);
    }

    fn worst_used_mb(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| w.disk.used_mb())
            .fold(0.0, f64::max)
    }

    /// The SmartConf sensor: worst per-worker disk usage *including* the
    /// spill bytes already committed by running tasks but not yet
    /// written. The master knows each task's expected spill, so this is
    /// exactly the kind of sensor the paper asks developers to provide
    /// (§4.1.1) — without it the controller would chase a plant with a
    /// multi-second actuation lag.
    fn worst_committed_mb(&self) -> f64 {
        (0..self.workers.len())
            .map(|wi| {
                let pending: u64 = self
                    .running
                    .iter()
                    .filter(|t| t.worker == wi)
                    .map(|t| t.spill_total - t.spill_written)
                    .sum();
                self.workers[wi].disk.used_mb() + pending as f64 / 1e6
            })
            .fold(0.0, f64::max)
    }

    /// The controller runs on the master at assignment time (conditional
    /// PerfConf: it only takes effect when tasks are being placed).
    fn control_step(&mut self, now: SimTime) {
        // Metric and deputy coincide: the constrained quantity *is* the
        // threshold's deputy (disk usage), so the model gain on the
        // deputy is exactly 1.
        let worst = self.worst_committed_mb();
        let mb = self
            .plane
            .decide(
                self.chan,
                now.as_micros(),
                Sensed::with_deputy(worst, worst),
            )
            .max(0.0);
        self.minspace = (mb * 1e6) as u64;
        if self.plane.take_plant_restart(self.chan) {
            // A cluster restart kills in-flight tasks: their partial
            // spills are cleaned off the local dirs and the tasks are
            // requeued. Spills of finished tasks survive for the shuffle.
            let killed: Vec<RunningTask> = self.running.drain(..).collect();
            for t in killed {
                self.workers[t.worker].disk.release_spill(t.spill_written);
                self.workers[t.worker].busy_slots -= 1;
                self.pending.push_front(t.task);
            }
        }
    }

    fn check_ood(&mut self, ctx: &mut Context<'_, ClusterEvent>) {
        if self.crashed.is_none() && self.workers.iter().any(|w| w.disk.is_full()) {
            self.crashed = Some(ctx.now());
            let t = ctx.now().as_micros();
            self.used_series.push(t, self.worst_used_mb());
            ctx.halt();
        }
    }

    fn try_assign(&mut self, ctx: &mut Context<'_, ClusterEvent>) {
        if self.pending.is_empty() {
            return;
        }
        loop {
            // Re-run the controller per admission: each accepted task
            // changes the committed-spill sensor reading.
            self.control_step(ctx.now());
            let Some(task) = self.pending.front().copied() else {
                break;
            };
            // Hadoop's minspacestart compares the *observed* free space
            // against the threshold — it cannot see the spill bytes that
            // running tasks will still write. SmartConf's sensor feeds
            // committed usage to the controller, which folds that
            // foresight into the threshold it sets; a static threshold
            // must cover in-flight spills by itself.
            let smart = self.plane.decider(self.chan).is_smart();
            let committed_free = |wi: usize| -> u64 {
                let pending_spill: u64 = self
                    .running
                    .iter()
                    .filter(|t| t.worker == wi)
                    .map(|t| t.spill_total - t.spill_written)
                    .sum();
                let free = self.workers[wi].disk.free_bytes();
                if smart {
                    free.saturating_sub(pending_spill)
                } else {
                    free
                }
            };
            // Pick the eligible worker with the most (committed-)free
            // space.
            let candidate = (0..self.workers.len())
                .filter(|&wi| {
                    self.workers[wi].busy_slots < self.slots_per_worker
                        && committed_free(wi) >= self.minspace
                })
                .max_by_key(|&wi| committed_free(wi));
            let Some(wi) = candidate else {
                break;
            };
            self.pending.pop_front();
            self.workers[wi].busy_slots += 1;
            let duration = SimDuration::from_secs_f64(task.input_bytes as f64 / self.process_rate);
            let key = self.next_key;
            self.next_key += 1;
            self.running.push(RunningTask {
                key,
                worker: wi,
                task,
                spill_total: task.spill_bytes,
                spill_written: 0,
                duration,
                started: ctx.now(),
            });
            ctx.schedule_in(
                duration,
                ClusterEvent::TaskDone {
                    worker: wi,
                    slot_key: key,
                },
            );
        }
    }
}

/// Spill-advance granularity.
const SPILL_TICK: SimDuration = SimDuration::from_millis(100);
/// Co-tenant churn granularity.
const CHURN_TICK: SimDuration = SimDuration::from_millis(100);
/// Master scheduling period.
const ASSIGN_TICK: SimDuration = SimDuration::from_millis(200);
/// Series sampling period.
const SAMPLE_TICK: SimDuration = SimDuration::from_millis(250);

impl Model for ClusterModel {
    type Event = ClusterEvent;

    fn handle(&mut self, event: ClusterEvent, ctx: &mut Context<'_, ClusterEvent>) {
        match event {
            ClusterEvent::Assign => {
                self.try_assign(ctx);
                if self.finished_at.is_none() {
                    ctx.schedule_in(ASSIGN_TICK, ClusterEvent::Assign);
                }
            }
            ClusterEvent::SpillTick => {
                for task in &mut self.running {
                    let elapsed = ctx.now().duration_since(task.started).as_micros() as f64;
                    let frac = (elapsed / task.duration.as_micros().max(1) as f64).min(1.0);
                    let should_have = (task.spill_total as f64 * frac) as u64;
                    let delta = should_have.saturating_sub(task.spill_written);
                    if delta > 0 {
                        task.spill_written += delta;
                        self.workers[task.worker].disk.add_spill(delta);
                    }
                }
                self.check_ood(ctx);
                if self.finished_at.is_none() && self.crashed.is_none() {
                    ctx.schedule_in(SPILL_TICK, ClusterEvent::SpillTick);
                }
            }
            ClusterEvent::TaskDone { worker, slot_key } => {
                if let Some(pos) = self.running.iter().position(|t| t.key == slot_key) {
                    let task = self.running.swap_remove(pos);
                    // Write out any spill remainder.
                    let remainder = task.spill_total - task.spill_written;
                    if remainder > 0 {
                        self.workers[worker].disk.add_spill(remainder);
                    }
                    self.workers[worker].busy_slots -= 1;
                    self.tasks_left_in_job -= 1;
                    ctx.schedule_in(
                        self.shuffle_delay,
                        ClusterEvent::ShuffleDone {
                            worker,
                            bytes: task.spill_total,
                        },
                    );
                    self.check_ood(ctx);
                    if self.tasks_left_in_job == 0 {
                        match self.jobs.pop_front() {
                            Some(next) => {
                                self.tasks_left_in_job = next.len();
                                self.pending = next.into_iter().collect();
                            }
                            None => {
                                self.finished_at = Some(ctx.now());
                            }
                        }
                    }
                    self.try_assign(ctx);
                }
            }
            ClusterEvent::ShuffleDone { worker, bytes } => {
                self.workers[worker].disk.release_spill(bytes);
                self.try_assign(ctx);
            }
            ClusterEvent::ChurnTick => {
                for w in &mut self.workers {
                    let level = w.churn.tick(ctx.rng());
                    w.disk.set_other(level);
                }
                self.check_ood(ctx);
                if self.finished_at.is_none() && self.crashed.is_none() {
                    ctx.schedule_in(CHURN_TICK, ClusterEvent::ChurnTick);
                }
            }
            ClusterEvent::Sample => {
                let worst = self.worst_used_mb();
                if worst > self.goal_mb {
                    self.goal_violated = true;
                }
                let t = ctx.now().as_micros();
                self.used_series.push(t, worst);
                if ctx.now() < self.horizon && self.finished_at.is_none() && self.crashed.is_none()
                {
                    ctx.schedule_in(SAMPLE_TICK, ClusterEvent::Sample);
                }
            }
        }
    }
}

/// Builds the task lists for a job description with a given seed.
pub(crate) fn materialize_job(
    job: &WordCountJob,
    rng: &mut smartconf_simkernel::SimRng,
) -> Vec<MapTask> {
    job.map_tasks(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartconf_simkernel::{SimRng, Simulation};

    fn run_cluster(minspace_mb: u64, capacity_mb: u64, churn_mean_mb: f64) -> ClusterModel {
        let mut rng = SimRng::seed_from_u64(3);
        let job1 = materialize_job(&WordCountJob::new(640_000_000, 64_000_000, 2), &mut rng);
        let job2 = materialize_job(&WordCountJob::new(640_000_000, 128_000_000, 2), &mut rng);
        let horizon = SimTime::from_secs(600);
        let model = ClusterModel::new(
            2,
            2,
            capacity_mb * 1_000_000,
            100_000_000,
            BackgroundChurn::with_spikes(churn_mean_mb * 1e6, 1.5e6, 0.002, 4e6, 6e6)
                .with_reversion(0.02),
            Decider::Static(minspace_mb as f64),
            minspace_mb * 1_000_000,
            vec![job1, job2],
            20_000_000.0,
            SimDuration::from_secs(5),
            f64::MAX,
            horizon,
        );
        let mut sim = Simulation::new(model, 3);
        sim.schedule_at(SimTime::ZERO, ClusterEvent::Assign);
        sim.schedule_at(SimTime::ZERO, ClusterEvent::SpillTick);
        sim.schedule_at(SimTime::ZERO, ClusterEvent::ChurnTick);
        sim.schedule_at(SimTime::ZERO, ClusterEvent::Sample);
        sim.run_until(horizon);
        sim.into_model()
    }

    #[test]
    fn jobs_complete_with_roomy_disk() {
        let m = run_cluster(50, 2_000, 150.0);
        assert!(m.crashed.is_none());
        let t = m.finished_at.expect("both jobs complete");
        // 1280 MB of input at 20 MB/s over 4 effective slots: tens of
        // seconds, far below the 600 s horizon.
        assert!(t.as_secs_f64() > 10.0 && t.as_secs_f64() < 300.0);
    }

    #[test]
    fn bigger_reserve_slows_the_job() {
        let fast = run_cluster(50, 2_000, 150.0);
        let slow = run_cluster(1_720, 2_000, 150.0);
        let tf = fast.finished_at.expect("completes").as_secs_f64();
        let ts = slow.finished_at.expect("completes").as_secs_f64();
        assert!(
            ts > tf,
            "reserve 1720MB ({ts}s) should be slower than 50MB ({tf}s)"
        );
    }

    #[test]
    fn tiny_disk_with_no_reserve_goes_ood() {
        let m = run_cluster(0, 420, 200.0);
        assert!(
            m.crashed.is_some(),
            "spills plus churn on a 420MB disk must exhaust it"
        );
    }

    #[test]
    fn reserve_prevents_ood_at_cost_of_time() {
        let m = run_cluster(260, 480, 150.0);
        assert!(m.crashed.is_none(), "a large reserve must protect the disk");
    }
}
