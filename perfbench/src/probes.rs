//! Per-operation probes: one public call timed in a tight loop on inputs
//! made from the seed, reported as the median ns/op over a few passes.
//! Multiplied by the op counts a timed run reports, they attribute that
//! run's time to layers.

use std::hint::black_box;
use std::time::Instant;

use smartconf_bench::soak::{soak_run, SoakConfig, SoakScenario};
use smartconf_core::{Controller, GainModel, Goal, Hardness, LinearFit, RlsModel, SmartConf};
use smartconf_harness::{SlabGuardPolicy, SoakSlab, SoakTemplate};
use smartconf_metrics::QuantileSketch;
use smartconf_runtime::{
    cohort_epochs, run_cohort_calendar, shard_seed, ChannelId, ControlPlane, Decider, EventPlane,
    FaultClass, FleetExecutor, Plant, Sensed, TenantFaultWindows,
};
use smartconf_workload::KeyDistribution;

use crate::stats::median;

/// Samples per probe; the median sample is reported.
const PASSES: usize = 5;

/// Calls of the probed loop per sample, so a sample lasts milliseconds
/// rather than the tens of microseconds one loop takes.
const REPEAT: u64 = 8;

/// Median ns/op of `pass`, which performs `ops` operations per call.
fn ns_per_op(ops: u64, mut pass: impl FnMut()) -> f64 {
    pass(); // warm caches and branch predictors
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..REPEAT {
                pass();
            }
            start.elapsed().as_nanos() as f64 / (ops * REPEAT) as f64
        })
        .collect();
    median(&samples)
}

/// Deterministic measurement noise in `[-1, 1)` from the seed.
fn noise(seed: u64, i: u64) -> f64 {
    (shard_seed(seed, i) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A first-order plant owned by the benchmark: each sense relaxes the
/// metric toward `1.3 × setting`, so controllers always have work.
#[derive(Debug)]
struct ProbePlant {
    settings: Vec<f64>,
    measured: Vec<f64>,
    senses: u64,
    applies: u64,
}

impl Plant for ProbePlant {
    fn now_us(&self) -> u64 {
        0
    }
    fn sense(&mut self, channel: ChannelId) -> Sensed {
        self.senses += 1;
        let i = channel.index();
        self.measured[i] += (1.3 * self.settings[i] - self.measured[i]) * 0.5;
        Sensed::direct(self.measured[i])
    }
    fn apply(&mut self, channel: ChannelId, setting: f64) {
        self.applies += 1;
        self.settings[channel.index()] = setting;
    }
}

const KERNEL_PERIODS_US: [u64; 8] = [
    250_000, 250_000, 500_000, 500_000, 1_000_000, 1_000_000, 5_000_000, 5_000_000,
];

fn probe_controller(target: f64, hard: bool) -> Controller {
    let mut goal = Goal::new("m", target);
    if hard {
        goal = goal.with_hardness(Hardness::Hard).expect("positive target");
    }
    Controller::new(1.3, 0.3, goal, 0.1, (0.0, 500.0), 10.0).expect("stable pole")
}

/// `runtime.kernel.ns_per_event`: an eight-channel heterogeneous-period
/// plane driven through `EventPlane::run_until_us`, with the plant's own
/// sense/apply time subtracted.
pub fn kernel_ns_per_event(horizon_us: u64) -> f64 {
    let run = || {
        let mut b = ControlPlane::builder();
        for (i, period_us) in KERNEL_PERIODS_US.iter().enumerate() {
            let name = format!("probe.chan{i}");
            let ctl = probe_controller(200.0, true);
            b.channel_with_period(
                &name,
                Decider::Direct(Box::new(SmartConf::new(name.clone(), ctl))),
                *period_us,
            );
        }
        let plant = ProbePlant {
            settings: vec![10.0; KERNEL_PERIODS_US.len()],
            measured: vec![0.0; KERNEL_PERIODS_US.len()],
            senses: 0,
            applies: 0,
        };
        let mut kernel = EventPlane::new(b.build(), plant);
        let start = Instant::now();
        kernel.run_until_us(horizon_us);
        let wall = start.elapsed().as_nanos() as f64;
        let events = kernel.events_processed();
        let (senses, applies) = (kernel.plant().senses, kernel.plant().applies);
        (wall, events, senses, applies)
    };
    // The plant's own cost per call, timed outside the kernel.
    let mut plant = ProbePlant {
        settings: vec![10.0; 1],
        measured: vec![0.0; 1],
        senses: 0,
        applies: 0,
    };
    let chan = {
        let (_, c) = ControlPlane::single("probe", Decider::Static(1.0));
        c
    };
    const PLANT_OPS: u64 = 100_000;
    let sense_ns = ns_per_op(PLANT_OPS, || {
        for _ in 0..PLANT_OPS {
            black_box(plant.sense(black_box(chan)));
        }
    });
    let apply_ns = ns_per_op(PLANT_OPS, || {
        for i in 0..PLANT_OPS {
            plant.apply(black_box(chan), black_box(i as f64));
        }
    });
    run(); // warm-up
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let (wall, events, senses, applies) = run();
            let plant = senses as f64 * sense_ns + applies as f64 * apply_ns;
            (wall - plant) / events.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// `core.controller.ns_per_step` (frozen `LinearFit`) or
/// `core.model.ns_per_adaptive_step` (`RlsModel`): `Controller::step`
/// closed around a linear plant with seeded measurement noise.
pub fn controller_ns_per_step(seed: u64, adaptive: bool, steps: u64) -> f64 {
    let noise: Vec<f64> = (0..steps).map(|i| 4.0 * noise(seed, i)).collect();
    let make = || {
        let goal = Goal::new("m", 200.0)
            .with_hardness(Hardness::Hard)
            .expect("positive target");
        let model = if adaptive {
            GainModel::Rls(RlsModel::from_fit(&LinearFit::from_parts(1.3, 0.0), 100.0))
        } else {
            GainModel::frozen(1.3)
        };
        Controller::with_model(model, 0.3, goal, 0.1, (0.0, 500.0), 10.0).expect("stable pole")
    };
    ns_per_op(steps, || {
        let mut ctl = make();
        for n in &noise {
            let measured = 1.3 * ctl.current() + n;
            black_box(ctl.step(black_box(measured)));
        }
    })
}

/// The soak probes, each in ns/op.
#[derive(Debug, Clone, Default)]
pub struct SoakProbes {
    pub jitter: f64,
    pub tenant: f64,
    pub step: f64,
    pub guarded_step: f64,
    pub window_at: f64,
    pub sketch_record: f64,
    pub sketch_merge: f64,
    pub tick: f64,
}

/// Times the soak's per-op calls on the run's own templates and traffic
/// shape: the bare law and the guarded ladder alike, whichever the
/// workload's sweep runs.
pub fn soak_probes(config: &SoakConfig, templates: &[&SoakTemplate]) -> SoakProbes {
    const TENANTS: u64 = 256;
    const EPOCHS: u64 = 64;
    const OPS: u64 = TENANTS * EPOCHS;
    let seed = config.seed;
    let traffic = &config.traffic;
    let dist = KeyDistribution::ycsb_default(10_000);
    let mut p = SoakProbes {
        jitter: ns_per_op(OPS, || {
            for t in 0..TENANTS {
                for e in 0..EPOCHS {
                    black_box(traffic.sense_jitter(seed, black_box(t), e));
                }
            }
        }),
        tenant: ns_per_op(TENANTS, || {
            for t in 0..TENANTS {
                black_box(traffic.tenant_weight(seed, black_box(t), &dist));
                black_box(traffic.churn_window(seed, black_box(t), config.horizon_us));
            }
        }),
        ..SoakProbes::default()
    };

    // Loads and jitters the sweep would see, shared by the step probes.
    let inputs: Vec<(f64, f64)> = (0..OPS)
        .map(|i| {
            (
                1.0 + 0.3 * noise(seed, 2 * i),
                traffic.sense_jitter(seed, i % TENANTS, i),
            )
        })
        .collect();
    let mut steps = Vec::new();
    let mut guarded = Vec::new();
    let mut windows_at = Vec::new();
    for (ti, template) in templates.iter().enumerate() {
        let mut settings = vec![template.initial; TENANTS as usize];
        steps.push(ns_per_op(OPS, || {
            let mut violations = 0u64;
            for (i, (load, jitter)) in inputs.iter().enumerate() {
                let s = &mut settings[i % TENANTS as usize];
                let measured = template.measured(*s, *load, *jitter);
                black_box(template.overshoot(measured));
                violations += (measured > template.target) as u64;
                *s = template.next_setting(*s, measured);
            }
            black_box(violations);
        }));
        for (ci, class) in smartconf_runtime::SOAK_FAULT_CLASSES.iter().enumerate() {
            let windows = TenantFaultWindows::sized_for(
                *class,
                shard_seed(seed, (ti * 8 + ci) as u64),
                cohort_epochs(config.periods_us[0], config.horizon_us),
            );
            windows_at.push(ns_per_op(OPS, || {
                for t in 0..TENANTS {
                    for e in 0..EPOCHS {
                        black_box(windows.at(black_box(t), e));
                    }
                }
            }));
            let faults: Vec<_> = (0..OPS)
                .map(|i| windows.at(i % TENANTS, i / TENANTS))
                .collect();
            let policy = config.guard.encode();
            let mut slabs: Vec<SoakSlab> = (0..TENANTS).map(|_| SoakSlab::new(template)).collect();
            guarded.push(ns_per_op(OPS, || {
                for (i, ((load, jitter), f)) in inputs.iter().zip(&faults).enumerate() {
                    let slab = &mut slabs[i % TENANTS as usize];
                    let age = slab.begin_epoch(template, f.restart);
                    let load = load * traffic.restart_load(age);
                    let out = template.guarded_step(
                        SlabGuardPolicy::decode(policy),
                        slab,
                        f,
                        load,
                        *jitter,
                    );
                    black_box(template.overshoot(out.measured));
                }
            }));
        }
    }
    p.step = median(&steps);
    p.guarded_step = median(&guarded);
    p.window_at = median(&windows_at);

    let values: Vec<f64> = (0..OPS).map(|i| 1.0 + 0.2 * noise(seed, i)).collect();
    let mut sketch = QuantileSketch::new();
    p.sketch_record = ns_per_op(OPS, || {
        for v in &values {
            sketch.record(black_box(*v));
        }
    });
    let mut acc = QuantileSketch::new();
    const MERGES: u64 = 256;
    p.sketch_merge = ns_per_op(MERGES, || {
        for _ in 0..MERGES {
            acc.merge(black_box(&sketch));
        }
    });
    let ticks: u64 = config
        .periods_us
        .iter()
        .map(|&p| cohort_epochs(p, config.horizon_us))
        .sum();
    const CALENDARS: u64 = 32;
    p.tick = ns_per_op(CALENDARS * ticks.max(1), || {
        for _ in 0..CALENDARS {
            black_box(run_cohort_calendar(
                &config.periods_us,
                config.horizon_us,
                |c, e, t| {
                    black_box((c, e, t));
                },
            ));
        }
    });
    p
}

/// Tenants per scenario in an arm probe run: one executor chunk.
const ARM_PROBE_TENANTS: u64 = 4_096;

/// ns per decision of one soak arm: `soak_run` over a small tenant
/// roster on a one-worker executor, median of a few runs. The traced run
/// uses it for the arms its own workload does not sweep, so every arm's
/// cost is on record on both soak workloads.
pub fn arm_ns_per_decision(
    config: &SoakConfig,
    scenarios: &[SoakScenario],
    arm: Option<FaultClass>,
) -> f64 {
    let cfg = SoakConfig {
        tenants: ARM_PROBE_TENANTS.min(config.tenants),
        arms: vec![arm],
        ..config.clone()
    };
    let executor = FleetExecutor::new(1);
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            let report = soak_run(&cfg, scenarios, &executor);
            start.elapsed().as_nanos() as f64 / report.total_senses().max(1) as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_positive_finite_costs() {
        for adaptive in [false, true] {
            let ns = controller_ns_per_step(7, adaptive, 2_000);
            assert!(ns.is_finite() && ns > 0.0, "controller probe {ns}");
        }
        let ns = kernel_ns_per_event(60_000_000);
        assert!(ns.is_finite(), "kernel probe {ns}");
    }

    #[test]
    fn noise_is_seeded_and_bounded() {
        for i in 0..1000 {
            let n = noise(3, i);
            assert!((-1.0..1.0).contains(&n));
            assert_eq!(n, noise(3, i));
        }
        assert_ne!(noise(3, 1), noise(4, 1));
    }
}
