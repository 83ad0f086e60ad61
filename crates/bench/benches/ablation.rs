//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! * `convergence/pole_*` — how long (in controller steps, measured as
//!   wall time over a fixed simulated plant loop) each pole takes to
//!   settle: the paper's automatic pole sits between deadbeat and the
//!   §5.2 strawman's near-1 pole.
//! * `vgoal/*` — end-to-end run cost of the Figure 7 controller
//!   variants (the *safety* outcome of this ablation is asserted by the
//!   `figure7` tests; here we show the control path adds no overhead).
//! * `profiling/samples_*` — synthesis cost as the profiling budget
//!   grows (4×10 of the paper vs denser grids).

use criterion::{criterion_group, criterion_main, Criterion};
use smartconf_core::{Controller, ControllerBuilder, Goal, ModelMode, ProfileSet};
use smartconf_kvstore::scenarios::{ControllerVariant, Hb3813};
use std::hint::black_box;

/// Steps a controller against the plant `perf = 2c + 50` until the
/// output settles within 0.1% of the goal.
fn converge(mut ctl: Controller) -> u32 {
    let mut setting = 0.0;
    for step in 0..20_000 {
        let measured = 2.0 * setting + 50.0;
        if (measured - ctl.goal().target()).abs() < 0.001 * ctl.goal().target() {
            return step;
        }
        setting = ctl.step(measured);
    }
    20_000
}

fn bench_pole_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("convergence");
    for pole in [0.0, 0.5, 0.9, 0.99] {
        group.bench_function(format!("pole_{pole}"), |b| {
            b.iter(|| {
                let ctl = ControllerBuilder::new(Goal::new("m", 500.0))
                    .alpha(2.0)
                    .pole(pole)
                    .bounds(0.0, 1e6)
                    .build()
                    .unwrap();
                black_box(converge(ctl))
            });
        });
    }
    group.finish();
}

fn bench_vgoal_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("vgoal");
    group.sample_size(10);
    let scenario = Hb3813::figure7();
    let profile = scenario.collect_profile(77 ^ 0x5eed);
    for (name, variant) in [
        ("smartconf", ControllerVariant::SmartConf),
        ("single_pole", ControllerVariant::SinglePole),
        ("no_virtual_goal", ControllerVariant::NoVirtualGoal),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(scenario.build_controller(&profile, variant, ModelMode::Frozen)));
        });
    }
    group.finish();
}

fn bench_profiling_budget(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiling");
    for samples_per_setting in [10usize, 48, 200] {
        let mut profile = ProfileSet::new();
        for setting in [40.0, 80.0, 120.0, 160.0] {
            for k in 0..samples_per_setting {
                profile.add(setting, 100.0 + 2.0 * setting + (k % 7) as f64);
            }
        }
        group.bench_function(format!("samples_{samples_per_setting}x4"), |b| {
            b.iter(|| {
                let ctl = ControllerBuilder::new(Goal::new("m", 495.0))
                    .profile(black_box(&profile))
                    .unwrap()
                    .build()
                    .unwrap();
                black_box(ctl)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_pole_convergence, bench_vgoal_variants, bench_profiling_budget
}
criterion_main!(benches);
