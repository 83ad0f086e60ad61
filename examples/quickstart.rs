//! Quickstart: put one configuration under SmartConf control.
//!
//! Walks the full paper workflow on a toy system whose memory is
//! `100 + 2 × cache_size` MB plus noise:
//!
//! 1. profile the metric at a few settings (paper §6.1: 4 × 10 samples)
//!    under the disturbance range the system will meet,
//! 2. state the user's goal (memory ≤ 495 MB, hard),
//! 3. synthesize the controller (gain, pole, virtual goal — all derived),
//! 4. run the set_perf/conf loop at the configuration's use site.
//!
//! Run with: `cargo run --example quickstart`

use smartconf::core::{ControllerBuilder, Error, Goal, Hardness, ProfileSet, SmartConf};
use smartconf::simkernel::SimRng;

/// The "system": memory responds to the cache-size setting with noise
/// and, late in the run, a disturbance (another component allocates).
fn measure_memory(setting: f64, disturbance: f64, rng: &mut SimRng) -> f64 {
    100.0 + 2.0 * setting + disturbance + rng.normal(0.0, 3.0)
}

fn main() -> Result<(), Error> {
    let mut rng = SimRng::seed_from_u64(7);

    // 1. Profile: 4 settings x 10 measurements, each under a disturbance
    //    drawn from the 0-120 MB range the run will meet. The spread it
    //    adds is what sizes the virtual goal's safety margin (lambda): a
    //    profile taken without it leaves only noise-sized headroom.
    let mut profile = ProfileSet::new();
    for setting in [40.0, 80.0, 120.0, 160.0] {
        for _ in 0..10 {
            let disturbance = rng.uniform(0.0, 120.0);
            profile.add(setting, measure_memory(setting, disturbance, &mut rng));
        }
    }
    let fit = profile.fit()?;
    println!(
        "profiled: alpha = {:.2} MB per cache slot, lambda = {:.3}",
        fit.alpha(),
        profile.lambda()
    );

    // 2. The user's goal, stated in the application config.
    let goal = Goal::new("memory_mb", 495.0).with_hardness(Hardness::Hard)?;

    // 3. Synthesis: no control parameter is supplied anywhere.
    let controller = ControllerBuilder::new(goal)
        .profile(&profile)?
        .bounds(0.0, 1_000.0)
        .initial(0.0)
        .build()?;
    println!(
        "synthesized: pole = {:.3}, virtual goal = {:.1} MB (constraint 495 MB)",
        controller.pole(),
        controller.effective_target()
    );
    let mut cache_size = SmartConf::new("cache.size", controller);

    // 4. The use-site loop. From step 60 a disturbance ramps in:
    //    another component grows to 120 MB over 15 steps (allocations
    //    build up over GC cycles; they do not appear in one instant).
    let mut setting = 0.0;
    for step in 0..120i32 {
        let disturbance = ((step - 59).clamp(0, 15) as f64) * 8.0;
        let memory = measure_memory(setting, disturbance, &mut rng);
        assert!(
            memory <= 505.0,
            "constraint blown at step {step}: {memory:.1} MB"
        );

        cache_size.set_perf(memory);
        setting = cache_size.conf();

        if step % 20 == 0 || step == 61 {
            println!("step {step:>3}: memory {memory:>6.1} MB -> cache.size {setting:>6.1}");
        }
    }
    println!("\nthe cache grew to use the headroom, then shrank when the");
    println!("disturbance arrived - no OOM, no manual tuning.");
    Ok(())
}
