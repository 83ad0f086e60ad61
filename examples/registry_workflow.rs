//! The full §4 developer workflow, file to controller:
//!
//! 1. the developer ships `SmartConf.sys` (configuration → metric
//!    mapping, bounds, initial values) with `profiling = on`;
//! 2. the user writes goals into the application config;
//! 3. the host sees the switch on, so a first run under a safe static
//!    setting records profiling samples into `<ConfName>.SmartConf.sys`
//!    by calling [`ProfilingCapture::record`] directly: no controller
//!    can be synthesised before a profile exists, so there is no
//!    `set_perf` to capture through yet;
//! 4. the next start loads everything into the [`Registry`], builds the
//!    controller with `build_indirect`, and the configuration adjusts
//!    itself through `set_perf`/`conf` — including a run-time `setGoal`.
//!
//! Run with: `cargo run --example registry_workflow`

use std::error::Error;
use std::fs;

use smartconf::core::{ProfilingCapture, Registry, SmartConfIndirect};
use smartconf::simkernel::SimRng;

/// The "system": memory responds to the queue length.
fn memory_mb(queue_len: f64, rng: &mut SimRng) -> f64 {
    100.0 + 2.0 * queue_len + rng.normal(0.0, 3.0)
}

fn main() -> Result<(), Box<dyn Error>> {
    let dir = std::env::temp_dir().join(format!("smartconf-workflow-{}", std::process::id()));
    fs::create_dir_all(&dir)?;
    let mut rng = SimRng::seed_from_u64(11);

    // (1) Developer-shipped system file...
    fs::write(
        dir.join("SmartConf.sys"),
        "/* SmartConf.sys */\n\
         profiling = on\n\
         max.queue.size @ memory_consumption_max\n\
         max.queue.size = 50\n\
         max.queue.size.indirect = 1\n\
         max.queue.size.max = 2000\n",
    )?;
    // (2) ...and the user's goal.
    fs::write(
        dir.join("app.conf"),
        "memory_consumption_max = 495\nmemory_consumption_max.hard = 1\n",
    )?;

    // (3) First run: a safe static bound while profiling records
    // samples. With no profile there is no controller yet, so the
    // samples go to `capture.record` directly rather than through
    // `set_perf`. We sweep a few bounds as the paper's profiling phase
    // does.
    {
        let mut registry = Registry::new();
        registry.load_sys_file(dir.join("SmartConf.sys"))?;
        println!(
            "profiling capture enabled: {}",
            registry.profiling_enabled()
        );
        // The switch is the host's to act on: with `profiling = off` it
        // attaches no capture, and step 4 finds no profile to load.
        if registry.profiling_enabled() {
            let mut capture = ProfilingCapture::new(&dir, "max.queue.size", 16);
            for bound in [40.0, 80.0, 120.0, 160.0] {
                for _ in 0..10 {
                    capture.record(bound, memory_mb(bound, &mut rng));
                }
            }
            capture.flush()?;
            println!(
                "captured {} profiling samples to {}",
                capture.recorded(),
                ProfilingCapture::file_path(&dir, "max.queue.size")
                    .file_name()
                    .expect("capture path names a file")
                    .to_string_lossy()
            );
        }
    }

    // (4) Next start: everything loads from disk; the configuration now
    // adjusts itself.
    let mut registry = Registry::new();
    registry.load_sys_file(dir.join("SmartConf.sys"))?;
    registry.load_app_file(dir.join("app.conf"))?;
    registry.load_profile_file(
        "max.queue.size",
        ProfilingCapture::file_path(&dir, "max.queue.size"),
    )?;
    let mut conf = registry.build_indirect("max.queue.size")?;
    println!("built controller for {}", conf.name());

    let mut queue_len = 0.0_f64;
    for step in 0..60 {
        let measured = memory_mb(queue_len, &mut rng);
        conf.set_perf(measured, queue_len);
        let bound = conf.conf();
        queue_len = queue_len.max(0.0).min(bound); // the queue fills to its bound
        if step % 15 == 0 {
            println!("step {step:>2}: memory {measured:>6.1} MB -> max.queue.size {bound:>6.1}");
        }
        queue_len = bound.min(queue_len + 40.0);
    }

    // An administrator tightens the goal at run time.
    conf.set_goal(400.0)?;
    println!("\nsetGoal(400): retargeted {}", conf.name());
    for _ in 0..40 {
        let measured = memory_mb(queue_len, &mut rng);
        conf.set_perf(measured, queue_len);
        queue_len = conf.conf().min(queue_len + 40.0);
    }
    let final_mem = memory_mb(queue_len, &mut rng);
    println!("after retarget: memory settles at {final_mem:.1} MB (goal 400)");
    assert!(final_mem < 410.0);

    // Custom-transducer configurations build from the same registry.
    let custom = registry.build_indirect_with(
        "max.queue.size",
        Box::new(smartconf::core::FnTransducer::new(|x: f64| x.round())),
    )?;
    let _: &SmartConfIndirect = &custom;
    println!("custom-transducer build also works: {}", custom.name());

    fs::remove_dir_all(&dir)?;
    Ok(())
}
