//! The perf smoke benchmark: per-scenario epoch-loop throughput, the
//! event kernel's rate and the end-to-end fleet wall-clock, each the
//! host-speed-corrected median of [`REPS`] in-process repetitions, with
//! a regression gate against a committed baseline.
//!
//! Three numbers matter for the fleet-scale hot path:
//!
//! * **epochs/sec per scenario** — how fast one control plane's decide
//!   loop turns over once profiling is out of the way (the §6.2 runtime
//!   overhead story). Measured on a SmartConf run fed pre-collected
//!   profiles, so the §6.1 profiling loop is excluded from the timing.
//! * **kernel events/sec** — the event kernel alone on a synthetic
//!   eight-channel plane ([`measure_kernel`]).
//! * **fleet wall-clock** — the serial end-to-end cost of the standard
//!   smoke fleet (all seven scenarios × seeds × the four smoke
//!   policies), profiling included.
//!
//! Every timing is repeated [`REPS`] times in process, and the
//! calibration kernel of [`smartconf_metrics::calibrate`] runs right
//! after each repetition. The recorded figure is the median ratio of
//! timing to calibration, quoted at the reference host speed
//! ([`Timing`]), with its spread across the repetitions. The median
//! absorbs the cold first repetition; the calibration cancels how fast
//! the shared host happens to run at the moment.
//!
//! Only the fleet wall-clock and the kernel rate are gated, each by one
//! ±[`TOLERANCE`] band around the committed corrected headline
//! ([`check_perf`]). Epochs/sec is recorded but not gated: a
//! sub-millisecond decide loop jitters too much for a band.

use std::time::{Duration, Instant};

use smartconf_core::{Controller, Goal, Hardness, SmartConf};
use smartconf_harness::RunSpec;
use smartconf_metrics::calibrate::{calibration_secs, corrected_secs, CALIBRATION_REF_S};
use smartconf_runtime::{
    ChannelId, ControlPlane, Decider, EventPlane, FleetExecutor, Plant, Sensed,
};

use crate::fleet::{fleet_run, fleet_scenarios, SMOKE_POLICIES};
use crate::suite::numbers_after;

/// Fractional tolerance of the `--check` gate: a fresh corrected fleet
/// wall-clock above `baseline * (1 + TOLERANCE)` fails, and one below
/// `baseline * (1 - TOLERANCE)` asks for a baseline refresh (reported,
/// not failed — running faster is not a defect). The kernel rate is
/// gated the same way with the directions swapped.
pub const TOLERANCE: f64 = 0.25;

/// In-process repetitions behind every recorded timing.
pub const REPS: usize = 5;

/// A timing taken [`REPS`] times, each repetition followed by one run
/// of the calibration kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Host-speed-corrected median seconds ([`corrected_secs`]).
    pub secs: f64,
    /// `(max − min) / median` of the repetitions' corrected seconds.
    pub spread: f64,
}

impl Timing {
    /// Runs `rep` [`REPS`] times, each call returning the wall-clock of
    /// its timed region, and calibrates after each.
    pub fn measure(mut rep: impl FnMut() -> Duration) -> Timing {
        let pairs: Vec<(f64, f64)> = (0..REPS)
            .map(|_| (rep().as_secs_f64(), calibration_secs()))
            .collect();
        let secs = corrected_secs(pairs.iter().copied());
        let corrected = pairs.iter().map(|(s, c)| s / c * CALIBRATION_REF_S);
        let lo = corrected.clone().fold(f64::INFINITY, f64::min);
        let hi = corrected.fold(f64::NEG_INFINITY, f64::max);
        Timing {
            secs,
            spread: (hi - lo) / secs,
        }
    }

    /// `count` per corrected second; 0 when the timing rounds to zero.
    pub fn rate(&self, count: u64) -> f64 {
        if self.secs > 0.0 {
            count as f64 / self.secs
        } else {
            0.0
        }
    }
}

/// One scenario's epoch-loop throughput measurement.
#[derive(Debug, Clone)]
pub struct ScenarioPerf {
    /// Scenario identifier, e.g. `"HB3813"`.
    pub id: String,
    /// Total decide epochs across the run's channels.
    pub epochs: u64,
    /// The profiled SmartConf run (profiling excluded).
    pub time: Timing,
}

impl ScenarioPerf {
    /// Epoch-loop throughput; 0 when the timing rounds to zero.
    pub fn epochs_per_sec(&self) -> f64 {
        self.time.rate(self.epochs)
    }
}

/// Simulated horizon of the kernel throughput measurement, microseconds.
/// One hour keeps the fastest cohort (250 ms) at ~14 k epochs — enough
/// events for a stable rate, still well under 100 ms of wall-clock.
const KERNEL_HORIZON_US: u64 = 3_600_000_000;

/// The event kernel's throughput measurement: a synthetic
/// heterogeneous-period plane driven through [`EventPlane`].
#[derive(Debug, Clone)]
pub struct KernelPerf {
    /// Channels in the synthetic plane.
    pub channels: usize,
    /// Calendar events processed over the simulated horizon.
    pub events: u64,
    /// The kernel run.
    pub time: Timing,
}

impl KernelPerf {
    /// Event throughput; 0 when the timing rounds to zero.
    pub fn events_per_sec(&self) -> f64 {
        self.time.rate(self.events)
    }
}

/// A deterministic first-order plant for the kernel measurement: each
/// channel's metric relaxes toward `gain × setting` a fraction per
/// sense, so the controllers keep doing real work (non-zero error every
/// epoch) without the run converging into a fixed point the optimizer
/// could fold away.
#[derive(Debug)]
struct KernelPlant {
    settings: Vec<f64>,
    measured: Vec<f64>,
}

impl Plant for KernelPlant {
    fn now_us(&self) -> u64 {
        0
    }
    fn sense(&mut self, channel: ChannelId) -> Sensed {
        let i = channel.index();
        self.measured[i] += (1.3 * self.settings[i] - self.measured[i]) * 0.5;
        Sensed::direct(self.measured[i])
    }
    fn apply(&mut self, channel: ChannelId, setting: f64) {
        self.settings[channel.index()] = setting;
    }
}

/// Times the event kernel on a synthetic eight-channel plane spanning
/// the roster's sensing periods (250 ms … 5 s), returning the processed
/// event count and corrected timing. Pure decide-loop + calendar cost —
/// no profiling, no scenario plant — so the number isolates what the
/// kernel itself adds per event. Each repetition builds a fresh plane
/// outside its timed region.
pub fn measure_kernel() -> KernelPerf {
    let periods: [u64; 8] = [
        250_000, 250_000, 500_000, 500_000, 1_000_000, 1_000_000, 5_000_000, 5_000_000,
    ];
    let mut events = 0;
    let time = Timing::measure(|| {
        let mut b = ControlPlane::builder();
        for (i, period_us) in periods.iter().enumerate() {
            let goal = Goal::new("m", 200.0)
                .with_hardness(Hardness::Hard)
                .expect("positive target");
            let ctl =
                Controller::new(1.3, 0.3, goal, 0.1, (0.0, 500.0), 10.0).expect("stable pole");
            let name = format!("kernel.chan{i}");
            b.channel_with_period(
                &name,
                Decider::Direct(Box::new(SmartConf::new(name.clone(), ctl))),
                *period_us,
            );
        }
        let plant = KernelPlant {
            settings: vec![10.0; periods.len()],
            measured: vec![0.0; periods.len()],
        };
        let mut kernel = EventPlane::new(b.build(), plant);
        let start = Instant::now();
        kernel.run_until_us(KERNEL_HORIZON_US);
        let wall = start.elapsed();
        events = kernel.events_processed();
        wall
    });
    KernelPerf {
        channels: periods.len(),
        events,
        time,
    }
}

/// Times one profiled SmartConf run per scenario at `seed`: profiles are
/// collected once, outside the timed region, so the measurement isolates
/// the evaluation run's decide loop and plant stepping.
pub fn measure_scenarios(seed: u64) -> Vec<ScenarioPerf> {
    fleet_scenarios()
        .iter()
        .map(|scenario| {
            let profiles = scenario.evaluation_profiles(seed);
            let mut epochs = 0;
            let time = Timing::measure(|| {
                let start = Instant::now();
                let run = scenario.run(seed, &RunSpec::default(), &profiles);
                let wall = start.elapsed();
                epochs = run.epochs.summaries().map(|(_, c)| c.epochs).sum();
                wall
            });
            ScenarioPerf {
                id: scenario.id().to_string(),
                epochs,
                time,
            }
        })
        .collect()
}

/// Times the standard smoke fleet, run serially over `seeds` — the
/// end-to-end number the CI gate compares.
pub fn measure_fleet(seeds: &[u64]) -> Timing {
    Timing::measure(|| fleet_run("fleet", &SMOKE_POLICIES, seeds, 1).1.wall)
}

/// Renders the `BENCH_perf.json` artifact.
pub fn bench_json(
    seed: u64,
    scenarios: &[ScenarioPerf],
    kernel: &KernelPerf,
    seeds: &[u64],
    fleet: &Timing,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        FleetExecutor::available_parallelism().threads()
    ));
    out.push_str(
        "  \"note\": \"each timing is the median of reps in-process repetitions, \
         each divided by a calibration kernel timed right after it and quoted \
         at the host speed where that kernel takes calibration_ref_secs; spread \
         is (max - min) / median over the repetitions. Only the serial fleet \
         wall-clock and kernel events_per_sec are gated\",\n",
    );
    out.push_str(&format!("  \"reps\": {REPS},\n"));
    out.push_str(&format!(
        "  \"calibration_ref_secs\": {CALIBRATION_REF_S},\n"
    ));
    out.push_str(&format!("  \"scenario_seed\": {seed},\n"));
    out.push_str("  \"scenarios\": [\n");
    let lines: Vec<String> = scenarios
        .iter()
        .map(|s| {
            format!(
                "    {{\"id\": \"{}\", \"epochs\": {}, \"wall_clock_secs\": {:.6}, \"spread\": {:.3}, \"epochs_per_sec\": {:.0}}}",
                s.id,
                s.epochs,
                s.time.secs,
                s.time.spread,
                s.epochs_per_sec()
            )
        })
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"kernel\": {{\"channels\": {}, \"events\": {}, \"wall_clock_secs\": {:.6}, \"spread\": {:.3}, \"events_per_sec\": {:.0}}},\n",
        kernel.channels,
        kernel.events,
        kernel.time.secs,
        kernel.time.spread,
        kernel.events_per_sec()
    ));
    let seed_list: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
    out.push_str(&format!("  \"fleet_seeds\": [{}],\n", seed_list.join(", ")));
    let policy_list: Vec<String> = SMOKE_POLICIES
        .iter()
        .map(|p| format!("\"{}\"", p.label()))
        .collect();
    out.push_str(&format!(
        "  \"fleet_policies\": [{}],\n",
        policy_list.join(", ")
    ));
    out.push_str(&format!(
        "  \"fleet_wall_clock_secs\": {:.3},\n",
        fleet.secs
    ));
    out.push_str(&format!("  \"fleet_spread\": {:.3}\n", fleet.spread));
    out.push_str("}\n");
    out
}

/// Extracts `"fleet_wall_clock_secs"` from a `BENCH_perf.json` rendering
/// (the artifact is hand-rolled, so so is the parse).
pub fn parse_fleet_wall(json: &str) -> Option<f64> {
    numbers_after(json, "fleet_wall_clock_secs")
        .first()
        .copied()
}

/// Extracts the kernel's `"events_per_sec"` from a `BENCH_perf.json`
/// rendering (the key only occurs inside the `"kernel"` object; the
/// per-scenario entries record `epochs_per_sec`).
pub fn parse_kernel_rate(json: &str) -> Option<f64> {
    numbers_after(json, "events_per_sec").first().copied()
}

/// The `--check` verdict: how a fresh measurement compares to the
/// committed baseline's band.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckVerdict {
    /// Inside the band.
    Ok,
    /// Past the band on the better side — not a failure, but the
    /// committed baseline understates the current code and should be
    /// regenerated.
    BaselineStale,
    /// Past the band on the worse side (or not measurable) — a perf
    /// regression.
    Regression,
}

/// Which way a gated measurement improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (wall-clock seconds).
    Lower,
    /// Larger is better (events per second).
    Higher,
}

/// Gates a fresh measurement against a committed headline, returning
/// the verdict and the ±[`TOLERANCE`] `[lo, hi]` band around it. Past
/// the band on the worse side per `better` is a regression; on the
/// better side the baseline is merely stale. The gate fails closed: a
/// non-finite measurement, or no headline, is a regression, never a
/// comparison that reads `false` both ways.
pub fn gate(headline: Option<f64>, measured: f64, better: Better) -> (CheckVerdict, [f64; 2]) {
    let band = headline.map_or([f64::NAN; 2], |b| {
        [b * (1.0 - TOLERANCE), b * (1.0 + TOLERANCE)]
    });
    let (worse, improved) = match better {
        Better::Lower => (measured > band[1], measured < band[0]),
        Better::Higher => (measured < band[0], measured > band[1]),
    };
    let finite = measured.is_finite() && band.iter().all(|e| e.is_finite());
    let verdict = if worse || !finite {
        CheckVerdict::Regression
    } else if improved {
        CheckVerdict::BaselineStale
    } else {
        CheckVerdict::Ok
    };
    (verdict, band)
}

/// Gates a fresh `BENCH_perf.json` against a committed baseline with
/// [`gate`]: the fleet wall-clock (lower is better) and the kernel's
/// events/sec (higher is better). Returns the failure lines (empty =
/// pass) and prints every verdict that is not one to stderr. A baseline
/// whose figures are not corrected at this build's
/// [`CALIBRATION_REF_S`] is stale, not compared: raw or
/// differently-scaled seconds against corrected ones would gate on the
/// host, not the code.
pub fn check_perf(fresh: &str, baseline: &str) -> Vec<String> {
    let calibrated_at = numbers_after(baseline, "calibration_ref_secs");
    if calibrated_at != [CALIBRATION_REF_S] {
        return vec![format!(
            "baseline stale — regenerate BENCH_perf.json (calibration_ref_secs {calibrated_at:?}, \
             this build quotes timings at {CALIBRATION_REF_S})"
        )];
    }
    [
        (
            "fleet wall-clock (s)",
            parse_fleet_wall(baseline),
            parse_fleet_wall(fresh),
            Better::Lower,
        ),
        (
            "kernel events/sec",
            parse_kernel_rate(baseline),
            parse_kernel_rate(fresh),
            Better::Higher,
        ),
    ]
    .into_iter()
    .filter_map(|(what, headline, measured, better)| {
        let measured = measured.unwrap_or(f64::NAN);
        let (verdict, [lo, hi]) = gate(headline, measured, better);
        let band = format!("band [{lo:.3}, {hi:.3}], measured {measured:.3}");
        match verdict {
            CheckVerdict::Ok => eprintln!("OK: {what} within the {band}"),
            CheckVerdict::BaselineStale => {
                eprintln!("OK: {what} beats the {band}; consider regenerating the baseline")
            }
            CheckVerdict::Regression => return Some(format!("{what} regression: {band}")),
        }
        None
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(millis: u64) -> Timing {
        Timing {
            secs: millis as f64 / 1e3,
            spread: 0.125,
        }
    }

    #[test]
    fn bench_json_is_well_formed_and_round_trips() {
        let scenarios = vec![ScenarioPerf {
            id: "TOY".into(),
            epochs: 1200,
            time: timing(60),
        }];
        let (kernel, fleet) = fixture();
        let json = bench_json(42, &scenarios, &kernel, &[42, 43], &fleet);
        assert!(json.contains("\"epochs\": 1200"));
        assert!(json.contains("\"epochs_per_sec\": 20000"));
        assert!(json.contains("\"events\": 100000"));
        assert!(json.contains("\"events_per_sec\": 2000000"));
        assert!(json.contains("\"fleet_seeds\": [42, 43]"));
        assert!(json.contains("\"host_cpus\": "));
        assert!(json.contains("\"reps\": 5,\n  \"calibration_ref_secs\": 0.0625,"));
        assert!(json.contains("\"fleet_spread\": 0.125\n}"));
        assert_eq!(parse_fleet_wall(&json), Some(2.5));
    }

    #[test]
    fn kernel_measurement_processes_the_expected_calendar() {
        let k = measure_kernel();
        assert_eq!(k.channels, 8);
        // 2 × 14 400 + 2 × 7 200 + 2 × 3 600 + 2 × 720 epochs, two
        // calendar events (Sense + Actuate) each.
        assert_eq!(k.events, 2 * 2 * (14_400 + 7_200 + 3_600 + 720));
        assert!(k.time.secs > 0.0 && k.time.spread >= 0.0, "{:?}", k.time);
    }

    /// A kernel measurement at 2 M events/s and a 2.5 s serial fleet.
    fn fixture() -> (KernelPerf, Timing) {
        let kernel = KernelPerf {
            channels: 8,
            events: 100_000,
            time: timing(50),
        };
        (kernel, timing(2500))
    }

    /// The ±TOLERANCE verdict for `measured` against headline `baseline`.
    fn raw(baseline: f64, measured: f64, better: Better) -> CheckVerdict {
        gate(Some(baseline), measured, better).0
    }

    #[test]
    fn check_gates_on_the_upper_bound_only() {
        assert_eq!(raw(4.0, 4.0, Better::Lower), CheckVerdict::Ok);
        assert_eq!(raw(4.0, 4.99, Better::Lower), CheckVerdict::Ok);
        assert_eq!(raw(4.0, 5.01, Better::Lower), CheckVerdict::Regression);
        assert_eq!(raw(4.0, 3.01, Better::Lower), CheckVerdict::Ok);
        assert_eq!(raw(4.0, 2.99, Better::Lower), CheckVerdict::BaselineStale);
    }

    #[test]
    fn gate_fails_closed_on_non_finite_measurements() {
        for better in [Better::Lower, Better::Higher] {
            assert_eq!(raw(4.0, f64::NAN, better), CheckVerdict::Regression);
            assert_eq!(raw(4.0, f64::INFINITY, better), CheckVerdict::Regression);
            // No headline: nothing to pass against.
            assert_eq!(gate(None, 4.0, better).0, CheckVerdict::Regression);
        }
    }

    #[test]
    fn epochs_per_sec_handles_zero_wall() {
        let s = ScenarioPerf {
            id: "Z".into(),
            epochs: 10,
            time: timing(0),
        };
        assert_eq!(s.epochs_per_sec(), 0.0);
    }

    #[test]
    fn parse_rejects_missing_key() {
        assert_eq!(parse_fleet_wall("{}"), None);
        assert_eq!(parse_kernel_rate("{}"), None);
    }

    #[test]
    fn kernel_check_gates_on_the_lower_bound_only() {
        assert_eq!(raw(4e6, 4e6, Better::Higher), CheckVerdict::Ok);
        assert_eq!(raw(4e6, 3.01e6, Better::Higher), CheckVerdict::Ok);
        assert_eq!(raw(4e6, 2.99e6, Better::Higher), CheckVerdict::Regression);
        assert_eq!(raw(4e6, 4.99e6, Better::Higher), CheckVerdict::Ok);
        assert_eq!(
            raw(4e6, 5.01e6, Better::Higher),
            CheckVerdict::BaselineStale
        );
    }

    #[test]
    fn kernel_rate_parses_from_rendered_json() {
        let (kernel, fleet) = fixture();
        let json = bench_json(42, &[], &kernel, &[42], &fleet);
        assert_eq!(parse_kernel_rate(&json), Some(2_000_000.0));
    }

    #[test]
    fn check_perf_gates_both_headlines_against_a_calibrated_baseline() {
        let (kernel, fleet) = fixture();
        let fresh = bench_json(42, &[], &kernel, &[42], &fleet);
        assert_eq!(check_perf(&fresh, &fresh), Vec::<String>::new());
        let halved = fresh.replace(
            "\"fleet_wall_clock_secs\": 2.500",
            "\"fleet_wall_clock_secs\": 1.250",
        );
        let doubled = fresh.replace("\"events_per_sec\": 2000000", "\"events_per_sec\": 4000000");
        for (baseline, what) in [(halved, "fleet wall-clock"), (doubled, "kernel events/sec")] {
            let failures = check_perf(&fresh, &baseline);
            assert!(
                failures.len() == 1 && failures[0].starts_with(what),
                "{failures:?}"
            );
        }
    }

    #[test]
    fn check_perf_fails_closed_on_a_pre_calibration_baseline() {
        let (kernel, fleet) = fixture();
        let fresh = bench_json(42, &[], &kernel, &[42], &fleet);
        // Raw seconds, as artifacts carried before timings were
        // calibrated: the same headlines, no calibration reference.
        let raw = fresh.replace("  \"calibration_ref_secs\": 0.0625,\n", "");
        assert_ne!(raw, fresh);
        let rescaled = fresh.replace(
            "\"calibration_ref_secs\": 0.0625",
            "\"calibration_ref_secs\": 0.125",
        );
        for baseline in [raw, rescaled] {
            let failures = check_perf(&fresh, &baseline);
            assert!(
                failures.len() == 1
                    && failures[0].starts_with("baseline stale — regenerate BENCH_perf.json"),
                "{failures:?}"
            );
        }
    }
}
