//! The perf smoke benchmark: per-scenario epoch-loop throughput plus the
//! end-to-end fleet wall-clock, with a regression gate against a
//! committed baseline.
//!
//! Two numbers matter for the fleet-scale hot path:
//!
//! * **epochs/sec per scenario** — how fast one control plane's decide
//!   loop turns over once profiling is out of the way (the §6.2 runtime
//!   overhead story). Measured on a SmartConf run fed pre-collected
//!   profiles, so the §6.1 profiling loop is excluded from the timing.
//! * **fleet wall-clock** — the serial end-to-end cost of the standard
//!   smoke fleet (all seven scenarios × seeds × the four smoke
//!   policies), profiling included. This is what the CI gate watches.
//!
//! Only the fleet wall-clock and kernel rate are hard-gated: epochs/sec
//! is recorded for trend-watching (and carried into the `"history"`
//! record per scenario) but a per-scenario gate would be too noisy on
//! shared CI hosts, where a sub-millisecond decide loop can jitter by
//! integer factors.
//!
//! The gate has two modes. With fewer than [`STAT_MIN_HISTORY`] runs on
//! record, a fresh number is compared to the committed headline with a
//! raw ±[`TOLERANCE`] band. Once the baseline's `"history"` array holds
//! [`STAT_MIN_HISTORY`] or more entries, the gate switches to the
//! robust statistical band median ± [`STAT_K`]·MAD over the recorded
//! trend ([`stat_gate`]) — a single slow committed run no longer skews
//! the acceptance window, and genuine drifts are caught tighter than
//! ±25 %.

use std::time::{Duration, Instant};

use smartconf_core::{Controller, Goal, Hardness, SmartConf};
use smartconf_harness::RunSpec;
use smartconf_runtime::{
    ChannelId, ControlPlane, Decider, EventPlane, FleetExecutor, Plant, Sensed,
};

use crate::fleet::{fleet_run, fleet_scenarios, FleetPhase, SMOKE_POLICIES};

/// Fractional wall-clock tolerance of the `--check` gate: a new fleet
/// wall-clock above `baseline * (1 + TOLERANCE)` fails, and one below
/// `baseline * (1 - TOLERANCE)` asks for a baseline refresh (reported,
/// not failed — running faster is not a defect).
pub const TOLERANCE: f64 = 0.25;

/// One scenario's epoch-loop throughput measurement.
#[derive(Debug, Clone)]
pub struct ScenarioPerf {
    /// Scenario identifier, e.g. `"HB3813"`.
    pub id: String,
    /// Total decide epochs across the run's channels.
    pub epochs: u64,
    /// Wall-clock of the profiled SmartConf run (profiling excluded).
    pub wall: Duration,
}

impl ScenarioPerf {
    /// Epoch-loop throughput; 0 when the wall-clock rounds to zero.
    pub fn epochs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.epochs as f64 / secs
        } else {
            0.0
        }
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
    /// Wall-clock of the kernel run.
    pub wall: Duration,
}

impl KernelPerf {
    /// Event throughput; 0 when the wall-clock rounds to zero.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
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
/// event count and wall-clock. Pure decide-loop + calendar cost — no
/// profiling, no scenario plant — so the number isolates what the
/// kernel itself adds per event.
pub fn measure_kernel() -> KernelPerf {
    let periods: [u64; 8] = [
        250_000, 250_000, 500_000, 500_000, 1_000_000, 1_000_000, 5_000_000, 5_000_000,
    ];
    let mut b = ControlPlane::builder();
    for (i, period_us) in periods.iter().enumerate() {
        let goal = Goal::new("m", 200.0)
            .with_hardness(Hardness::Hard)
            .expect("positive target");
        let ctl = Controller::new(1.3, 0.3, goal, 0.1, (0.0, 500.0), 10.0).expect("stable pole");
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
    KernelPerf {
        channels: periods.len(),
        events: kernel.events_processed(),
        wall,
    }
}

/// Times one profiled SmartConf run per scenario at `seed`: profiles are
/// collected outside the timed region, so the measurement isolates the
/// evaluation run's decide loop and plant stepping.
pub fn measure_scenarios(seed: u64) -> Vec<ScenarioPerf> {
    fleet_scenarios()
        .iter()
        .map(|scenario| {
            let profiles = scenario.evaluation_profiles(seed);
            let start = Instant::now();
            let run = scenario.run(seed, &RunSpec::default(), &profiles);
            let wall = start.elapsed();
            let epochs = run.epochs.summaries().map(|(_, c)| c.epochs).sum();
            ScenarioPerf {
                id: scenario.id().to_string(),
                epochs,
                wall,
            }
        })
        .collect()
}

/// Runs the standard smoke fleet serially over `seeds` and returns the
/// timed phase — the end-to-end number the CI gate compares.
pub fn measure_fleet(seeds: &[u64]) -> FleetPhase {
    fleet_run("fleet", &SMOKE_POLICIES, seeds, 1).1
}

/// One discarded pass over every timed path before the real
/// measurements: first-touch costs (page faults on cold binaries,
/// process-wide memos like HD4995's shared-namespace synthesis, branch
/// predictor and allocator warm-up) otherwise land entirely in the
/// first sample and pollute the median ± k·MAD history gate with a
/// bimodal cold/warm mixture. The timings are thrown away; only the
/// side effects (hot caches) persist.
pub fn warmup_pass(seed: u64) {
    let _ = measure_scenarios(seed);
    let _ = measure_kernel();
    let _ = measure_fleet(&[seed]);
}

/// Maximum prior runs retained in the artifact's `"history"` array.
pub const HISTORY_CAP: usize = 32;

/// Extracts the previous artifact's per-scenario epochs/sec as
/// `(id, rate)` pairs, in document order. Used by [`carry_history`] so
/// per-scenario trends survive into the history record instead of being
/// lost between baseline rewrites.
pub fn parse_scenario_rates(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    // Only the entries of the top-level "scenarios" array carry both an
    // "id" and an "epochs_per_sec"; history entries embed rates under
    // "scenario_rates" (no "id" keys), so this scan cannot double-count.
    while let Some(pos) = rest.find("\"id\": \"") {
        rest = &rest[pos + "\"id\": \"".len()..];
        let Some(end) = rest.find('"') else { break };
        let id = rest[..end].to_string();
        let Some(rate) = parse_number_after(rest, "epochs_per_sec") else {
            break;
        };
        out.push((id, rate));
    }
    out
}

/// Carries the run history forward when rewriting `BENCH_perf.json`:
/// extracts the previous artifact's `"history"` entries, appends the
/// previous run's own headline numbers — fleet wall, kernel rate, *and*
/// per-scenario epochs/sec — as the newest entry, and clamps to the most
/// recent [`HISTORY_CAP`]. The entries use the keys `fleet_secs` /
/// `kernel_rate` / `scenario_rates` (not the top-level key names) so the
/// headline parsers keep finding the *current* run first.
pub fn carry_history(previous: &str) -> Vec<String> {
    let mut entries: Vec<String> = Vec::new();
    if let Some(start) = previous.find("\"history\": [") {
        let rest = &previous[start + "\"history\": [".len()..];
        if let Some(end) = rest.find(']') {
            entries.extend(
                rest[..end]
                    .lines()
                    .map(str::trim)
                    .filter(|l| l.starts_with('{'))
                    .map(|l| l.trim_end_matches(',').to_string()),
            );
        }
    }
    if let (Some(fleet), Some(rate)) = (parse_fleet_wall(previous), parse_kernel_rate(previous)) {
        let rates: Vec<String> = parse_scenario_rates(previous)
            .iter()
            .map(|(id, r)| format!("\"{id}\": {r:.0}"))
            .collect();
        // Carry the previous run's warmup flag into its history entry,
        // so a trend mixing pre-warmup (cold-start-polluted) and warmed
        // samples stays auditable. Artifacts written before the flag
        // existed are recorded as un-warmed.
        let warmed = previous.contains("\"warmup_pass\": true");
        entries.push(format!(
            "{{\"fleet_secs\": {fleet:.3}, \"kernel_rate\": {rate:.0}, \
             \"warmup\": {warmed}, \"scenario_rates\": {{{}}}}}",
            rates.join(", ")
        ));
    }
    if entries.len() > HISTORY_CAP {
        entries.drain(..entries.len() - HISTORY_CAP);
    }
    entries
}

/// Minimum history entries before the statistical gate replaces the raw
/// ±[`TOLERANCE`] band.
pub const STAT_MIN_HISTORY: usize = 5;

/// Width of the statistical gate in MADs: a fresh number farther than
/// `STAT_K · MAD` from the history median is out of band. k = 5 on a
/// MAD (≈ 0.674 σ for normal noise) is roughly a 3.4 σ gate.
pub const STAT_K: f64 = 5.0;

/// Floor on the MAD as a fraction of the median: a history of
/// near-identical runs would otherwise produce a near-zero MAD and gate
/// on measurement noise.
pub const STAT_MAD_FLOOR: f64 = 0.02;

/// The history-derived statistical gate: median ± [`STAT_K`] · MAD.
#[derive(Debug, Clone, PartialEq)]
pub struct StatGate {
    /// Median of the history series.
    pub median: f64,
    /// Median absolute deviation, floored at
    /// [`STAT_MAD_FLOOR`] × |median|.
    pub mad: f64,
    /// Series length the gate was fit on.
    pub n: usize,
}

impl StatGate {
    /// Lower edge of the acceptance band.
    pub fn lo(&self) -> f64 {
        self.median - STAT_K * self.mad
    }

    /// Upper edge of the acceptance band.
    pub fn hi(&self) -> f64 {
        self.median + STAT_K * self.mad
    }
}

fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Fits the median ± k·MAD gate over a history series, or `None` when
/// the series is shorter than [`STAT_MIN_HISTORY`] (callers fall back
/// to the raw ±[`TOLERANCE`] band).
pub fn stat_gate(series: &[f64]) -> Option<StatGate> {
    let mut sorted: Vec<f64> = series.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.len() < STAT_MIN_HISTORY {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let median = median_of(&sorted);
    let mut devs: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
    devs.sort_by(f64::total_cmp);
    let mad = median_of(&devs).max(STAT_MAD_FLOOR * median.abs());
    Some(StatGate {
        median,
        mad,
        n: sorted.len(),
    })
}

/// Every occurrence of `"key": <number>` in `json`, in document order —
/// applied to a baseline artifact whose history entries use the key,
/// this recovers the full trend series (history entries first, then the
/// headline run if it shares the key).
pub fn parse_series(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        if let Some(v) = rest
            .trim_start()
            .split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .next()
            .and_then(|t| t.parse::<f64>().ok())
        {
            out.push(v);
        }
    }
    out
}

/// The baseline's fleet wall-clock trend: history entries
/// (`fleet_secs`) plus the headline run (`fleet_wall_clock_secs`).
pub fn fleet_wall_series(baseline: &str) -> Vec<f64> {
    let mut series = parse_series(baseline, "fleet_secs");
    series.extend(parse_fleet_wall(baseline));
    series
}

/// The baseline's kernel-rate trend: history entries (`kernel_rate`)
/// plus the headline run (`events_per_sec`).
pub fn kernel_rate_series(baseline: &str) -> Vec<f64> {
    let mut series = parse_series(baseline, "kernel_rate");
    series.extend(parse_kernel_rate(baseline));
    series
}

/// Renders the `BENCH_perf.json` artifact. `history` holds prior runs'
/// compact entries (see [`carry_history`]); pass `&[]` for a fresh
/// artifact with no predecessors.
pub fn bench_json(
    seed: u64,
    scenarios: &[ScenarioPerf],
    kernel: &KernelPerf,
    seeds: &[u64],
    fleet: &FleetPhase,
    warmed: bool,
    history: &[String],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        FleetExecutor::available_parallelism().threads()
    ));
    out.push_str(
        "  \"note\": \"wall-clock figures are host-dependent; on a 1-CPU host \
         parallel phases cannot show speedup, so only the serial fleet \
         wall-clock is gated\",\n",
    );
    out.push_str(&format!("  \"scenario_seed\": {seed},\n"));
    out.push_str("  \"scenarios\": [\n");
    let lines: Vec<String> = scenarios
        .iter()
        .map(|s| {
            format!(
                "    {{\"id\": \"{}\", \"epochs\": {}, \"wall_clock_secs\": {:.6}, \"epochs_per_sec\": {:.0}}}",
                s.id,
                s.epochs,
                s.wall.as_secs_f64(),
                s.epochs_per_sec()
            )
        })
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"kernel\": {{\"channels\": {}, \"events\": {}, \"wall_clock_secs\": {:.6}, \"events_per_sec\": {:.0}}},\n",
        kernel.channels,
        kernel.events,
        kernel.wall.as_secs_f64(),
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
    out.push_str(&format!("  \"warmup_pass\": {warmed},\n"));
    out.push_str(&format!(
        "  \"fleet_wall_clock_secs\": {:.3},\n",
        fleet.wall.as_secs_f64()
    ));
    // History goes last so the headline parsers above (which take the
    // first occurrence of their key) always read the current run.
    if history.is_empty() {
        out.push_str("  \"history\": []\n");
    } else {
        out.push_str("  \"history\": [\n");
        let lines: Vec<String> = history.iter().map(|h| format!("    {h}")).collect();
        out.push_str(&lines.join(",\n"));
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

/// Extracts `"fleet_wall_clock_secs"` from a `BENCH_perf.json` rendering
/// (the artifact is hand-rolled, so so is the parse).
pub fn parse_fleet_wall(json: &str) -> Option<f64> {
    parse_number_after(json, "fleet_wall_clock_secs")
}

/// Extracts the kernel's `"events_per_sec"` from a `BENCH_perf.json`
/// rendering (the key only occurs inside the `"kernel"` object; the
/// per-scenario entries record `epochs_per_sec`).
pub fn parse_kernel_rate(json: &str) -> Option<f64> {
    parse_number_after(json, "events_per_sec")
}

fn parse_number_after(json: &str, key: &str) -> Option<f64> {
    parse_series(json, key).first().copied()
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

/// Gates a fresh measurement against a committed baseline, returning
/// the verdict and the `[lo, hi]` band. Once `series` (the baseline's
/// history plus its headline) holds [`STAT_MIN_HISTORY`] finite runs
/// the band is median ± [`STAT_K`]·MAD ([`stat_gate`]); before that it
/// is ±[`TOLERANCE`] around `headline`. Past the band on the worse side
/// per `better` is a regression; on the better side the baseline is
/// merely stale. The gate fails closed: a non-finite measurement or band
/// (no headline to fall back on) is a regression, never a comparison
/// that reads `false` both ways.
pub fn gate(
    series: &[f64],
    headline: Option<f64>,
    measured: f64,
    better: Better,
) -> (CheckVerdict, [f64; 2]) {
    let band = match (stat_gate(series), headline) {
        (Some(g), _) => [g.lo(), g.hi()],
        (None, Some(b)) => [b * (1.0 - TOLERANCE), b * (1.0 + TOLERANCE)],
        (None, None) => [f64::NAN; 2],
    };
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_well_formed_and_round_trips() {
        let scenarios = vec![ScenarioPerf {
            id: "TOY".into(),
            epochs: 1200,
            wall: Duration::from_millis(60),
        }];
        let (kernel, fleet) = fixture();
        let json = bench_json(42, &scenarios, &kernel, &[42, 43], &fleet, true, &[]);
        assert!(json.contains("\"epochs\": 1200"));
        assert!(json.contains("\"epochs_per_sec\": 20000"));
        assert!(json.contains("\"events\": 100000"));
        assert!(json.contains("\"events_per_sec\": 2000000"));
        assert!(json.contains("\"fleet_seeds\": [42, 43]"));
        assert!(json.contains("\"host_cpus\": "));
        assert_eq!(parse_fleet_wall(&json), Some(2.5));
    }

    #[test]
    fn kernel_measurement_processes_the_expected_calendar() {
        let k = measure_kernel();
        assert_eq!(k.channels, 8);
        // 2 × 14 400 + 2 × 7 200 + 2 × 3 600 + 2 × 720 epochs, two
        // calendar events (Sense + Actuate) each.
        assert_eq!(k.events, 2 * 2 * (14_400 + 7_200 + 3_600 + 720));
    }

    /// A kernel measurement at 2 M events/s and a 2.5 s serial fleet.
    fn fixture() -> (KernelPerf, FleetPhase) {
        let kernel = KernelPerf {
            channels: 8,
            events: 100_000,
            wall: Duration::from_millis(50),
        };
        let fleet = FleetPhase {
            name: "fleet-1-thread".into(),
            threads: 1,
            wall: Duration::from_millis(2500),
        };
        (kernel, fleet)
    }

    /// The ±TOLERANCE verdict for `measured` against headline `baseline`.
    fn raw(baseline: f64, measured: f64, better: Better) -> CheckVerdict {
        gate(&[], Some(baseline), measured, better).0
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
            let history = [4.0; STAT_MIN_HISTORY];
            assert_eq!(
                gate(&history, None, f64::NAN, better).0,
                CheckVerdict::Regression
            );
            // No history and no headline: nothing to pass against.
            assert_eq!(gate(&[], None, 4.0, better).0, CheckVerdict::Regression);
        }
    }

    #[test]
    fn epochs_per_sec_handles_zero_wall() {
        let s = ScenarioPerf {
            id: "Z".into(),
            epochs: 10,
            wall: Duration::ZERO,
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
        let json = bench_json(42, &[], &kernel, &[42], &fleet, true, &[]);
        assert_eq!(parse_kernel_rate(&json), Some(2_000_000.0));
    }

    #[test]
    fn history_accumulates_across_rewrites() {
        let (kernel, fleet) = fixture();
        // First write: no predecessor, empty history.
        let first = bench_json(42, &[], &kernel, &[42], &fleet, true, &[]);
        assert!(first.contains("\"history\": []"));
        // Second write: the first run's headline numbers become history.
        let second = bench_json(
            42,
            &[],
            &kernel,
            &[42],
            &fleet,
            true,
            &carry_history(&first),
        );
        assert!(second.contains(
            "{\"fleet_secs\": 2.500, \"kernel_rate\": 2000000, \"warmup\": true, \
             \"scenario_rates\": {}}"
        ));
        // Third write: both prior runs are retained, in order.
        let third = bench_json(
            42,
            &[],
            &kernel,
            &[42],
            &fleet,
            true,
            &carry_history(&second),
        );
        assert_eq!(third.matches("\"fleet_secs\"").count(), 2);
        // The headline parsers still read the current run, not history.
        assert_eq!(parse_fleet_wall(&third), Some(2.5));
        assert_eq!(parse_kernel_rate(&third), Some(2_000_000.0));
    }

    #[test]
    fn history_entries_carry_scenario_rates() {
        let scenarios = vec![
            ScenarioPerf {
                id: "CA6059".into(),
                epochs: 1000,
                wall: Duration::from_millis(10),
            },
            ScenarioPerf {
                id: "HD4995".into(),
                epochs: 100,
                wall: Duration::from_millis(100),
            },
        ];
        let (kernel, fleet) = fixture();
        let first = bench_json(42, &scenarios, &kernel, &[42], &fleet, true, &[]);
        assert_eq!(
            parse_scenario_rates(&first),
            vec![
                ("CA6059".to_string(), 100_000.0),
                ("HD4995".to_string(), 1_000.0)
            ]
        );
        // The carried entry embeds both scenarios' rates, so per-scenario
        // trends survive baseline rewrites.
        let second = bench_json(
            42,
            &scenarios,
            &kernel,
            &[42],
            &fleet,
            true,
            &carry_history(&first),
        );
        assert!(
            second.contains("\"scenario_rates\": {\"CA6059\": 100000, \"HD4995\": 1000}"),
            "{second}"
        );
        // History rates do not confuse the headline scenario parser.
        assert_eq!(parse_scenario_rates(&second).len(), 2);
    }

    #[test]
    fn stat_gate_needs_minimum_history() {
        assert_eq!(stat_gate(&[4.0; STAT_MIN_HISTORY - 1]), None);
        let g = stat_gate(&[4.0; STAT_MIN_HISTORY]).expect("enough history");
        assert_eq!(g.median, 4.0);
        assert_eq!(g.n, STAT_MIN_HISTORY);
    }

    #[test]
    fn stat_gate_uses_median_and_mad() {
        // Series with one outlier: the median/MAD shrug it off where a
        // mean/stddev gate would be dragged wide.
        let series = [4.0, 4.1, 3.9, 4.05, 40.0];
        let g = stat_gate(&series).expect("gate");
        assert!((g.median - 4.05).abs() < 1e-12);
        assert!(g.mad < 0.2, "mad {}", g.mad);
        // The history band wins over the (far-off) headline.
        let verdict = |x| gate(&series, Some(40.0), x, Better::Lower).0;
        assert_eq!(verdict(g.median), CheckVerdict::Ok);
        assert_eq!(verdict(40.0), CheckVerdict::Regression);
        assert_eq!(verdict(0.5), CheckVerdict::BaselineStale);
    }

    #[test]
    fn stat_gate_floors_mad_on_identical_history() {
        // Five byte-identical runs: raw MAD is 0; the floor keeps a
        // ±STAT_K·2% band so normal noise does not fail the gate.
        let series = [4.0; 5];
        let g = stat_gate(&series).expect("gate");
        assert_eq!(g.mad, STAT_MAD_FLOOR * 4.0);
        let verdict = |x, better| gate(&series, None, x, better).0;
        assert_eq!(verdict(4.3, Better::Lower), CheckVerdict::Ok);
        assert_eq!(verdict(4.5, Better::Lower), CheckVerdict::Regression);
        // A rate's direction is inverted.
        assert_eq!(verdict(3.5, Better::Higher), CheckVerdict::Regression);
        assert_eq!(verdict(4.5, Better::Higher), CheckVerdict::BaselineStale);
        assert_eq!(verdict(4.1, Better::Higher), CheckVerdict::Ok);
    }

    #[test]
    fn series_parsers_recover_history_plus_headline() {
        let (kernel, fleet) = fixture();
        let mut json = bench_json(42, &[], &kernel, &[42], &fleet, true, &[]);
        // Grow a 6-entry history by repeated rewrites.
        for _ in 0..6 {
            json = bench_json(42, &[], &kernel, &[42], &fleet, true, &carry_history(&json));
        }
        let walls = fleet_wall_series(&json);
        let rates = kernel_rate_series(&json);
        assert_eq!(walls.len(), 7, "{walls:?}"); // 6 history + headline
        assert_eq!(rates.len(), 7, "{rates:?}");
        assert!(walls.iter().all(|&w| (w - 2.5).abs() < 1e-9));
        assert!(stat_gate(&walls).is_some());
    }

    #[test]
    fn warmup_flag_is_carried_into_history_entries() {
        let (kernel, fleet) = fixture();
        // A warmed artifact's headline carries into history flagged true.
        let warmed = bench_json(42, &[], &kernel, &[42], &fleet, true, &[]);
        assert!(warmed.contains("\"warmup_pass\": true"));
        let carried = carry_history(&warmed);
        assert!(carried.last().unwrap().contains("\"warmup\": true"));
        // An artifact written without a warmup pass — including any
        // predating the flag — is annotated false, keeping cold-start
        // samples distinguishable in the trend.
        let cold = bench_json(42, &[], &kernel, &[42], &fleet, false, &[]);
        assert!(cold.contains("\"warmup_pass\": false"));
        let carried = carry_history(&cold);
        assert!(carried.last().unwrap().contains("\"warmup\": false"));
    }

    #[test]
    fn history_clamps_at_the_cap() {
        let seeded: Vec<String> = (0..HISTORY_CAP + 5)
            .map(|i| format!("{{\"fleet_secs\": {i}.000, \"kernel_rate\": 1}}"))
            .collect();
        let (kernel, fleet) = fixture();
        let json = bench_json(42, &[], &kernel, &[42], &fleet, true, &seeded);
        let carried = carry_history(&json);
        assert_eq!(carried.len(), HISTORY_CAP);
        // The newest entry is the artifact's own headline run; the
        // oldest seeded entries were dropped.
        assert_eq!(
            carried.last().unwrap(),
            "{\"fleet_secs\": 2.500, \"kernel_rate\": 2000000, \"warmup\": true, \
             \"scenario_rates\": {}}"
        );
        assert!(!carried.iter().any(|e| e.contains("\"fleet_secs\": 0.000")));
    }
}
