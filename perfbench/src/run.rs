//! One benchmark run: cold set-up samples, timed passes, output checks
//! and the metrics they yield.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;
use std::time::{Duration, Instant};

use smartconf_bench::soak::{arm_label, SoakConfig, SoakScenario};
use smartconf_harness::SoakReport;
use smartconf_runtime::{cohort_epochs, shard_seed, FaultClass, SOAK_FAULT_CLASSES};

use crate::catalog::{metrics, valid_name, valid_unit, Kind, Workload, POLICY_FAMILIES, SCENARIOS};
use crate::stats::{
    calibration_secs, corrected_secs, digest, median, peak_rss_mb, CALIBRATION_REF_S,
};
use crate::trace::{coverage, to_json, totals_by_name, Span, Tracer};
use crate::{fleet, probes, soak};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: run the set-up alone and print its timings.
    pub setup_only: bool,
    pub size: Size,
}

/// Input sizes per workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    pub soak_clean_tenants: u64,
    pub soak_fire_tenants: u64,
    /// Extra cold set-ups, each in a fresh process.
    pub setup_children: usize,
    pub kernel_horizon_us: u64,
    pub controller_steps: u64,
}

impl Size {
    pub fn standard() -> Size {
        Size {
            soak_clean_tenants: 100_000,
            soak_fire_tenants: 20_000,
            setup_children: 40,
            kernel_horizon_us: 3_600_000_000,
            controller_steps: 100_000,
        }
    }

    /// A run small enough for unit tests: no child processes.
    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            soak_clean_tenants: 200,
            soak_fire_tenants: 200,
            setup_children: 0,
            kernel_horizon_us: 60_000_000,
            controller_steps: 1_000,
        }
    }
}

/// A soak workload after set-up: its shape, templates and arms.
struct State {
    cfg: SoakConfig,
    scenarios: Vec<SoakScenario>,
    arms: Vec<Option<FaultClass>>,
}

/// Everything before the first decision; returns the profiling sample
/// count and a problem if HD4995's profiling missed the namespace memo.
fn setup(args: &Args, tracer: &Tracer) -> (State, u64, Option<String>) {
    let w = args.workload;
    let tenants = if w.is_fire() {
        args.size.soak_fire_tenants
    } else {
        args.size.soak_clean_tenants
    };
    let s = soak::setup(args.seed, tracer);
    let state = State {
        cfg: soak::config(args.seed, tenants),
        scenarios: s.scenarios,
        arms: soak::arms(w),
    };
    (state, s.samples, s.problem)
}

/// Per-layer set-up seconds from a set-up's spans.
fn setup_layers(spans: &[Span]) -> BTreeMap<String, f64> {
    totals_by_name(spans)
        .into_iter()
        .map(|(name, (total, _))| (format!("{name}_s"), total))
        .collect()
}

/// One cold set-up: its seconds, the calibration kernel's seconds right
/// after it in the same process (for the run's own set-up, after the
/// first pass), and its per-layer seconds.
struct SetupSample {
    secs: f64,
    calib: f64,
    layers: BTreeMap<String, f64>,
}

/// `--setup-only`: one cold set-up in this fresh process, then the
/// calibration kernel, printed as `setup <metric> <value>` lines for the
/// parent to collect.
pub fn setup_child(args: &Args) {
    let tracer = Tracer::new(args.trace);
    let start = Instant::now();
    let _state = setup(args, &tracer);
    let secs = start.elapsed().as_secs_f64();
    println!("setup setup_s {secs}");
    println!("setup calib_s {}", calibration_secs());
    for (name, v) in setup_layers(&tracer.spans()) {
        println!("setup {name} {v}");
    }
}

/// One cold set-up sample from a fresh child process, waited for.
fn setup_child_sample(args: &Args) -> Result<SetupSample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(&exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut layers = BTreeMap::new();
    for line in text.lines() {
        let mut f = line.split_whitespace();
        if let (Some("setup"), Some(name), Some(v)) = (f.next(), f.next(), f.next()) {
            let v: f64 = v
                .parse()
                .map_err(|e| format!("set-up child {line:?}: {e}"))?;
            layers.insert(name.to_string(), v);
        }
    }
    match (layers.remove("setup_s"), layers.remove("calib_s")) {
        (Some(secs), Some(calib)) => Ok(SetupSample {
            secs,
            calib,
            layers,
        }),
        _ => Err(format!("set-up child printed no setup_s/calib_s: {text:?}")),
    }
}

struct Pass {
    wall: f64,
    cpu: f64,
    decisions: u64,
    digest: u64,
    spans: Vec<Span>,
    runs: Vec<(SoakReport, String)>,
    /// `VmHWM` at the end of the pass, before its calibration.
    peak_mb: Option<f64>,
    /// The calibration kernel's seconds right after the pass.
    calib: f64,
}

fn pass(state: &State, tracer: &Tracer) -> Pass {
    let cpu0 = crate::stats::cpu_secs();
    let start = Instant::now();
    let runs = soak::timed(&state.cfg, &state.scenarios, &state.arms, tracer);
    let wall = start.elapsed().as_secs_f64();
    let cpu = crate::stats::cpu_secs() - cpu0;
    // Read before the calibration, whose tables would otherwise set the
    // high-water mark.
    let peak_mb = peak_rss_mb();
    let calib = calibration_secs();
    let text: String = runs.iter().map(|(_, t)| t.as_str()).collect();
    Pass {
        wall,
        cpu,
        decisions: runs.iter().map(|(r, _)| r.total_senses()).sum(),
        digest: digest(&text),
        spans: tracer.spans(),
        runs,
        peak_mb,
        calib,
    }
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` for every metric of the run's kind.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl RunOutput {
    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ns(secs: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        secs * 1e9 / ops as f64
    }
}

/// Median over traced passes of each span name's inclusive seconds.
fn span_medians(passes: &[Pass]) -> BTreeMap<String, f64> {
    let per_pass: Vec<BTreeMap<String, (f64, f64)>> =
        passes.iter().map(|p| totals_by_name(&p.spans)).collect();
    let names: BTreeSet<&String> = per_pass.iter().flat_map(|m| m.keys()).collect();
    names
        .into_iter()
        .map(|n| {
            let v: Vec<f64> = per_pass
                .iter()
                .map(|m| m.get(n).map_or(0.0, |t| t.0))
                .collect();
            (n.clone(), median(&v))
        })
        .collect()
}

/// Runs the workload: cold set-ups, timed passes for `--seconds`,
/// output checks, and — when traced — spans and probes.
pub fn run(args: &Args) -> Result<RunOutput, String> {
    let w = args.workload;
    let mut notes = vec![
        format!("workload {}: {}", w.name(), w.why()),
        format!("loads: {}", w.loads().join("; ")),
        format!("bypasses: {}", w.bypasses().join("; ")),
    ];

    // This process's own cold set-up is the first set-up sample.
    let tracer = Tracer::new(args.trace);
    let start = Instant::now();
    let (state, samples, memo_problem) = setup(args, &tracer);
    let own = start.elapsed().as_secs_f64();
    let setup_spans = tracer.spans();
    let mut own = Some((own, setup_layers(&setup_spans)));
    let mut setups = Vec::new();
    notes.push(format!(
        "soak seed {} tenants/scenario {} arms {}",
        state.cfg.seed,
        state.cfg.tenants,
        state.arms.len()
    ));

    // Timed passes until the budget is spent; a traced run alternates
    // traced and untraced passes so both see the same machine. The other
    // cold set-ups run in child processes between passes, one at a time,
    // spread evenly over the budget so set-up samples span the same
    // stretch of host time as the passes (the host's speed drifts in
    // phases of tens of seconds).
    let budget = Duration::from_secs_f64(args.seconds);
    let children = args.size.setup_children;
    let clock = Instant::now();
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    loop {
        let trace_this = args.trace && traced.len() <= plain.len();
        let p = pass(&state, &Tracer::new(trace_this));
        // The run's own set-up is paired with the first pass's
        // calibration, seconds later: one taken before the first pass
        // would set the peak-RSS high-water mark.
        if let Some((secs, layers)) = own.take() {
            setups.push(SetupSample {
                secs,
                calib: p.calib,
                layers,
            });
        }
        if trace_this {
            traced.push(p);
        } else {
            plain.push(p);
        }
        // Child k is due k / (children + 1) of the way through the budget.
        while setups.len() <= children
            && clock.elapsed() >= budget.mul_f64(setups.len() as f64 / (children + 1) as f64)
        {
            setups.push(setup_child_sample(args)?);
        }
        let both = !args.trace || (!traced.is_empty() && !plain.is_empty());
        if clock.elapsed() >= budget && both && setups.len() > children {
            break;
        }
    }
    notes.push(format!(
        "set-up samples (fresh processes), seconds / calibration seconds: {}",
        setups
            .iter()
            .map(|s| format!("{:.4}/{:.4}", s.secs, s.calib))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let first = traced.first().or(plain.first()).expect("at least one pass");
    let checked = soak::outcome(&state.cfg, &first.runs);
    let mut problems = checked.problems.clone();
    problems.extend(memo_problem);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut failed = 0;
    let mut attempted = 0;
    for p in plain.iter().chain(&traced) {
        attempted += checked.chunks;
        failed += checked.failed;
        if p.digest != first.digest || p.decisions != first.decisions {
            problems.push(format!(
                "pass digest {:016x} / {} decisions differs from {:016x} / {}",
                p.digest, p.decisions, first.digest, first.decisions
            ));
            failed += checked.chunks;
        }
    }
    for p in &plain {
        notes.push(format!(
            "untraced pass: {:.4} s ({:.3} cpu s), calibration {:.4} s, {} decisions, {:.0} decisions/s",
            p.wall, p.cpu, p.calib, p.decisions,
            p.decisions as f64 / p.wall
        ));
    }
    for p in &traced {
        notes.push(format!("traced pass: {:.4} s", p.wall));
    }
    notes.push(format!(
        "report digest {:016x}, {} decisions per pass",
        first.digest, first.decisions
    ));

    if !args.trace {
        let pass_s = corrected_secs(plain.iter().map(|p| (p.wall, p.calib)));
        let setup_s = corrected_secs(setups.iter().map(|s| (s.secs, s.calib)));
        values.insert("decisions_per_s".into(), first.decisions as f64 / pass_s);
        values.insert("setup_s".into(), setup_s);
        let raw_pass: Vec<f64> = plain.iter().map(|p| p.wall).collect();
        let raw_setup: Vec<f64> = setups.iter().map(|s| s.secs).collect();
        let calib: Vec<f64> = plain.iter().map(|p| p.calib).collect();
        notes.push(format!(
            "uncorrected medians: {:.0} decisions/s, setup {:.4} s; calibration median {:.4} s \
             (reference {CALIBRATION_REF_S} s)",
            first.decisions as f64 / median(&raw_pass),
            median(&raw_setup),
            median(&calib)
        ));
        values.insert(
            "peak_rss_mb".into(),
            first.peak_mb.ok_or("no VmHWM in /proc/self/status")?,
        );
        for name in ["goal_met_rate", "hard_violation_rate", "recovered_rate"] {
            values.insert(name.into(), checked.figures[name]);
        }
    } else {
        per_layer(&setups, samples, &traced, &plain, &mut values);
        soak_layers(args, &state, &checked, &traced, &mut values);
        problems.extend(fleet_layers(args, &mut values));
        for (name, (total, own)) in totals_by_name(&traced[0].spans) {
            notes.push(format!("span {name}: {total:.4} s, self {own:.4} s"));
        }
        write_spans(args, &setup_spans, &traced, &mut notes);
    }

    // Every declared metric of this run's kind, in catalog order.
    let kind = if args.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    let mut out = Vec::new();
    for m in metrics().into_iter().filter(|m| m.kind == kind) {
        let v = match values.get(&m.name) {
            Some(&v) => v,
            None => {
                problems.push(format!("{} was not measured", m.name));
                0.0
            }
        };
        if !v.is_finite() {
            problems.push(format!("{} is not finite", m.name));
        }
        if kind == Kind::EndToEnd && v == 0.0 {
            problems.push(format!("{} reads 0", m.name));
        }
        if !valid_name(&m.name) || !valid_unit(m.unit) {
            problems.push(format!("{} / {} breaks the name charset", m.name, m.unit));
        }
        out.push((m.name, if v.is_finite() { v } else { 0.0 }, m.unit));
    }
    for p in &problems {
        notes.push(format!("problem: {p}"));
    }
    Ok(RunOutput {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: out,
        notes,
    })
}

/// The traced run's set-up and tracing figures: set-up layers as
/// medians over every cold set-up, span coverage and tracing overhead.
fn per_layer(
    setups: &[SetupSample],
    samples: u64,
    traced: &[Pass],
    plain: &[Pass],
    values: &mut BTreeMap<String, f64>,
) {
    let names: BTreeSet<&String> = setups.iter().flat_map(|s| s.layers.keys()).collect();
    for n in names {
        let v: Vec<f64> = setups
            .iter()
            .map(|s| s.layers.get(n).copied().unwrap_or(0.0))
            .collect();
        values.insert(n.clone(), median(&v));
    }
    values.insert("runtime.profiler.samples".into(), samples as f64);
    let cov: Vec<f64> = traced
        .iter()
        .map(|p| coverage(&p.spans, "soak.timed"))
        .collect();
    values.insert("trace.span_coverage".into(), median(&cov));
    // Both sides host-speed corrected, so a slow phase that happens to
    // fall on more traced passes than untraced ones does not read as
    // tracing cost.
    let t = corrected_secs(traced.iter().map(|p| (p.wall, p.calib)));
    let u = corrected_secs(plain.iter().map(|p| (p.wall, p.calib)));
    values.insert("trace.overhead_share".into(), (t - u) / u);
}

/// Real-plant layers, which no soak timed phase loads: one traced pass
/// of all 26 fleet policies on one seed derived from the run's, so
/// plants, kernel, controller, guard ladder and fault injector all have
/// numbers, plus the kernel and controller probes. Returns the pass's
/// check problems.
fn fleet_layers(args: &Args, values: &mut BTreeMap<String, f64>) -> Vec<String> {
    let s = fleet::setup(&[shard_seed(args.seed, 0)], &Tracer::new(false));
    let tracer = Tracer::new(true);
    let shards = fleet::timed(&s, &fleet::all_policies(), &tracer);
    let o = fleet::outcome(&shards);
    values.extend(o.figures);
    let spans = totals_by_name(&tracer.spans());
    let get = |n: &str| spans.get(n).map_or(0.0, |t| t.0);
    for (krate, id) in SCENARIOS {
        values.insert(
            format!("{krate}.{id}.run_s"),
            get(&format!("{krate}.{id}.run")),
        );
    }
    for family in POLICY_FAMILIES {
        values.insert(
            format!("harness.policy.{family}_s"),
            get(&format!("harness.policy.{family}")),
        );
    }
    values.insert(
        "runtime.kernel.ns_per_event".into(),
        probes::kernel_ns_per_event(args.size.kernel_horizon_us),
    );
    let steps = args.size.controller_steps;
    values.insert(
        "core.controller.ns_per_step".into(),
        probes::controller_ns_per_step(args.seed, false, steps),
    );
    values.insert(
        "core.model.ns_per_adaptive_step".into(),
        probes::controller_ns_per_step(args.seed, true, steps),
    );
    o.problems
        .into_iter()
        .map(|e| format!("layer pass: {e}"))
        .collect()
}

/// Soak layers: sweep and render seconds of the traced soak passes,
/// ns/decision of every arm (this workload's arms from its own passes,
/// the others from a small probe run), the soak probes, and what they
/// leave unexplained.
fn soak_layers(
    args: &Args,
    state: &State,
    checked: &soak::Outcome,
    traced: &[Pass],
    values: &mut BTreeMap<String, f64>,
) {
    let State {
        cfg,
        scenarios,
        arms,
    } = state;
    let spans = span_medians(traced);
    let get = |n: &str| spans.get(n).copied().unwrap_or(0.0);
    let mut run_s = 0.0;
    for arm in std::iter::once(None).chain(SOAK_FAULT_CLASSES.map(Some)) {
        let label = arm_label(arm);
        let per_decision = match checked.arm_decisions.get(label) {
            Some(&d) => {
                let s = get(&format!("harness.soak.{label}.run"));
                run_s += s;
                ns(s, d)
            }
            None => probes::arm_ns_per_decision(cfg, scenarios, arm),
        };
        values.insert(
            format!("harness.soak.{label}.ns_per_decision"),
            per_decision,
        );
    }
    values.insert("harness.soak.run_s".into(), run_s);
    values.insert("harness.soak.render_s".into(), get("harness.soak.render"));
    values.insert("harness.soak.decisions".into(), checked.decisions as f64);
    let templates: Vec<_> = scenarios.iter().map(|s| s.template.as_ref()).collect();
    let fire = args.workload.is_fire();
    let p = probes::soak_probes(cfg, &templates);
    let decisions = traced[0].decisions;
    let n_cohorts = cfg.periods_us.len() as u64;
    let items = arms.len() as u64 * scenarios.len() as u64 * cfg.tenants.div_ceil(cfg.chunk);
    let ticks: u64 = cfg
        .periods_us
        .iter()
        .map(|&p| cohort_epochs(p, cfg.horizon_us))
        .sum();
    let tenants = arms.len() as u64 * scenarios.len() as u64 * cfg.tenants;
    // Every probe is reported; ops count only for the steps this
    // workload's sweep makes (the bare law or the guarded ladder).
    let (law, ladder) = if fire { (0, decisions) } else { (decisions, 0) };
    let attributed = [
        ("workload.traffic.ns_per_jitter", p.jitter, decisions),
        ("workload.traffic.ns_per_tenant", p.tenant, tenants),
        ("metrics.sketch.ns_per_record", p.sketch_record, decisions),
        (
            "metrics.sketch.ns_per_merge",
            p.sketch_merge,
            items * n_cohorts * 4,
        ),
        ("runtime.soak.ns_per_tick", p.tick, items * ticks),
        ("harness.soak.ns_per_step", p.step, law),
        ("harness.soak.ns_per_guarded_step", p.guarded_step, ladder),
        ("runtime.fault.ns_per_window_at", p.window_at, ladder),
    ];
    let explained = attributed_ns(&attributed);
    for (name, v, _) in attributed {
        values.insert(name.into(), v);
    }
    values.insert(
        "harness.soak.unattributed_share".into(),
        1.0 - explained / (run_s * 1e9),
    );
}

/// Σ ns/op × ops over the probes.
pub fn attributed_ns(probes: &[(&str, f64, u64)]) -> f64 {
    probes.iter().map(|(_, ns, ops)| ns * *ops as f64).sum()
}

/// Writes the set-up and traced-pass spans to
/// `<CARGO_TARGET_DIR, or this package's target/>/perfbench-spans/`,
/// whatever the working directory.
fn write_spans(args: &Args, setup: &[Span], traced: &[Pass], notes: &mut Vec<String>) {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/target").into())
        .join("perfbench-spans");
    let passes: Vec<String> = traced.iter().map(|p| to_json(&p.spans)).collect();
    let body = format!(
        "{{\"setup\": {},\n\"passes\": [{}]}}\n",
        to_json(setup),
        passes.join(",\n")
    );
    let path = dir.join(format!("{}-{}.json", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body)) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("spans not written ({}): {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, trace: bool) -> RunOutput {
        let args = Args {
            workload,
            seed: 3,
            seconds: 0.01,
            trace,
            setup_only: false,
            size: Size::tiny(),
        };
        run(&args).expect("tiny run")
    }

    #[test]
    fn tiny_runs_print_every_declared_metric_with_its_unit() {
        let all = metrics();
        for w in Workload::ALL {
            for trace in [false, true] {
                let out = tiny(w, trace);
                assert!(out.correct, "{} trace={trace}: {:?}", w.name(), out.notes);
                assert_eq!(out.failed, 0);
                assert!(out.attempted >= 1);
                let kind = if trace {
                    Kind::PerLayer
                } else {
                    Kind::EndToEnd
                };
                let declared: Vec<_> = all.iter().filter(|m| m.kind == kind).collect();
                assert_eq!(out.metrics.len(), declared.len());
                for (m, (name, value, unit)) in declared.iter().zip(&out.metrics) {
                    assert_eq!(&m.name, name);
                    assert_eq!(m.unit, *unit);
                    assert!(value.is_finite());
                    // Every layer is timed on both workloads: no time
                    // reads a constant 0.
                    if matches!(*unit, "s" | "ns") {
                        assert!(*value > 0.0, "{name} reads {value} on {}", w.name());
                    }
                }
                let json = out.json();
                assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
                assert!(json.contains(&format!("\"{}\": {{\"value\": ", declared[0].name)));
            }
        }
    }

    #[test]
    fn probe_attribution_sums_ns_times_ops() {
        let probes = [("a", 2.5, 4), ("b", 10.0, 3), ("c", 0.0, 1_000)];
        assert_eq!(attributed_ns(&probes), 40.0);
        assert_eq!(ns(1.0, 4), 0.25e9);
        assert_eq!(ns(1.0, 0), 0.0);
    }
}
