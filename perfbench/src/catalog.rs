//! What the benchmark runs and what it reports, as data.
//!
//! Every workload records why it exists, which layers it loads and
//! which it bypasses; every metric records its unit, its direction, the
//! workloads it is measured on and — for per-layer metrics — which
//! end-to-end metric it should move on which workload. A later
//! performance change cites these names instead of prose.

/// The two workloads: distilled template tenants (`soak-*`) clean and
/// under fire. The real-plant fleet is measured layer by layer in every
/// traced run (see `run::fleet_layers`) but has no gated workload: its
/// memory-bound plants drift with the host far past any bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SoakClean,
    SoakFire,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SoakClean, Workload::SoakFire];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SoakClean => "soak-clean",
            Workload::SoakFire => "soak-fire",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_fire(self) -> bool {
        self == Workload::SoakFire
    }

    /// One line: why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SoakClean => {
                "100k template tenants x 7 scenarios on the cohort calendar, bare law: the densest decision loop; bypasses guards and faults"
            }
            Workload::SoakFire => {
                "20k tenants x 7 scenarios x 4 soak fault arms: every decision goes through TenantFaultWindows and the slab guard ladder"
            }
        }
    }

    pub fn loads(self) -> &'static [&'static str] {
        match self {
            Workload::SoakClean => &[
                "workload::traffic hashes",
                "SoakTemplate::measured/next_setting",
                "QuantileSketch::record/merge",
                "run_cohort_calendar",
                "runtime::profiler + SoakTemplate::from_profile (set-up)",
            ],
            Workload::SoakFire => &[
                "everything soak-clean loads",
                "TenantFaultWindows::at",
                "SoakSlab::begin_epoch + SoakTemplate::guarded_step",
                "recovery sketches",
            ],
        }
    }

    pub fn bypasses(self) -> &'static [&'static str] {
        match self {
            Workload::SoakClean => &[
                "plants (timed phase)",
                "runtime::kernel",
                "runtime::guard",
                "runtime::fault",
                "slab guard ladder",
            ],
            Workload::SoakFire => &["plants (timed phase)", "runtime::kernel", "runtime::guard"],
        }
    }
}

/// Whether a metric is printed by the untraced run or the traced one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
    pub kind: Kind,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

fn e2e(name: &str, unit: &'static str, higher: bool, bound: f64, moves: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        higher_is_better: higher,
        bound: Some(bound),
        kind: Kind::EndToEnd,
        moves,
    }
}

/// Per-layer direction: work done and useful shares are better higher;
/// time, cost per op, overhead and waste are better lower.
fn layer_higher_is_better(name: &str) -> bool {
    name.ends_with(".decisions")
        || name.ends_with("tradeoff_speedup")
        || name.ends_with("span_coverage")
}

fn layer(name: String, unit: &'static str, moves: &'static str) -> Metric {
    Metric {
        higher_is_better: layer_higher_is_better(&name),
        name,
        unit,
        bound: None,
        kind: Kind::PerLayer,
        moves,
    }
}

/// The seven scenarios of the fleet roster, with the crate that owns
/// each plant.
pub const SCENARIOS: [(&str, &str); 7] = [
    ("kvstore", "CA6059"),
    ("kvstore", "HB2149"),
    ("kvstore", "HB3813"),
    ("kvstore", "HB6728"),
    ("dfs", "HD4995"),
    ("mapred", "MR2820"),
    ("kvstore", "TWIN"),
];

/// Policy families of the real-plant layer pass, as span/metric
/// suffixes.
pub const POLICY_FAMILIES: [&str; 7] = [
    "static",
    "frozen",
    "adaptive",
    "chaos",
    "adaptive_chaos",
    "campaign",
    "adaptive_campaign",
];

/// Soak arms as labelled in the soak report.
pub const SOAK_ARMS: [&str; 5] = ["clean", "dropout", "corrupt", "lag", "restart"];

const SETUP: &str = "setup_s on soak-*";
// The plants also run in set-up (§6.1 profiling), so a plant change moves
// setup_s; with no fleet workload, their timed cost moves no gated
// decisions_per_s.
const PLANT: &str = "setup_s on soak-* via profiling; no gated decisions_per_s (no fleet workload)";
const FLEET: &str = "no gated end-to-end metric: real-plant layer pass only (no fleet workload)";
const SOAK_RATE: &str = "decisions_per_s on soak-clean and soak-fire";
const LADDER_RATE: &str = "decisions_per_s on soak-fire; flat on soak-clean";

/// Every metric the benchmark declares, end-to-end first.
pub fn metrics() -> Vec<Metric> {
    let mut m = vec![
        e2e(
            "decisions_per_s",
            "1/s",
            true,
            0.25,
            "controller decisions per pass / host-speed-corrected median pass seconds",
        ),
        e2e(
            "setup_s",
            "s",
            false,
            0.25,
            "roster, §6.1 profiling and distillation in a cold process, host-speed-corrected median",
        ),
        e2e(
            "peak_rss_mb",
            "MB",
            false,
            0.1,
            "VmHWM after the first pass, before any calibration",
        ),
        e2e(
            "goal_met_rate",
            "ratio",
            true,
            0.05,
            "(scenario, arm, cohort) cells whose p99 overshoot is <= delta",
        ),
        e2e(
            "hard_violation_rate",
            "ratio",
            false,
            // Deterministic per seed, but each (scenario, arm) draws one
            // fault seed, so it spreads ~5% across seeds whatever the
            // tenant count (20k and 40k tenants spread alike).
            0.15,
            "decisions on HB6728/HD4995/MR2820 whose measurement exceeded the target in force",
        ),
        e2e(
            "recovered_rate",
            "ratio",
            true,
            0.05,
            "fault-arm tenants that did not end the run unrecovered; 1 on soak-clean",
        ),
    ];
    m.push(layer("harness.roster_s".into(), "s", SETUP));
    for (_, id) in SCENARIOS {
        m.push(layer(format!("runtime.profiler.{id}_s"), "s", SETUP));
    }
    m.push(layer("runtime.profiler.samples".into(), "count", SETUP));
    m.push(layer("dfs.namespace_s".into(), "s", SETUP));
    m.push(layer("harness.soak.distil_s".into(), "s", SETUP));
    for (krate, id) in SCENARIOS {
        m.push(layer(format!("{krate}.{id}.run_s"), "s", PLANT));
        m.push(layer(format!("{krate}.{id}.decisions"), "count", FLEET));
    }
    for family in POLICY_FAMILIES {
        m.push(layer(format!("harness.policy.{family}_s"), "s", FLEET));
    }
    m.push(layer(
        "harness.fleet.tradeoff_speedup".into(),
        "ratio",
        "Figure 5 axis; must stay bit-identical under a pure speed change",
    ));
    for name in [
        "runtime.guard.fallback_ratio",
        "runtime.guard.activation_ratio",
        "runtime.fault.injected_ratio",
    ] {
        m.push(layer(name.into(), "ratio", FLEET));
    }
    m.push(layer("runtime.guard.reengages".into(), "count", FLEET));
    m.push(layer("runtime.kernel.ns_per_event".into(), "ns", FLEET));
    m.push(layer("core.controller.ns_per_step".into(), "ns", FLEET));
    m.push(layer("core.model.ns_per_adaptive_step".into(), "ns", FLEET));
    m.push(layer("harness.soak.run_s".into(), "s", SOAK_RATE));
    m.push(layer("harness.soak.render_s".into(), "s", SOAK_RATE));
    m.push(layer("harness.soak.decisions".into(), "count", SOAK_RATE));
    for arm in SOAK_ARMS {
        let moves = if arm == "clean" {
            SOAK_RATE
        } else {
            LADDER_RATE
        };
        m.push(layer(
            format!("harness.soak.{arm}.ns_per_decision"),
            "ns",
            moves,
        ));
    }
    for (name, moves) in [
        ("workload.traffic.ns_per_jitter", SOAK_RATE),
        ("workload.traffic.ns_per_tenant", SOAK_RATE),
        ("harness.soak.ns_per_step", SOAK_RATE),
        ("harness.soak.ns_per_guarded_step", LADDER_RATE),
        ("runtime.fault.ns_per_window_at", LADDER_RATE),
        ("metrics.sketch.ns_per_record", SOAK_RATE),
        ("metrics.sketch.ns_per_merge", SOAK_RATE),
        ("runtime.soak.ns_per_tick", SOAK_RATE),
    ] {
        m.push(layer(name.into(), "ns", moves));
    }
    m.push(layer(
        "harness.soak.unattributed_share".into(),
        "ratio",
        "decisions_per_s on soak-*: slab sweep and memory traffic no probe explains",
    ));
    m.push(layer(
        "trace.span_coverage".into(),
        "ratio",
        "share of the traced timed phase inside named layer spans",
    ));
    m.push(layer(
        "trace.overhead_share".into(),
        "ratio",
        "(traced - untraced) / untraced corrected median pass, same seed",
    ));
    m
}

/// Whether `name` fits the metric-name charset: starts with a letter or
/// digit, at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the unit charset: at most 16 letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let all = metrics();
        for m in &all {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(!m.moves.is_empty(), "{} names no end-to-end effect", m.name);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(all.len() <= 16 + 128);
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn charset_rejects_what_the_contract_forbids() {
        assert!(valid_name("runtime.profiler.HD4995_s"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn setup_s_has_the_largest_bound() {
        let all = metrics();
        let setup = all.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        for m in all.iter().filter(|m| m.kind == Kind::EndToEnd) {
            assert!(m.bound.unwrap() <= setup.bound.unwrap() && m.bound.unwrap() <= 0.25);
        }
    }

    /// One `BENCHMARK.json` metric entry, as the file spells it.
    fn entry(m: &Metric) -> String {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
            m.name, m.unit
        )
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let all = metrics();
        for m in &all {
            assert!(
                text.contains(&entry(m)),
                "BENCHMARK.json lacks {}",
                entry(m)
            );
        }
        assert_eq!(text.matches("\"unit\":").count(), all.len());
        for w in Workload::ALL {
            let line = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why());
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        assert_eq!(text.matches("\"why\":").count(), Workload::ALL.len());
    }
}
