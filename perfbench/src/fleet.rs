//! The real-plant layer pass: the simulated plants of the seven-scenario
//! roster, driven shard by shard on a one-worker `FleetExecutor` under
//! every fleet policy, with every (scenario, seed) profiled first.

use std::collections::BTreeMap;

use smartconf_bench::chaos::chaos_policies;
use smartconf_bench::fleet::{fleet_scenarios, SMOKE_POLICIES};
use smartconf_bench::resilience::campaign_policies;
use smartconf_dfs::Namespace;
use smartconf_harness::{
    fleet_work_items, Baseline, FleetExecutor, FleetWorkItem, Policy, ProfileCache, RunResult,
    Scenario, ShardReport, TradeoffDirection,
};

use crate::catalog::SCENARIOS;
use crate::stats::{geomean, rss_mb};
use crate::trace::Tracer;

/// Synthesizes HD4995's namespace under the key `Hd4995::standard()`
/// uses (1 M inodes, 100 files per directory, its private tree seed),
/// so the profiling that follows hits the process-wide memo. This
/// splits HD4995's set-up into tree synthesis and profiling. Returns how
/// much the resident set grew in MB: a whole tree when this call built
/// it, about 0 when the memo already held it.
pub fn synthesize_hd4995_tree(tracer: &Tracer) -> f64 {
    let before = rss_mb();
    tracer.span("dfs.namespace", || {
        Namespace::synthesize_shared(1_000_000, 100, 0xd1f5)
    });
    rss_mb() - before
}

/// The key above copies private constants of the dfs crate. If they
/// change, HD4995's profiling builds a second tree of its own and keeps
/// it in the memo, so the resident set grows by about a tree again.
/// Returns a problem when HD4995's profiling grew the resident set by
/// more than half of what the tree took; `None` when the tree came from
/// an earlier set-up in this process and there is nothing to compare.
pub fn memo_miss(tree_mb: f64, profile_mb: f64) -> Option<String> {
    (tree_mb >= 8.0 && profile_mb > tree_mb / 2.0).then(|| {
        format!(
            "HD4995 profiling grew the resident set by {profile_mb:.1} MB after a \
             {tree_mb:.1} MB tree: its namespace key no longer matches fleet.rs"
        )
    })
}

/// Every fleet policy: the four smoke policies, then the 22 non-clean
/// chaos and campaign policies.
pub fn all_policies() -> Vec<Policy> {
    let fire = chaos_policies()
        .into_iter()
        .chain(campaign_policies())
        .filter(is_under_fire);
    SMOKE_POLICIES.iter().copied().chain(fire).collect()
}

fn is_under_fire(policy: &Policy) -> bool {
    matches!(
        policy,
        Policy::Chaos(_)
            | Policy::AdaptiveChaos(_)
            | Policy::Campaign(_)
            | Policy::AdaptiveCampaign(_)
    )
}

/// Span and metric family of a policy.
pub fn family(policy: &Policy) -> &'static str {
    match policy {
        Policy::Static(_) => "static",
        Policy::Smart => "frozen",
        Policy::Adaptive => "adaptive",
        Policy::Chaos(_) => "chaos",
        Policy::AdaptiveChaos(_) => "adaptive_chaos",
        Policy::Campaign(_) => "campaign",
        Policy::AdaptiveCampaign(_) => "adaptive_campaign",
    }
}

fn crate_of(id: &str) -> &'static str {
    SCENARIOS
        .iter()
        .find(|(_, s)| *s == id)
        .map_or("harness", |(k, _)| k)
}

/// Everything before the first decision.
pub struct Setup {
    pub scenarios: Vec<Box<dyn Scenario + Send + Sync>>,
    pub seeds: Vec<u64>,
    pub cache: ProfileCache,
}

/// Builds the roster and profiles every (scenario, seed).
pub fn setup(seeds: &[u64], tracer: &Tracer) -> Setup {
    let scenarios = tracer.span("harness.roster", fleet_scenarios);
    synthesize_hd4995_tree(tracer);
    let cache = ProfileCache::new(scenarios.len(), seeds);
    for (i, s) in scenarios.iter().enumerate() {
        tracer.span(format!("runtime.profiler.{}", s.id()), || {
            for &seed in seeds {
                cache.profiles(i, s.as_ref(), seed);
            }
        });
    }
    Setup {
        scenarios,
        seeds: seeds.to_vec(),
        cache,
    }
}

/// One shard's outcome plus the trade-off direction needed to compare
/// it against its seed's patch default.
#[derive(Debug, Clone)]
pub struct Shard {
    pub report: ShardReport,
    pub direction: TradeoffDirection,
    pub policy: Policy,
}

impl Shard {
    /// Whether a controller drove the shard (static baselines make no
    /// decisions).
    pub fn controlled(&self) -> bool {
        !matches!(self.policy, Policy::Static(_))
    }
}

fn shard_of(id: &str, item: &FleetWorkItem, run: &RunResult) -> Shard {
    Shard {
        report: ShardReport {
            scenario_id: id.to_string(),
            seed: item.seed,
            policy: item.policy.label(),
            resolved: true,
            constraint_ok: run.constraint_ok,
            crashed: run.crashed,
            tradeoff: run.tradeoff,
            tradeoff_name: run.tradeoff_name.clone(),
            channels: run
                .epochs
                .summaries()
                .map(|(name, s)| (name.to_string(), s))
                .collect(),
        },
        direction: run.direction,
        policy: item.policy,
    }
}

/// Runs one shard the way `run_fleet` does, with the profiles the
/// set-up collected.
fn run_shard(setup: &Setup, item: &FleetWorkItem, tracer: &Tracer) -> Shard {
    let scenario = setup.scenarios[item.scenario].as_ref();
    let id = scenario.id();
    let seed = item.seed;
    let run_span = format!("{}.{id}.run", crate_of(id));
    tracer.span(format!("harness.policy.{}", family(&item.policy)), || {
        let run = match item.policy {
            Policy::Static(baseline) => {
                let setting = baseline
                    .fixed_setting()
                    .or_else(|| scenario.static_setting(baseline));
                let Some(setting) = setting else {
                    return Shard {
                        report: ShardReport {
                            scenario_id: id.to_string(),
                            seed,
                            policy: item.policy.label(),
                            resolved: false,
                            constraint_ok: false,
                            crashed: false,
                            tradeoff: 0.0,
                            tradeoff_name: String::new(),
                            channels: Vec::new(),
                        },
                        direction: scenario.tradeoff_direction(),
                        policy: item.policy,
                    };
                };
                tracer.span(run_span, || scenario.run_static(setting, seed))
            }
            policy => {
                let profiles = setup.cache.profiles(item.scenario, scenario, seed);
                tracer.span(run_span, || match policy {
                    Policy::Smart => scenario.run_smartconf_profiled(seed, &profiles),
                    Policy::Adaptive => scenario.run_adaptive_profiled(seed, &profiles),
                    Policy::Chaos(c) => scenario.run_chaos_profiled(seed, c, &profiles),
                    Policy::AdaptiveChaos(c) => {
                        scenario.run_adaptive_chaos_profiled(seed, c, &profiles)
                    }
                    Policy::Campaign(c) => scenario.run_campaign_profiled(seed, c, &profiles),
                    Policy::AdaptiveCampaign(c) => {
                        scenario.run_adaptive_campaign_profiled(seed, c, &profiles)
                    }
                    Policy::Static(_) => unreachable!("static shards are handled above"),
                })
            }
        };
        shard_of(id, item, &run)
    })
}

/// One pass of the timed phase: every (scenario, seed, policy) shard,
/// in `fleet_work_items` order.
pub fn timed(setup: &Setup, policies: &[Policy], tracer: &Tracer) -> Vec<Shard> {
    let items = fleet_work_items(setup.scenarios.len(), &setup.seeds, policies);
    let executor = FleetExecutor::new(1);
    tracer.span("fleet.timed", || {
        executor.execute(&items, |_, item| run_shard(setup, item, tracer))
    })
}

/// What a pass's shards add up to.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub problems: Vec<String>,
    /// Deterministic per-layer figures.
    pub figures: BTreeMap<String, f64>,
}

/// Checks the invariants that hold by construction — every shard
/// resolved, every controlled shard made decisions and has finite
/// summaries — and derives the deterministic figures. Guard and fault
/// ratios count the shards under fire; the trade-off speedup counts the
/// clean controlled shards against their seed's patch default (Figure
/// 5's axis).
pub fn outcome(shards: &[Shard]) -> Outcome {
    let mut o = Outcome::default();
    let (mut fallback, mut activations, mut reengages, mut injected) = (0u64, 0u64, 0u64, 0u64);
    let mut fire_decisions = 0u64;
    let mut per_scenario: BTreeMap<&str, u64> = BTreeMap::new();
    let mut speedups = Vec::new();
    for s in shards {
        let r = &s.report;
        let mut problem = |what: String| {
            o.problems.push(format!(
                "{} seed={} {}: {what}",
                r.scenario_id, r.seed, r.policy
            ))
        };
        if !r.resolved {
            problem("unresolved".into());
            continue;
        }
        if !s.controlled() {
            continue;
        }
        let epochs: u64 = r.channels.iter().map(|(_, c)| c.epochs).sum();
        let finite = r.channels.iter().all(|(_, c)| {
            c.mean_error.is_finite()
                && c.max_abs_error.is_none_or(f64::is_finite)
                && c.mean_epochs_to_reengage.is_finite()
                && c.mttr.iter().all(|m| m.is_finite())
        });
        if epochs == 0 || !finite {
            problem(format!("epochs={epochs} finite={finite}"));
            continue;
        }
        *per_scenario.entry(&r.scenario_id).or_default() += epochs;
        if is_under_fire(&s.policy) {
            fire_decisions += epochs;
            for (_, c) in &r.channels {
                fallback += c.fallback_epochs;
                activations += c.guard_activations;
                reengages += c.reengages;
                injected += c.faults_injected;
            }
            continue;
        }
        let patch = Policy::Static(Baseline::PatchDefault).label();
        if let Some(base) = shards.iter().find(|b| {
            b.report.scenario_id == r.scenario_id
                && b.report.seed == r.seed
                && b.report.policy == patch
        }) {
            let (a, b) = match s.direction {
                TradeoffDirection::HigherIsBetter => (r.tradeoff, base.report.tradeoff),
                TradeoffDirection::LowerIsBetter => (base.report.tradeoff, r.tradeoff),
            };
            // Figure 5 leaves a speedup over a zero or crashed baseline
            // out ("n/a"); so does the mean.
            let speedup = a / b;
            if speedup.is_finite() && speedup > 0.0 {
                speedups.push(speedup);
            }
        }
    }
    let f = &mut o.figures;
    if fire_decisions > 0 {
        for (name, count) in [
            ("runtime.guard.fallback_ratio", fallback),
            ("runtime.guard.activation_ratio", activations),
            ("runtime.fault.injected_ratio", injected),
        ] {
            f.insert(name.into(), count as f64 / fire_decisions as f64);
        }
        f.insert("runtime.guard.reengages".into(), reengages as f64);
    }
    for (krate, id) in SCENARIOS {
        let d = per_scenario.get(id).copied().unwrap_or(0);
        f.insert(format!("{krate}.{id}.decisions"), d as f64);
    }
    if let Some(g) = geomean(&speedups) {
        f.insert("harness.fleet.tradeoff_speedup".into(), g);
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartconf_harness::{run_fleet, FleetReport};

    /// The rendered fleet report of a pass.
    fn render(shards: &[Shard]) -> String {
        FleetReport {
            shards: shards.iter().map(|s| s.report.clone()).collect(),
            workers: 1,
        }
        .render()
    }

    #[test]
    fn mirrored_dispatch_renders_like_run_fleet() {
        // The smoke policies plus one policy of each fire family over the
        // whole roster: the benchmark's shard dispatch must reproduce
        // run_fleet byte for byte.
        let seeds = [42];
        let tracer = Tracer::new(true);
        let s = setup(&seeds, &tracer);
        let mut policies = SMOKE_POLICIES.to_vec();
        policies.extend(policies_sample());
        let ours = render(&timed(&s, &policies, &tracer));
        let theirs = run_fleet(&s.scenarios, &seeds, &policies, &FleetExecutor::new(1)).render();
        assert_eq!(ours, theirs);
    }

    fn policies_sample() -> Vec<Policy> {
        let fire: Vec<Policy> = all_policies().into_iter().filter(is_under_fire).collect();
        assert_eq!(fire.len(), 22);
        vec![fire[0], fire[9], fire[14], fire[21]]
    }

    #[test]
    fn memo_miss_needs_a_fresh_tree_and_a_second_one() {
        assert!(memo_miss(40.0, 39.0).is_some());
        assert!(memo_miss(40.0, 1.0).is_none());
        // The tree came from an earlier set-up: nothing to compare.
        assert!(memo_miss(0.1, 39.0).is_none());
    }

    #[test]
    fn families_cover_every_policy() {
        let all = all_policies();
        assert_eq!(all.len(), 26);
        for p in &all {
            assert!(crate::catalog::POLICY_FAMILIES.contains(&family(p)));
        }
        assert_eq!(&all[..4], &SMOKE_POLICIES[..]);
        assert!(all[4..].iter().all(is_under_fire));
    }
}
