//! The million-tenant soak: cohort-sharded multi-tenant fleets under
//! time-varying traffic.
//!
//! The single-deployment fleet smoke validates *correctness* of every
//! scenario; the soak validates *scale*: N-thousand-to-million
//! lightweight tenant plants per scenario on one deterministic control
//! plane, reporting per-cohort tail statistics (p50/p99/p999 goal
//! overshoot) at production event rates. The perf core:
//!
//! * **Template sharing** — each scenario's profile runs once (via the
//!   fleet's [`ProfileCache`], so e.g. HD4995's namespace synthesis hits
//!   its process-wide memo) and is distilled into one immutable
//!   [`SoakTemplate`], `Arc`-shared by every shard, with its law
//!   constants precomputed once.
//! * **Batched dispatch** — tenants are hashed into cohorts by sensing
//!   period and driven by [`run_cohort_calendar`]: the simkernel heap
//!   carries one event per (cohort, tick), the callback sweeps the
//!   cohort's lanes, and idle (churned-out) tenants cost nothing.
//! * **Struct-of-arrays lanes** — a chunk's tenants live in per-cohort
//!   lanes, not per-tenant records: a hoisted jitter key
//!   ([`TrafficShape::jitter_key`]) and a weight per tenant, then the
//!   arm's state — one actuated setting on the clean arm, a
//!   [`SoakSlab`] plus its hoisted fault schedule
//!   ([`TenantFaultWindows::schedule`]) on a fault arm. Residents fill
//!   the first lanes; only churners carry a window. Churners follow in
//!   arrival order, laid out again by descending departure once the
//!   cohort's last one has arrived, so each tick's active tenants are a
//!   prefix of the lanes and a sweep tests no window. That is 24 bytes
//!   per resident on the clean arm (+16 per churner) and 88 on a fault
//!   arm, against the 96-byte record every tenant carried before. Each
//!   tick's live prefix of overshoots reaches the cohort sketch in one
//!   batch ([`QuantileSketch::record_all`]).
//! * **Stateless traffic** — diurnal wave, flash crowd, churn, and
//!   per-tenant zipfian weights all come from [`TrafficShape`]'s pure
//!   per-`(seed, tenant, epoch)` hashes, so chunked parallel execution
//!   is embarrassingly deterministic.
//! * **O(1)-memory tails** — each (scenario, cohort) keeps one
//!   [`QuantileSketch`] of goal-overshoot ratios; sketches merge across
//!   shards in work-item order. No per-tenant epoch logs exist.
//! * **Memory in flight** — [`FleetExecutor::fold`] merges each chunk's
//!   sketches into the run's totals as soon as every earlier chunk has
//!   been merged, so a run holds the chunk outputs in flight, not one
//!   per chunk.
//!
//! Byte-identity at 1 vs N threads holds because shards are pure
//! functions of their work item and merging happens in item order.
//! [`check_soak`] holds a fresh artifact to the committed
//! `BENCH_soak.json` byte for byte, host-dependent values aside. That
//! identity holds across machines of one platform: the profiles the
//! templates are distilled from draw background churn through libm
//! (`SimRng::normal`'s `ln`/`cos`, `SimRng::pareto`'s `powf`), whose
//! last ulp may differ on another platform, where the artifact is
//! regenerated as for chaos and resilience.
//!
//! # Soak under fire
//!
//! On top of the clean arm, the soak runs one **fault arm per soak
//! fault class** ([`SOAK_FAULT_CLASSES`]): every tenant gets
//! hash-scheduled fault windows ([`TenantFaultWindows`], the same
//! stateless SplitMix64 scheme as `FaultInjector`) and steps through
//! [`SoakTemplate::guarded_step`] — the slab-weight guard ladder —
//! instead of the bare law. Each (scenario, arm, cohort) streams three
//! extra sketches (re-engage dwell, violation-burst length,
//! epochs-to-recover) plus an end-of-run unrecovered count, and the
//! **cross-check arm** ([`cross_check_run`]) replays the same window
//! schedule through a handful of full `ControlPlane` plants per
//! scenario, asserting the distilled-template tails bracket the real
//! ones.

use std::sync::Arc;
use std::time::Instant;

use smartconf_core::ModelMode;
use smartconf_harness::{
    CohortReport, Faults, ProfileCache, RunSpec, ScenarioSoakReport, SlabGuardPolicy, SoakReport,
    SoakSlab, SoakTemplate,
};
use smartconf_metrics::QuantileSketch;
use smartconf_runtime::{
    cohort_epochs, run_cohort_calendar, shard_seed, FaultClass, FaultSet, FleetExecutor,
    TenantFaultWindows, CHAOS_STREAM, SOAK_FAULT_CLASSES,
};
use smartconf_workload::{KeyDistribution, TrafficShape};

use crate::chaos::HARD_GOAL_SCENARIOS;
use crate::fleet::{fleet_scenarios, phases_json, FleetPhase};
use crate::suite::{first_diff, numbers_after, read_baseline, Smoke};

/// The artifact keys whose values depend on the host rather than on the
/// code: [`check_soak`] masks them on both sides before comparing.
const HOST_KEYS: [&str; 5] = [
    "host_cpus",
    "tenants_per_sec",
    "senses_per_sec",
    "wall_clock_secs",
    "setup_secs",
];

/// The keys of the N-thread phase line. Its worker count is a run
/// choice rather than a result, so [`check_soak`] masks their values on
/// every line but the first: the phases list the 1-thread run first,
/// and no other line of the artifact carries these keys.
const PARALLEL_PHASE_KEYS: [&str; 2] = ["name", "threads"];

/// How far below the committed baseline the measured tenants/sec may
/// fall before `--check` fails. Deliberately loose: CI runners share
/// cores, and the committed baseline was recorded on a small shared
/// dev container.
pub const RATE_FLOOR: f64 = 0.2;

/// How far outside the distilled-template cohort p99 span the real
/// plants' p99 may land before the cross-check arm fails. The template
/// collapses each scenario to one linear channel, while real plants
/// carry queue quantisation, deputy re-anchoring, and workload phases
/// the distillation deliberately drops — the bracket asserts the
/// template is *representative*, not bit-equal.
pub const CROSS_CHECK_MARGIN: f64 = 1.25;

/// The soak's arm roster: the clean control arm plus one arm per soak
/// fault class, in fixed render order.
pub fn standard_arms() -> Vec<Option<FaultClass>> {
    let mut arms = vec![None];
    arms.extend(SOAK_FAULT_CLASSES.iter().copied().map(Some));
    arms
}

/// Render label of one arm (`"clean"` for the control arm).
pub fn arm_label(arm: Option<FaultClass>) -> &'static str {
    match arm {
        None => "clean",
        Some(FaultClass::SensorDropout) => "dropout",
        Some(FaultClass::Corruption) => "corrupt",
        Some(FaultClass::ActuatorLag) => "lag",
        Some(FaultClass::PlantRestart) => "restart",
        Some(c) => c.label(),
    }
}

/// Shape of one soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Base experiment seed.
    pub seed: u64,
    /// Tenants per scenario.
    pub tenants: u64,
    /// Simulated horizon, µs.
    pub horizon_us: u64,
    /// Cohort sensing periods, µs (tenants are hashed uniformly across
    /// these).
    pub periods_us: Vec<u64>,
    /// Tenants per executor work item.
    pub chunk: u64,
    /// The traffic model layered on every tenant.
    pub traffic: TrafficShape,
    /// The arms to run: `None` is the clean control arm, `Some(class)`
    /// a fault arm. Every (scenario, arm) pair gets its own full
    /// tenant roster and report entries.
    pub arms: Vec<Option<FaultClass>>,
    /// Guard ladder configuration for the fault arms (the clean arm
    /// runs the bare law and never consults it). Run-wide.
    pub guard: SlabGuardPolicy,
}

impl SoakConfig {
    /// The standard soak: seed 42, a 24 h horizon, four sensing cohorts
    /// from 15 min to 1 h (96 down to 24 epochs each), 16 Ki-tenant
    /// chunks, [`TrafficShape::standard`] traffic, the clean arm plus
    /// all four soak fault arms, and the standard guard ladder.
    pub fn standard(tenants: u64) -> SoakConfig {
        const MIN_US: u64 = 60_000_000;
        SoakConfig {
            seed: crate::EXPERIMENT_SEED,
            tenants,
            horizon_us: 24 * 60 * MIN_US,
            periods_us: vec![15 * MIN_US, 30 * MIN_US, 45 * MIN_US, 60 * MIN_US],
            chunk: 16_384,
            traffic: TrafficShape::standard(),
            arms: standard_arms(),
            guard: SlabGuardPolicy::standard(),
        }
    }

    /// The fault-plane seed for one (scenario, arm) pair: decorrelated
    /// from the workload stream via [`CHAOS_STREAM`], distinct per
    /// scenario and arm, and shared with the cross-check arm so the
    /// real plants replay exactly the schedule the slab tenants saw.
    fn fault_seed(&self, scenario: usize, arm: usize) -> u64 {
        shard_seed(
            shard_seed(self.seed, CHAOS_STREAM),
            (scenario as u64) << 3 | arm as u64,
        )
    }

    /// The tenant-keyed fault windows one (scenario, arm, cohort)
    /// runs under, sized to that cohort's epoch budget.
    fn arm_windows(
        &self,
        scenario: usize,
        arm: usize,
        class: FaultClass,
        cohort: usize,
    ) -> TenantFaultWindows {
        TenantFaultWindows::sized_for(
            class,
            self.fault_seed(scenario, arm),
            cohort_epochs(self.periods_us[cohort], self.horizon_us),
        )
    }
}

/// One scenario's shared template plus how long its one-time setup
/// (profiling + distillation) took — the number that proves per-tenant
/// setup cost is gone.
#[derive(Debug, Clone)]
pub struct SoakScenario {
    /// The `Arc`-shared immutable template every tenant runs against.
    pub template: Arc<SoakTemplate>,
    /// One-time setup wall-clock, seconds.
    pub setup_secs: f64,
}

/// Builds the per-scenario templates for the standard seven-scenario
/// roster, profiling each scenario exactly once via [`ProfileCache`]
/// (HD4995's `Namespace::synthesize_shared` memo is therefore hit once
/// per process, never per tenant).
pub fn build_templates(seed: u64) -> Vec<SoakScenario> {
    let scenarios = fleet_scenarios();
    let cache = ProfileCache::new(scenarios.len(), &[seed]);
    scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let start = Instant::now();
            let profiles = cache.profiles(i, s.as_ref(), seed);
            let hard = HARD_GOAL_SCENARIOS.contains(&s.id());
            let template =
                SoakTemplate::from_profile(s.id(), hard, &s.candidate_settings(), &profiles[0])
                    .unwrap_or_else(|e| panic!("{}: soak template: {e}", s.id()));
            SoakScenario {
                template: Arc::new(template),
                setup_secs: start.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// One cohort's tenants in a chunk, as struct-of-arrays lanes: lane
/// `i` of every vector is one tenant. Everything per-tenant-constant is
/// hashed once when the lanes are built, so a sweep touches only what
/// changes per decision. Resident tenants (the ~75 % that never churn)
/// fill lanes `0..residents`; churners follow, ordered so that the
/// tenants active at any tick are exactly the prefix
/// `0..residents + live`: by arrival until the cohort's last churner has
/// arrived, then, once, by descending departure. That needs every
/// churner to arrive before any churner departs, which
/// [`TrafficShape::churn_window`] guarantees (`arrive < horizon / 2 ≤
/// depart`) and [`Lanes::new`] asserts.
struct Lanes<S> {
    /// [`TrafficShape::jitter_key`] per tenant.
    jitter: Vec<u64>,
    /// Popularity weight per tenant.
    weight: Vec<f64>,
    /// The arm's per-tenant state: the actuated setting on the clean
    /// arm, the guard slab and hoisted fault schedule on a fault arm.
    state: Vec<S>,
    /// Lanes `0..residents` are resident for the whole run.
    residents: usize,
    /// Churners' `[arrive_us, depart_us)` windows, in lane order.
    window: Vec<(u64, u64)>,
    /// Churner lanes `residents..residents + live` are active.
    live: usize,
    /// Whether the churners are in departure order (all have arrived).
    departing: bool,
}

/// The churn window of a tenant resident for the whole run.
const RESIDENT: (u64, u64) = (0, u64::MAX);

/// Top bit of a tenant's lane tag in [`build_lanes`]: set for a churner;
/// the low bits hold the cohort.
const CHURNER: u16 = 1 << 15;

/// Lanes the tenants of `item` into their cohorts, `make(cohort, id)`
/// giving each its arm state. One hash pass tags every tenant with its
/// cohort and whether it churns, counting each cohort's residents and
/// churners; the ids are then laid out residents first, in lanes sized
/// exactly, and each lane draws its weights, states, churn windows and
/// jitter keys in a loop of its own. A churner's window is hashed again
/// there (a quarter of the tenants), which is cheaper than keeping every
/// window of the chunk.
fn build_lanes<S>(
    config: &SoakConfig,
    item: &SoakItem,
    make: impl Fn(usize, u64) -> S,
) -> Vec<Lanes<S>> {
    let n_cohorts = config.periods_us.len();
    assert!(n_cohorts < CHURNER as usize, "{n_cohorts} cohorts");
    let seed = shard_seed(config.seed, item.scenario as u64);
    let traffic = &config.traffic;
    let horizon_us = config.horizon_us;
    // The per-tenant loops take `seed` by value (`move`), so the inlined
    // hashes see it as loop-invariant and hoist its rounds.
    let window_of = move |id: u64| traffic.churn_window(seed, id, horizon_us);
    let ids = item.start..item.start + item.len;
    let mut sizes = vec![(0, 0); n_cohorts];
    let counts = &mut sizes;
    let tags: Vec<u16> = ids
        .clone()
        .map(move |id| {
            let cohort = (shard_seed(seed, id) % n_cohorts as u64) as usize;
            let churns = window_of(id) != RESIDENT;
            let (all, churners) = &mut counts[cohort];
            *all += 1;
            *churners += churns as usize;
            cohort as u16 | if churns { CHURNER } else { 0 }
        })
        .collect();
    let mut lane_ids: Vec<Vec<u64>> = sizes
        .iter()
        .map(|&(all, _)| Vec::with_capacity(all))
        .collect();
    for churners in [0, CHURNER] {
        for (id, &tag) in ids.clone().zip(&tags) {
            if tag & CHURNER == churners {
                lane_ids[(tag & !CHURNER) as usize].push(id);
            }
        }
    }
    drop(tags);
    let dist = &KeyDistribution::ycsb_default(10_000);
    lane_ids
        .into_iter()
        .zip(sizes)
        .enumerate()
        .map(|(cohort, (mut ids, (all, churners)))| {
            let residents = all - churners;
            let weight = ids
                .iter()
                .map(move |&id| traffic.tenant_weight(seed, id, dist))
                .collect();
            let state = ids.iter().map(|&id| make(cohort, id)).collect();
            let window = ids[residents..]
                .iter()
                .map(move |&id| window_of(id))
                .collect();
            for id in &mut ids {
                *id = TrafficShape::jitter_key(seed, *id);
            }
            Lanes::new(ids, weight, state, residents, window)
        })
        .collect()
}

impl<S> Lanes<S> {
    /// Lanes from per-tenant vectors in step, residents first, with the
    /// churners (lanes `residents..`, windows in `window`) reordered by
    /// arrival.
    ///
    /// # Panics
    ///
    /// If a churner departs before another arrives: no single lane order
    /// would then keep the active tenants a prefix.
    fn new(
        jitter: Vec<u64>,
        weight: Vec<f64>,
        state: Vec<S>,
        residents: usize,
        window: Vec<(u64, u64)>,
    ) -> Lanes<S> {
        let last_arrival = window.iter().map(|&(arrive, _)| arrive).max();
        let first_departure = window.iter().map(|&(_, depart)| depart).min();
        if let (Some(arrive), Some(depart)) = (last_arrival, first_departure) {
            assert!(
                arrive < depart,
                "a churner departs at {depart} µs before the last arrives at {arrive} µs"
            );
        }
        let mut lanes = Lanes {
            jitter,
            weight,
            state,
            residents,
            window,
            live: 0,
            departing: false,
        };
        lanes.order_churners(|&(arrive, _)| arrive);
        lanes
    }

    /// Reorders the churner lanes, every vector in step, so that
    /// `key(window)` ascends; ties keep their current order.
    fn order_churners<K: Ord>(&mut self, key: impl Fn(&(u64, u64)) -> K) {
        // `(key, lane)` pairs sort contiguously; the lane breaks ties.
        let mut order: Vec<(K, usize)> = self.window.iter().map(key).zip(0..).collect();
        order.sort_unstable();
        // Lane `i` takes what lane `order[i].1` held, one cycle at a time;
        // a visited lane's entry becomes `usize::MAX`.
        let r = self.residents;
        for start in 0..order.len() {
            let mut at = start;
            loop {
                let from = std::mem::replace(&mut order[at].1, usize::MAX);
                if from == usize::MAX || from == start {
                    break;
                }
                self.jitter.swap(r + at, r + from);
                self.weight.swap(r + at, r + from);
                self.state.swap(r + at, r + from);
                self.window.swap(at, from);
                at = from;
            }
        }
    }

    /// How many lanes are active at `now`: the residents plus the
    /// churners in `[arrive, depart)`, which are the next lanes in order.
    /// Ticks must come in time order. Once every churner has arrived
    /// (none has departed yet), the churners are reordered by descending
    /// departure, so departures shrink the prefix from its end.
    fn active(&mut self, now: u64) -> usize {
        let churners = self.window.len();
        if !self.departing {
            while self.live < churners && self.window[self.live].0 <= now {
                self.live += 1;
            }
            if self.live < churners {
                return self.residents + self.live;
            }
            self.order_churners(|&(_, depart)| std::cmp::Reverse(depart));
            self.departing = true;
        }
        while self.live > 0 && self.window[self.live - 1].1 <= now {
            self.live -= 1;
        }
        self.residents + self.live
    }

    /// One tick's sweep at `now`: `decide(jitter_key, weight, state)`
    /// runs for every active tenant, its overshoot landing in the
    /// tenant's lane of `out`, and the active prefix of `out` is
    /// returned for the cohort sketch to take as one batch. Callers mark
    /// `decide` `#[inline(always)]` so every decision is inlined into
    /// the loop.
    #[inline(always)]
    fn sweep<'o>(
        &mut self,
        now: u64,
        out: &'o mut [f64],
        mut decide: impl FnMut(u64, f64, &mut S) -> f64,
    ) -> &'o [f64] {
        let n = self.active(now);
        let out = &mut out[..n];
        let lanes = out
            .iter_mut()
            .zip(&mut self.state[..n])
            .zip(&self.jitter[..n])
            .zip(&self.weight[..n]);
        for (((o, s), &key), &w) in lanes {
            *o = decide(key, w, s);
        }
        out
    }
}

/// One (scenario, arm, cohort) partial accumulation from a chunk.
struct CohortAccum {
    tenants: u64,
    violations: u64,
    sketch: QuantileSketch,
    reengage: QuantileSketch,
    burst: QuantileSketch,
    recovery: QuantileSketch,
    unrecovered: u64,
}

impl CohortAccum {
    fn new() -> CohortAccum {
        CohortAccum {
            tenants: 0,
            violations: 0,
            sketch: QuantileSketch::new(),
            reengage: QuantileSketch::new(),
            burst: QuantileSketch::new(),
            recovery: QuantileSketch::new(),
            unrecovered: 0,
        }
    }

    fn merge(&mut self, other: &CohortAccum) {
        self.tenants += other.tenants;
        self.violations += other.violations;
        self.sketch.merge(&other.sketch);
        self.reengage.merge(&other.reengage);
        self.burst.merge(&other.burst);
        self.recovery.merge(&other.recovery);
        self.unrecovered += other.unrecovered;
    }
}

/// One executor work item: a contiguous tenant range of one
/// (scenario, arm).
#[derive(Debug, Clone, Copy)]
struct SoakItem {
    scenario: usize,
    arm: usize,
    start: u64,
    len: u64,
}

/// Drives a chunk's `lanes` over the full horizon on the cohort
/// calendar. Each tick hoists `tick(cohort, epoch)` and the wave's base
/// load, sweeps the cohort's lanes through `decide(ctx, accum, load,
/// jitter, state) -> overshoot`, and feeds the tick's overshoots to the
/// cohort sketch in one batch.
fn drive<S, T>(
    config: &SoakConfig,
    lanes: &mut [Lanes<S>],
    tick: impl Fn(usize, u64) -> T,
    mut decide: impl FnMut(&T, &mut CohortAccum, f64, f64, &mut S) -> f64,
) -> Vec<CohortAccum> {
    let traffic = &config.traffic;
    let mut accums: Vec<CohortAccum> = lanes
        .iter()
        .map(|l| CohortAccum {
            tenants: l.state.len() as u64,
            ..CohortAccum::new()
        })
        .collect();
    let widest = lanes.iter().map(|l| l.state.len()).max().unwrap_or(0);
    let mut overshoots = vec![0.0; widest];
    run_cohort_calendar(
        &config.periods_us,
        config.horizon_us,
        |cohort, epoch, now| {
            // The tenant-independent part of the load is hoisted out of the
            // sweep: one wave evaluation per (cohort, tick), not per tenant.
            let base_load = traffic.base_load(now);
            let ctx = tick(cohort, epoch);
            let accum = &mut accums[cohort];
            let live = lanes[cohort].sweep(
                now,
                &mut overshoots,
                #[inline(always)]
                |key, weight, state| {
                    let jitter = traffic.jitter_at(key, epoch);
                    decide(&ctx, accum, base_load * weight, jitter, state)
                },
            );
            accum.sketch.record_all(live);
        },
    );
    accums
}

/// Runs one chunk of tenants through the full horizon: the clean arm
/// sweeps the bare law over a setting per tenant, a fault arm sweeps the
/// slab guard ladder over each tenant's slab and hoisted fault schedule.
/// Pure function of `(config, template, item)` — the executor merges
/// chunk outputs in item order, so thread count is invisible.
fn run_chunk(config: &SoakConfig, template: &SoakTemplate, item: &SoakItem) -> Vec<CohortAccum> {
    let Some(class) = config.arms.get(item.arm).copied().flatten() else {
        // Clean arm: the bare law — the fault plane and the guard
        // ladder never touch it.
        let mut lanes = build_lanes(config, item, |_, _| template.initial);
        return drive(
            config,
            &mut lanes,
            |_, _| (),
            #[inline(always)]
            |(), accum, load, jitter, setting| {
                let measured = template.measured(*setting, load, jitter);
                accum.violations += (measured > template.target) as u64;
                *setting = template.next_setting(*setting, measured);
                template.overshoot(measured)
            },
        );
    };
    let windows: Vec<TenantFaultWindows> = (0..config.periods_us.len())
        .map(|c| config.arm_windows(item.scenario, item.arm, class, c))
        .collect();
    let traffic = &config.traffic;
    let mut lanes = build_lanes(config, item, |cohort, id| {
        (SoakSlab::new(template), windows[cohort].schedule(id))
    });
    let mut accums = drive(
        config,
        &mut lanes,
        |cohort, epoch| windows[cohort].tick(epoch),
        #[inline(always)]
        |tick, accum, load, jitter, (slab, schedule)| {
            let faults = tick.at(schedule);
            let age = slab.begin_epoch(template, faults.restart);
            let load = load * traffic.restart_load(age);
            let out = template.guarded_step(config.guard, slab, &faults, load, jitter);
            accum.violations += out.violated as u64;
            if let Some(d) = out.reengaged_dwell {
                accum.reengage.record(d);
            }
            if let Some(b) = out.burst_closed {
                accum.burst.record(b);
            }
            if let Some(r) = out.recovered_after {
                accum.recovery.record(r);
            }
            template.overshoot(out.measured)
        },
    );
    // Unrecovered sweep: tenants still resident at the horizon that blew
    // the recovery SLO and never re-entered their goal. Churned-out
    // tenants are excluded — their run was cut, not stuck.
    for (accum, l) in accums.iter_mut().zip(&lanes) {
        let departs = std::iter::repeat_n(u64::MAX, l.residents)
            .chain(l.window.iter().map(|&(_, depart)| depart));
        accum.unrecovered += l
            .state
            .iter()
            .zip(departs)
            .filter(|((slab, _), depart)| *depart >= config.horizon_us && slab.is_unrecovered())
            .count() as u64;
    }
    accums
}

/// Runs the full soak — every scenario × every tenant chunk on
/// `executor` — and assembles the per-cohort tail report.
pub fn soak_run(
    config: &SoakConfig,
    scenarios: &[SoakScenario],
    executor: &FleetExecutor,
) -> SoakReport {
    let n_arms = config.arms.len().max(1);
    let mut items = Vec::new();
    for (scenario, _) in scenarios.iter().enumerate() {
        for arm in 0..n_arms {
            let mut start = 0;
            while start < config.tenants {
                let len = config.chunk.min(config.tenants - start);
                items.push(SoakItem {
                    scenario,
                    arm,
                    start,
                    len,
                });
                start += len;
            }
        }
    }

    // Each chunk's output merges into its (scenario, arm, cohort) totals
    // as soon as every earlier chunk has, so only the chunks in flight
    // are ever held, and the merge order is the work-item order.
    let n_cohorts = config.periods_us.len();
    let totals: Vec<Vec<CohortAccum>> = (0..scenarios.len() * n_arms)
        .map(|_| (0..n_cohorts).map(|_| CohortAccum::new()).collect())
        .collect();
    let merged = executor.fold(
        &items,
        totals,
        |_, item: &SoakItem| run_chunk(config, &scenarios[item.scenario].template, item),
        |merged, i, chunk| {
            let item = &items[i];
            for (total, accum) in merged[item.scenario * n_arms + item.arm]
                .iter_mut()
                .zip(&chunk)
            {
                total.merge(accum);
            }
        },
    );

    // Scenario-major, arm-minor report order: `scenarios[0]` stays the
    // first scenario's clean arm, so clean-arm readers are untouched.
    let mut reports = Vec::with_capacity(scenarios.len() * n_arms);
    for (si, s) in scenarios.iter().enumerate() {
        let t = &s.template;
        for (ai, cohorts) in merged[si * n_arms..(si + 1) * n_arms].iter().enumerate() {
            reports.push(ScenarioSoakReport {
                scenario: t.scenario.clone(),
                arm: arm_label(config.arms.get(ai).copied().flatten()).to_string(),
                hard: t.hard,
                delta: t.delta(),
                tenants: config.tenants,
                cohorts: cohorts
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        CohortReport::from_sketches(
                            config.periods_us[i],
                            a.tenants,
                            a.violations,
                            &a.sketch,
                            &a.reengage,
                            &a.burst,
                            &a.recovery,
                            a.unrecovered,
                        )
                    })
                    .collect(),
            });
        }
    }

    SoakReport {
        seed: config.seed,
        tenants_per_scenario: config.tenants,
        horizon_us: config.horizon_us,
        scenarios: reports,
    }
}

/// Epochs skipped per channel after any goal-target step (including
/// run start) before the cross-check arm samples overshoot — the
/// template soaks a fixed target, so step-response transients the
/// controller has not yet acted on belong to neither side's tail. Six
/// epochs cover the slowest roster pole's decay back into the bracket
/// after a halved target (HB2149's phase-goal steps).
const CROSS_CHECK_SETTLE_EPOCHS: u32 = 6;

/// Decorrelation stream for the cross-check arm's per-tenant run seeds
/// (the *fault schedule* reuses the soak's own [`CHAOS_STREAM`]-derived
/// seeds so real plants replay exactly the slab tenants' windows).
const CROSS_CHECK_STREAM: u64 = 0xC40C;

/// One scenario's cross-check outcome: real full-`ControlPlane` plants
/// run under the soak's fault-window schedule, with their overshoot
/// tails distilled from the `EpochEvent` log.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossCheckScenario {
    /// Scenario id.
    pub scenario: String,
    /// Whether the goal is hard (the template tails are converted to
    /// the virtual-target frame before bracketing, because real
    /// hard-goal `EpochEvent`s carry the virtual target).
    pub hard: bool,
    /// The soak template's effective λ for the frame conversion.
    pub lambda: f64,
    /// Real plants run for this scenario.
    pub tenants: u64,
    /// Control decisions with a finite overshoot sample.
    pub senses: u64,
    /// Real-plant overshoot tails (measured / event target).
    pub real_p50: f64,
    /// p99 of the same.
    pub real_p99: f64,
    /// Max of the same.
    pub real_max: f64,
}

/// The cross-check arm's report across every scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossCheckReport {
    /// Real plants per scenario.
    pub tenants_per_scenario: u64,
    /// Per-scenario outcomes, in roster order.
    pub scenarios: Vec<CrossCheckScenario>,
}

impl CrossCheckReport {
    /// Byte-stable text render, diffed across thread counts alongside
    /// [`SoakReport::render`].
    pub fn render(&self) -> String {
        let mut out = format!(
            "cross-check tenants/scenario {}\n",
            self.tenants_per_scenario
        );
        for s in &self.scenarios {
            out.push_str(&format!(
                "  {} {} lambda {:.4} tenants {} senses {} p50 {:.4} p99 {:.4} max {:.4}\n",
                s.scenario,
                if s.hard { "hard" } else { "soft" },
                s.lambda,
                s.tenants,
                s.senses,
                s.real_p50,
                s.real_p99,
                s.real_max,
            ));
        }
        out
    }
}

/// Runs the cross-check arm: `real_tenants` full `ControlPlane` plants
/// per scenario (rotating through the four fault classes) under the
/// *same* tenant-keyed window schedule as the soak's fault arms, sized
/// for the fastest cohort. Each plant is a pure function of its
/// `(scenario, tenant)` item and results merge in item order, so the
/// render is byte-identical across thread counts.
///
/// `templates` supplies each scenario's distilled λ/hardness (roster
/// order must match [`fleet_scenarios`], as [`build_templates`]
/// guarantees).
pub fn cross_check_run(
    config: &SoakConfig,
    templates: &[SoakScenario],
    real_tenants: u64,
    executor: &FleetExecutor,
) -> CrossCheckReport {
    let scenarios = fleet_scenarios();
    let cache = ProfileCache::new(scenarios.len(), &[config.seed]);
    let mut items = Vec::new();
    for si in 0..scenarios.len() {
        for tenant in 0..real_tenants {
            items.push((si, tenant));
        }
    }
    let run_plant = |_, &(si, tenant): &(usize, u64)| {
        let s = &scenarios[si];
        let profiles = cache.profiles(si, s.as_ref(), config.seed);
        let class_idx = (tenant % SOAK_FAULT_CLASSES.len() as u64) as usize;
        let class = SOAK_FAULT_CLASSES[class_idx];
        let arm = config
            .arms
            .iter()
            .position(|a| *a == Some(class))
            .unwrap_or(class_idx + 1);
        let windows = config.arm_windows(si, arm, class, 0);
        let plan = windows.plan_for(tenant);
        let run_seed = shard_seed(
            shard_seed(config.seed, CROSS_CHECK_STREAM),
            (si as u64) << 32 | tenant,
        );
        let spec = RunSpec::new(ModelMode::Frozen, Faults::Plan(plan));
        let result = s.run(run_seed, &spec, &profiles);
        // Distil overshoot from epochs whose sensed value is the true
        // plant output: a corrupted/held reading (dropout, stale, NaN,
        // ×spike) is what the *guard* sees, not what the plant did, and
        // the template side records true plant output throughout.
        // Lag/restart/saturation epochs keep their true reading and
        // stay in the tail. Epochs inside a short settle window after a
        // goal-target step (scenario phase changes, goal flaps, run
        // start) are skipped too: the template soaks a fixed target, so
        // a step response the controller has not yet acted on is not a
        // tracking failure either side models.
        let corrupted = FaultSet::DROPOUT.bits()
            | FaultSet::STALE.bits()
            | FaultSet::NAN.bits()
            | FaultSet::SPIKE.bits();
        let mut sketch = QuantileSketch::new();
        let mut channels: Vec<(f64, u32)> = Vec::new();
        for e in result.epochs.events() {
            let ch = e.channel as usize;
            if channels.len() <= ch {
                channels.resize(ch + 1, (f64::NAN, CROSS_CHECK_SETTLE_EPOCHS));
            }
            let (prev_target, settle_left) = &mut channels[ch];
            if e.target != *prev_target {
                *prev_target = e.target;
                *settle_left = CROSS_CHECK_SETTLE_EPOCHS;
            }
            if *settle_left > 0 {
                *settle_left -= 1;
                continue;
            }
            if e.faults.bits() & corrupted != 0 {
                continue;
            }
            if e.target.is_finite() && e.target > 0.0 && e.measured.is_finite() {
                sketch.record(e.measured / e.target);
            }
        }
        sketch
    };
    // Each plant's sketch merges into its scenario total as soon as every
    // earlier plant's has, in item order.
    let totals = scenarios.iter().map(|_| QuantileSketch::new()).collect();
    let merged: Vec<QuantileSketch> =
        executor.fold(&items, totals, run_plant, |merged, i, sketch| {
            merged[items[i].0].merge(&sketch)
        });
    CrossCheckReport {
        tenants_per_scenario: real_tenants,
        scenarios: merged
            .iter()
            .enumerate()
            .map(|(si, sk)| {
                let t = &templates[si].template;
                CrossCheckScenario {
                    scenario: t.scenario.clone(),
                    hard: t.hard,
                    lambda: t.lambda,
                    tenants: real_tenants,
                    senses: sk.count(),
                    real_p50: sk.quantile(0.50),
                    real_p99: sk.quantile(0.99),
                    real_max: sk.max(),
                }
            })
            .collect(),
    }
}

/// The bracket gate: for every scenario, the real plants' p99 overshoot
/// must land inside the span of the distilled-template fault-arm cohort
/// p99s, widened by [`CROSS_CHECK_MARGIN`] on both sides. Hard-goal
/// template tails are converted into the virtual-target frame
/// (`p99 / (1 − λ)`) first, because real hard-goal `EpochEvent`s report
/// the virtual target. Returns human-readable failure lines.
pub fn cross_check_failures(report: &SoakReport, cross: &CrossCheckReport) -> Vec<String> {
    let mut failures = Vec::new();
    for cs in &cross.scenarios {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in report
            .scenarios
            .iter()
            .filter(|s| s.scenario == cs.scenario && s.arm != "clean")
        {
            for c in &s.cohorts {
                let p = if cs.hard {
                    c.p99 / (1.0 - cs.lambda)
                } else {
                    c.p99
                };
                lo = lo.min(p);
                hi = hi.max(p);
            }
        }
        if !hi.is_finite() {
            failures.push(format!(
                "{}: no fault-arm cohorts in the soak report to bracket against",
                cs.scenario
            ));
            continue;
        }
        if cs.senses == 0 {
            failures.push(format!(
                "{}: cross-check plants produced no samples",
                cs.scenario
            ));
            continue;
        }
        let floor = lo / CROSS_CHECK_MARGIN;
        let ceil = hi * CROSS_CHECK_MARGIN;
        if cs.real_p99 < floor || cs.real_p99 > ceil {
            failures.push(format!(
                "{}: real-plant p99 {:.4} outside template bracket [{:.4}, {:.4}] \
                 (cohort span [{:.4}, {:.4}] × margin {CROSS_CHECK_MARGIN})",
                cs.scenario, cs.real_p99, floor, ceil, lo, hi
            ));
        }
    }
    failures
}

/// Renders the `BENCH_soak.json` artifact.
pub fn soak_json(
    config: &SoakConfig,
    scenarios: &[SoakScenario],
    report: &SoakReport,
    cross: Option<&CrossCheckReport>,
    reports_identical: bool,
    phases: &[FleetPhase],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"seed\": {},\n", config.seed));
    out.push_str(&format!(
        "  \"tenants_per_scenario\": {},\n",
        config.tenants
    ));
    out.push_str(&format!("  \"scenarios\": {},\n", scenarios.len()));
    out.push_str(&format!(
        "  \"horizon_secs\": {},\n",
        config.horizon_us / 1_000_000
    ));
    let periods: Vec<String> = config
        .periods_us
        .iter()
        .map(|p| (p / 1_000_000).to_string())
        .collect();
    out.push_str(&format!(
        "  \"cohort_periods_secs\": [{}],\n",
        periods.join(", ")
    ));
    let arms: Vec<String> = config
        .arms
        .iter()
        .map(|a| format!("\"{}\"", arm_label(*a)))
        .collect();
    out.push_str(&format!("  \"arms\": [{}],\n", arms.join(", ")));
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        FleetExecutor::available_parallelism().threads()
    ));
    out.push_str(
        "  \"note\": \"rate figures are host-dependent; a 1-CPU host cannot \
         show parallel speedup. The --check gate masks the host-dependent \
         values and requires every other byte to match: that holds across \
         Linux x86_64 hosts, but the profiles draw libm ln/cos/powf, so on \
         another platform regenerate this file\",\n",
    );
    out.push_str(&format!("  \"reports_identical\": {reports_identical},\n"));
    let serial = phases.iter().find(|p| p.threads == 1);
    let total_tenants = config.tenants * scenarios.len() as u64;
    if let Some(s) = serial {
        let wall = s.wall.as_secs_f64();
        if wall > 0.0 {
            out.push_str(&format!(
                "  \"tenants_per_sec\": {:.0},\n",
                total_tenants as f64 / wall
            ));
            out.push_str(&format!(
                "  \"senses_per_sec\": {:.0},\n",
                report.total_senses() as f64 / wall
            ));
        }
    }
    out.push_str(&format!("  \"total_senses\": {},\n", report.total_senses()));
    let breaches: Vec<String> = report
        .hard_gate_breaches()
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect();
    out.push_str(&format!(
        "  \"hard_breaches\": [{}],\n",
        breaches.join(", ")
    ));
    out.push_str(&format!(
        "  \"unrecovered_hard_tenants\": {},\n",
        report.unrecovered_hard_tenants()
    ));
    out.push_str(&phases_json(phases));
    out.push_str(",\n  \"cohorts\": [\n");
    let n_arms = config.arms.len().max(1);
    let mut lines = Vec::new();
    for (i, s) in report.scenarios.iter().enumerate() {
        let scen = &scenarios[i / n_arms];
        for c in &s.cohorts {
            let mut line = format!(
                "    {{\"scenario\": \"{}\", \"arm\": \"{}\", \"hard\": {}, \
                 \"delta\": {:.4}, \"setup_secs\": {:.3}, \"period_secs\": {}, \
                 \"tenants\": {}, \"senses\": {}, \"violations\": {}, \
                 \"p50\": {:.4}, \"p99\": {:.4}, \"p999\": {:.4}, \"max\": {:.4}",
                s.scenario,
                s.arm,
                s.hard,
                s.delta,
                scen.setup_secs,
                c.period_us / 1_000_000,
                c.tenants,
                c.senses,
                c.violations,
                c.p50,
                c.p99,
                c.p999,
                c.max
            );
            if s.arm != "clean" {
                line.push_str(&format!(
                    ", \"reengages\": {}, \"reengage_p99\": {:.4}, \
                     \"burst_p99\": {:.4}, \"recoveries\": {}, \"mttr\": {:.4}, \
                     \"recovery_p99\": {:.4}, \"unrecovered\": {}",
                    c.reengages,
                    c.reengage_p99,
                    c.burst_p99,
                    c.recoveries,
                    c.mttr,
                    c.recovery_p99,
                    c.unrecovered
                ));
            }
            line.push('}');
            lines.push(line);
        }
    }
    out.push_str(&lines.join(",\n"));
    if let Some(cross) = cross {
        out.push_str("\n  ],\n");
        out.push_str(&format!(
            "  \"cross_check_margin\": {CROSS_CHECK_MARGIN},\n"
        ));
        out.push_str("  \"cross_check\": [\n");
        let cross_lines: Vec<String> = cross
            .scenarios
            .iter()
            .map(|s| {
                format!(
                    "    {{\"scenario\": \"{}\", \"hard\": {}, \"lambda\": {:.4}, \
                     \"tenants\": {}, \"senses\": {}, \"real_p50\": {:.4}, \
                     \"real_p99\": {:.4}, \"real_max\": {:.4}}}",
                    s.scenario,
                    s.hard,
                    s.lambda,
                    s.tenants,
                    s.senses,
                    s.real_p50,
                    s.real_p99,
                    s.real_max
                )
            })
            .collect();
        out.push_str(&cross_lines.join(",\n"));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The soak smoke: `tenants` template tenants per scenario per arm on
/// the standard configuration, plus `real_tenants` full-plane plants
/// per scenario for the cross-check arm (0 disables it), optionally
/// gated against a committed baseline artifact.
#[derive(Debug)]
pub struct SoakSmoke {
    config: SoakConfig,
    scenarios: Vec<SoakScenario>,
    real_tenants: u64,
    /// The `--check` baseline's text, read at construction.
    baseline: Option<Result<String, String>>,
}

impl SoakSmoke {
    /// The standard configuration at `tenants`, with every scenario's
    /// template profiled once. The `check` baseline, if any, is read
    /// here ([`read_baseline`]), before the run can overwrite it.
    pub fn new(tenants: u64, real_tenants: u64, check: Option<&str>) -> SoakSmoke {
        let config = SoakConfig::standard(tenants);
        SoakSmoke {
            scenarios: build_templates(config.seed),
            config,
            real_tenants,
            baseline: check.map(read_baseline),
        }
    }
}

impl Smoke for SoakSmoke {
    type Report = (SoakReport, Option<CrossCheckReport>);

    fn label(&self) -> &str {
        "soak"
    }

    fn banner(&self) -> String {
        let c = &self.config;
        format!(
            "{} tenants x {} scenarios x {} arms, {} cohorts, {} h horizon",
            c.tenants,
            self.scenarios.len(),
            c.arms.len(),
            c.periods_us.len(),
            c.horizon_us / 3_600_000_000
        )
    }

    /// The phase times the soak alone; the cross-check arm runs after
    /// it, untimed, so `tenants_per_sec` measures the template soak.
    fn run(&self, threads: usize) -> (Self::Report, FleetPhase) {
        let executor = FleetExecutor::new(threads);
        let (report, phase) = FleetPhase::time("soak", threads, || {
            soak_run(&self.config, &self.scenarios, &executor)
        });
        let cross = (self.real_tenants > 0)
            .then(|| cross_check_run(&self.config, &self.scenarios, self.real_tenants, &executor));
        ((report, cross), phase)
    }

    fn render(&self, (report, cross): &Self::Report) -> String {
        let mut out = report.render();
        if let Some(cross) = cross {
            out.push_str(&cross.render());
        }
        out
    }

    fn artifact(
        &self,
        (report, cross): &Self::Report,
        identical: bool,
        phases: &[FleetPhase],
    ) -> String {
        soak_json(
            &self.config,
            &self.scenarios,
            report,
            cross.as_ref(),
            identical,
            phases,
        )
    }

    fn gate(&self, (report, cross): &Self::Report, artifact: &str) -> Vec<String> {
        let mut failures = Vec::new();
        let breaches = report.hard_gate_breaches();
        if !breaches.is_empty() {
            failures.push(format!(
                "hard-goal cohort gate breached (p99 > delta) in: {breaches:?}"
            ));
        }
        let unrecovered = report.unrecovered_hard_tenants();
        if unrecovered > 0 {
            failures.push(format!(
                "{unrecovered} unrecovered hard-goal tenants at end of soak"
            ));
        }
        if let Some(cross) = cross {
            failures.extend(
                cross_check_failures(report, cross)
                    .into_iter()
                    .map(|f| format!("cross-check {f}")),
            );
        }
        match &self.baseline {
            Some(Ok(baseline)) => failures.extend(check_soak(artifact, baseline)),
            Some(Err(e)) => failures.push(e.clone()),
            None => {}
        }
        failures
    }
}

/// Compares a fresh `BENCH_soak.json` against the committed baseline.
/// Returns human-readable failure lines (empty = pass). Gates:
///
/// 1. the two artifacts are equal once the values of the host-dependent
///    keys (`host_cpus`, `tenants_per_sec`, `senses_per_sec`,
///    `wall_clock_secs`, `setup_secs`) and the N-thread phase's name
///    and thread count are masked on both sides; a mismatch reports the
///    first differing line, so a key missing from either side fails;
/// 2. the fresh run has at least one cohort;
/// 3. tenants/sec at least [`RATE_FLOOR`] × baseline, failing closed
///    when either side lacks it.
///
/// The hard-goal cohort gate and the unrecovered-tenant gate run on the
/// report itself ([`SoakSmoke`]'s gate), with or without a baseline.
pub fn check_soak(fresh: &str, baseline: &str) -> Vec<String> {
    let mut failures = Vec::new();
    if numbers_after(fresh, "period_secs").is_empty() {
        failures.push("fresh run reports no cohorts".to_string());
    }
    let (masked_fresh, masked_base) = (mask_host_values(fresh), mask_host_values(baseline));
    if masked_fresh != masked_base {
        failures.push(format!(
            "artifact differs from the baseline beyond host-dependent values; {}",
            first_diff(&masked_base, &masked_fresh, "baseline", "fresh")
        ));
    }
    let fresh_rate = numbers_after(fresh, "tenants_per_sec");
    let base_rate = numbers_after(baseline, "tenants_per_sec");
    match (fresh_rate.first(), base_rate.first()) {
        (Some(f), Some(b)) if *f < RATE_FLOOR * b => failures.push(format!(
            "tenants/sec collapsed: fresh {f:.0} vs baseline {b:.0} (floor {RATE_FLOOR}×)"
        )),
        (Some(_), Some(_)) => {}
        (f, b) => failures.push(format!(
            "tenants_per_sec missing: fresh {f:?} vs baseline {b:?}"
        )),
    }
    failures
}

/// `json` with the value of every [`HOST_KEYS`] key, and of every
/// [`PARALLEL_PHASE_KEYS`] key after the first, replaced by `*`; the
/// keys themselves stay, so a missing one still shows.
fn mask_host_values(json: &str) -> String {
    let masked = HOST_KEYS.iter().fold(json.to_string(), |json, key| {
        edit_values(&json, key, usize::MAX, |_| "*".to_string())
    });
    PARALLEL_PHASE_KEYS.iter().fold(masked, |json, key| {
        let mut serial = true;
        edit_values(&json, key, usize::MAX, |value| {
            if std::mem::take(&mut serial) {
                value.to_string()
            } else {
                "*".to_string()
            }
        })
    })
}

/// `json` with its first `count` values of `"key": value` rewritten by
/// `edit`, in document order.
fn edit_values(
    json: &str,
    key: &str,
    count: usize,
    mut edit: impl FnMut(&str) -> String,
) -> String {
    let needle = format!("\"{key}\": ");
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    for _ in 0..count {
        let Some(pos) = rest.find(&needle) else {
            break;
        };
        let value = pos + needle.len();
        let end = rest[value..]
            .find([',', '}', '\n'])
            .map_or(rest.len(), |e| value + e);
        out.push_str(&rest[..value]);
        out.push_str(&edit(&rest[value..end]));
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny_config() -> SoakConfig {
        SoakConfig {
            // 2 h horizon, fast cohorts: enough epochs to exercise the
            // flash path is not needed here — determinism tests live in
            // tests/soak_determinism.rs with the real shape.
            horizon_us: 7_200_000_000,
            periods_us: vec![900_000_000, 1_800_000_000],
            chunk: 64,
            ..SoakConfig::standard(200)
        }
    }

    fn toy_scenarios() -> Vec<SoakScenario> {
        let profile: smartconf_core::ProfileSet = [
            (10.0, 30.0),
            (10.0, 30.3),
            (20.0, 50.0),
            (20.0, 50.2),
            (30.0, 70.1),
            (30.0, 70.4),
            (40.0, 90.0),
            (40.0, 90.2),
        ]
        .into_iter()
        .collect();
        ["TOYA", "TOYB"]
            .iter()
            .map(|id| SoakScenario {
                template: Arc::new(
                    SoakTemplate::from_profile(
                        id,
                        *id == "TOYB",
                        &[10.0, 20.0, 30.0, 40.0],
                        &profile,
                    )
                    .unwrap(),
                ),
                setup_secs: 0.0,
            })
            .collect()
    }

    #[test]
    fn soak_is_byte_identical_across_threads_and_chunks() {
        let config = tiny_config();
        let scenarios = toy_scenarios();
        let serial = soak_run(&config, &scenarios, &FleetExecutor::new(1));
        let threaded = soak_run(&config, &scenarios, &FleetExecutor::new(4));
        assert_eq!(serial.render(), threaded.render());
        // A different chunk size must not change the report either —
        // chunks are pure tenant ranges.
        let rechunked = SoakConfig {
            chunk: 17,
            ..config
        };
        let odd = soak_run(&rechunked, &scenarios, &FleetExecutor::new(3));
        assert_eq!(serial.render(), odd.render());
    }

    #[test]
    fn soak_senses_equal_recomputed_residency() {
        // Every cohort senses once per calendar tick per tenant inside its
        // `[arrive, depart)` window, recomputed here tick by tick from
        // `churn_window`. The µs-scale horizon puts many window edges
        // exactly on ticks, which pins `>= arrive` and `< depart`.
        let scenarios = toy_scenarios();
        let shapes = [
            (tiny_config().horizon_us, tiny_config().periods_us),
            (60, vec![1, 2, 5]),
        ];
        for (horizon_us, periods_us) in shapes {
            for churn_fraction in [0.25, 1.0] {
                for chunk in [1, 17, 64] {
                    let config = SoakConfig {
                        horizon_us,
                        periods_us: periods_us.clone(),
                        chunk,
                        traffic: TrafficShape {
                            churn_fraction,
                            ..TrafficShape::standard()
                        },
                        ..tiny_config()
                    };
                    let n = config.periods_us.len() as u64;
                    let report = soak_run(&config, &scenarios, &FleetExecutor::new(1));
                    for (i, s) in report.scenarios.iter().enumerate() {
                        let seed = shard_seed(config.seed, (i / config.arms.len()) as u64);
                        let mut expected = vec![0u64; config.periods_us.len()];
                        for id in 0..config.tenants {
                            let cohort = (shard_seed(seed, id) % n) as usize;
                            let (arrive, depart) =
                                config.traffic.churn_window(seed, id, horizon_us);
                            let period = config.periods_us[cohort];
                            expected[cohort] += (1..)
                                .map(|k| k * period)
                                .take_while(|&t| t < horizon_us)
                                .filter(|&t| t >= arrive && t < depart)
                                .count() as u64;
                        }
                        let senses: Vec<u64> = s.cohorts.iter().map(|c| c.senses).collect();
                        assert_eq!(
                            senses, expected,
                            "{} [{}] horizon {horizon_us} churn {churn_fraction} chunk {chunk}",
                            s.scenario, s.arm
                        );
                    }
                }
            }
        }
    }

    /// Hand-made lanes whose state is the tenant id: residents 100 and
    /// 101, then churners `0..` over `windows`.
    fn hand_lanes(windows: &[(u64, u64)]) -> Lanes<u64> {
        let ids: Vec<u64> = [100, 101]
            .into_iter()
            .chain(0..windows.len() as u64)
            .collect();
        Lanes::new(ids.clone(), vec![1.0; ids.len()], ids, 2, windows.to_vec())
    }

    #[test]
    fn live_prefix_is_exactly_the_active_tenants() {
        // Arrivals 0..=8, departures 9..=30, ties on both sides and a
        // one-tick window: the last arrival (8) precedes the first
        // departure (9).
        let windows = [(5, 20), (0, 12), (8, 30), (3, 9), (8, 9), (5, 12)];
        let mut lanes = hand_lanes(&windows);
        for now in 0..=32 {
            let n = lanes.active(now);
            let mut live = lanes.state[..n].to_vec();
            live.sort_unstable();
            let mut expected: Vec<u64> = (0..windows.len() as u64)
                .filter(|&k| {
                    let (arrive, depart) = windows[k as usize];
                    now >= arrive && now < depart
                })
                .chain([100, 101])
                .collect();
            expected.sort_unstable();
            assert_eq!(live, expected, "at {now}");
            // Lanes move in step with their windows.
            for (lane, &id) in lanes.state[2..].iter().enumerate() {
                assert_eq!(lanes.window[lane], windows[id as usize]);
            }
        }
        // No churners: the residents alone, at every tick.
        let mut residents = hand_lanes(&[]);
        assert_eq!((residents.active(0), residents.active(99)), (2, 2));
    }

    #[test]
    #[should_panic(expected = "before the last arrives")]
    fn a_churner_departing_before_another_arrives_is_refused() {
        hand_lanes(&[(0, 10), (20, 30)]);
    }

    #[test]
    fn soak_accounts_every_tenant_and_senses_scale_with_period() {
        let config = tiny_config();
        let scenarios = toy_scenarios();
        let report = soak_run(&config, &scenarios, &FleetExecutor::new(1));
        for s in &report.scenarios {
            let total: u64 = s.cohorts.iter().map(|c| c.tenants).sum();
            assert_eq!(total, config.tenants, "{} lost tenants", s.scenario);
            // Faster cohorts sense more per tenant.
            let per_tenant: Vec<f64> = s
                .cohorts
                .iter()
                .map(|c| c.senses as f64 / c.tenants.max(1) as f64)
                .collect();
            assert!(per_tenant[0] > per_tenant[1], "{per_tenant:?}");
            for c in &s.cohorts {
                assert!(c.senses > 0);
                assert!(c.p50 > 0.0 && c.p999 >= c.p99 && c.max >= c.p999);
            }
        }
    }

    #[test]
    fn soft_scenario_never_breaches_hard_gate() {
        let config = tiny_config();
        let scenarios = toy_scenarios();
        let report = soak_run(&config, &scenarios, &FleetExecutor::new(2));
        // TOYA is soft: even if its tails wander, it cannot breach.
        assert!(!report.scenarios[0].hard_breached());
    }

    #[test]
    fn fault_arms_ride_alongside_an_untouched_clean_arm() {
        let config = tiny_config();
        let scenarios = toy_scenarios();
        let report = soak_run(&config, &scenarios, &FleetExecutor::new(2));
        let n_arms = config.arms.len();
        assert_eq!(report.scenarios.len(), scenarios.len() * n_arms);
        let labels: Vec<&str> = report.scenarios[..n_arms]
            .iter()
            .map(|s| s.arm.as_str())
            .collect();
        assert_eq!(labels, ["clean", "dropout", "corrupt", "lag", "restart"]);

        // The clean arm must be byte-identical to a soak that never
        // heard of the fault plane.
        let clean_only = SoakConfig {
            arms: vec![None],
            ..config.clone()
        };
        let control = soak_run(&clean_only, &scenarios, &FleetExecutor::new(1));
        let clean: Vec<&ScenarioSoakReport> = report
            .scenarios
            .iter()
            .filter(|s| s.arm == "clean")
            .collect();
        assert_eq!(clean.len(), control.scenarios.len());
        for (a, b) in clean.iter().zip(&control.scenarios) {
            assert_eq!(**a, *b);
        }

        // Fault arms actually exercise the recovery machinery: at least
        // one (scenario, arm) records recoveries, and the clean arm
        // records none.
        for s in &clean {
            assert_eq!(s.cohorts.iter().map(|c| c.recoveries).sum::<u64>(), 0);
            assert_eq!(s.unrecovered_tenants(), 0);
        }
        let recoveries: u64 = report
            .scenarios
            .iter()
            .filter(|s| s.arm != "clean")
            .flat_map(|s| s.cohorts.iter())
            .map(|c| c.recoveries)
            .sum();
        assert!(recoveries > 0, "fault arms never recovered a tenant");
    }

    #[test]
    fn cross_check_bracket_flags_out_of_band_tails() {
        let sketch = {
            let mut s = QuantileSketch::new();
            for _ in 0..100 {
                s.record(1.0);
            }
            s
        };
        let e = QuantileSketch::new();
        let cohort = |p99: f64| {
            let mut c = CohortReport::from_sketches(900_000_000, 10, 0, &sketch, &e, &e, &e, 0);
            c.p99 = p99;
            c
        };
        let report = SoakReport {
            seed: 42,
            tenants_per_scenario: 10,
            horizon_us: 1,
            scenarios: vec![
                ScenarioSoakReport {
                    scenario: "TOY".into(),
                    arm: "clean".into(),
                    hard: false,
                    delta: 1.0,
                    tenants: 10,
                    cohorts: vec![cohort(99.0)], // clean arm is excluded
                },
                ScenarioSoakReport {
                    scenario: "TOY".into(),
                    arm: "corrupt".into(),
                    hard: false,
                    delta: 1.0,
                    tenants: 10,
                    cohorts: vec![cohort(1.0), cohort(1.2)],
                },
            ],
        };
        let cross = |p99: f64| CrossCheckReport {
            tenants_per_scenario: 4,
            scenarios: vec![CrossCheckScenario {
                scenario: "TOY".into(),
                hard: false,
                lambda: 0.05,
                tenants: 4,
                senses: 100,
                real_p50: 1.0,
                real_p99: p99,
                real_max: p99,
            }],
        };
        // Inside the [1.0 / 1.25, 1.2 × 1.25] bracket.
        assert_eq!(
            cross_check_failures(&report, &cross(1.1)),
            Vec::<String>::new()
        );
        assert_eq!(
            cross_check_failures(&report, &cross(0.9)),
            Vec::<String>::new()
        );
        // Outside it, both ways.
        assert_eq!(cross_check_failures(&report, &cross(1.6)).len(), 1);
        assert_eq!(cross_check_failures(&report, &cross(0.7)).len(), 1);
        // A scenario with no fault arms cannot be bracketed.
        let clean_only = SoakReport {
            scenarios: vec![report.scenarios[0].clone()],
            ..report.clone()
        };
        assert_eq!(cross_check_failures(&clean_only, &cross(1.1)).len(), 1);
    }

    fn phases() -> [FleetPhase; 1] {
        [FleetPhase {
            name: "soak-1-thread".into(),
            threads: 1,
            wall: Duration::from_millis(500),
        }]
    }

    /// `report`'s artifact on the tiny configuration, with a hand-made
    /// cross-check block.
    fn tiny_artifact(report: &SoakReport) -> String {
        let cross = CrossCheckReport {
            tenants_per_scenario: 4,
            scenarios: vec![CrossCheckScenario {
                scenario: "TOYB".into(),
                hard: true,
                lambda: 0.05,
                tenants: 4,
                senses: 100,
                real_p50: 0.95,
                real_p99: 1.02,
                real_max: 1.04,
            }],
        };
        let (config, scenarios) = (tiny_config(), toy_scenarios());
        soak_json(&config, &scenarios, report, Some(&cross), true, &phases())
    }

    fn tiny_report() -> SoakReport {
        soak_run(&tiny_config(), &toy_scenarios(), &FleetExecutor::new(1))
    }

    #[test]
    fn soak_json_and_check_roundtrip() {
        let json = tiny_artifact(&tiny_report());
        assert!(
            json.contains("\"arms\": [\"clean\", \"dropout\", \"corrupt\", \"lag\", \"restart\"]")
        );
        // A run checked against itself passes.
        assert_eq!(check_soak(&json, &json), Vec::<String>::new());
        // One cohort's count or one cross-check tail moved fails, naming
        // the line.
        let plus_one = |v: &str| (v.parse::<u64>().unwrap() + 1).to_string();
        let nudged = |v: &str| format!("{:.4}", v.parse::<f64>().unwrap() + 1e-4);
        for moved in [
            edit_values(&json, "violations", 1, plus_one),
            edit_values(&json, "reengages", 1, plus_one),
            edit_values(&json, "real_p50", 1, nudged),
        ] {
            assert_ne!(moved, json, "nothing moved");
            let failures = check_soak(&moved, &json);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains("first diff at line"), "{failures:?}");
        }
        // The host-dependent values alone may differ.
        let host = HOST_KEYS.iter().fold(json.clone(), |j, key| {
            let edited = edit_values(&j, key, usize::MAX, |v| format!("{v}9"));
            assert_ne!(edited, j, "{key} not in render");
            edited
        });
        assert_eq!(check_soak(&host, &json), Vec::<String>::new());
    }

    #[test]
    fn check_soak_ignores_the_parallel_thread_count() {
        let report = tiny_report();
        let (config, scenarios) = (tiny_config(), toy_scenarios());
        let artifact = |threads| {
            let phases = [1, threads].map(|t| FleetPhase {
                wall: Duration::from_millis(500),
                ..FleetPhase::time("soak", t, || ()).1
            });
            soak_json(&config, &scenarios, &report, None, true, &phases)
        };
        let (two, four) = (artifact(2), artifact(4));
        assert!(two.contains("\"name\": \"soak-2-threads\", \"threads\": 2,"));
        assert!(four.contains("\"name\": \"soak-4-threads\", \"threads\": 4,"));
        assert_eq!(check_soak(&two, &four), Vec::<String>::new());
        // A real diff elsewhere still fails, and so does the serial
        // phase's line.
        let plus_one = |v: &str| (v.parse::<u64>().unwrap() + 1).to_string();
        for moved in [
            edit_values(&two, "violations", 1, plus_one),
            edit_values(&two, "threads", 1, plus_one),
        ] {
            assert_ne!(moved, two, "nothing moved");
            let failures = check_soak(&moved, &four);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains("first diff at line"), "{failures:?}");
        }
    }

    #[test]
    fn check_baseline_is_read_before_the_run_can_overwrite_it() {
        // `--out` and `--check` naming one file: `drive` writes the fresh
        // artifact over the baseline before gating, so the gate must see
        // the text that was there at construction.
        let path = std::env::temp_dir().join(format!(
            "smartconf_soak_baseline_{}.json",
            std::process::id()
        ));
        let config = tiny_config();
        let scenarios = toy_scenarios();
        let report = soak_run(&config, &scenarios, &FleetExecutor::new(1));
        let wider = SoakConfig {
            tenants: 300,
            ..config.clone()
        };
        let baseline = soak_json(&wider, &scenarios, &report, None, true, &phases());
        std::fs::write(&path, baseline).unwrap();
        let smoke = SoakSmoke::new(config.tenants, 0, path.to_str());
        let fresh = soak_json(&config, &scenarios, &report, None, true, &phases());
        std::fs::write(&path, &fresh).unwrap();
        let failures = smoke.gate(&(report, None), &fresh);
        std::fs::remove_file(&path).unwrap();
        assert!(
            failures
                .iter()
                .any(|f| f.contains("differs from the baseline")
                    && f.contains("baseline:   \"tenants_per_scenario\": 300,")),
            "{failures:?}"
        );
    }

    /// `json` with the first `"key": value` entry cut out, separator
    /// included.
    fn without_key(json: &str, key: &str) -> String {
        let start = json
            .find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("{key} not in render"));
        let rest = &json[start..];
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        let tail = rest[end..]
            .strip_prefix(',')
            .map_or(&rest[end..], str::trim_start);
        format!("{}{}", &json[..start], tail)
    }

    #[test]
    fn check_soak_fails_closed_on_every_missing_key() {
        let json = tiny_artifact(&tiny_report());
        // A key missing from either side fails, masked keys included.
        for key in ["violations", "reengages", "real_p50", "setup_secs"] {
            let cut = without_key(&json, key);
            assert_ne!(cut, json, "{key}: nothing cut");
            assert!(!check_soak(&cut, &json).is_empty(), "{key}: fresh side");
            assert!(!check_soak(&json, &cut).is_empty(), "{key}: baseline side");
        }
        // So does a missing tenants_per_sec, even from both sides.
        let rateless = without_key(&json, "tenants_per_sec");
        assert!(check_soak(&rateless, &rateless)
            .iter()
            .any(|f| f.contains("tenants_per_sec missing")));
        // And an empty cohort list, even against itself.
        let empty = tiny_artifact(&SoakReport {
            scenarios: Vec::new(),
            ..tiny_report()
        });
        assert!(check_soak(&empty, &empty)
            .iter()
            .any(|f| f.contains("no cohorts")));
    }

    #[test]
    fn numbers_after_walks_document_order() {
        let json = "{\"p99\": 1.25, \"x\": {\"p99\": 2.5}, \"p999\": 3.0}";
        assert_eq!(numbers_after(json, "p99"), vec![1.25, 2.5]);
        assert_eq!(numbers_after(json, "p999"), vec![3.0]);
        assert!(numbers_after(json, "missing").is_empty());
    }
}
