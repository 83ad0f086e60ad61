//! Soak-mode shared types: the per-scenario tenant template and the
//! per-cohort tail reports.
//!
//! The soak engine (bench crate) instantiates N-thousand-to-million
//! lightweight tenant *plants* per scenario. Running a full
//! `ControlPlane` (or even a `smartconf-core` `Controller`, which
//! carries a `GainModel` and a `String`-named goal) per tenant would
//! dominate memory and setup time, so the profile-derived control
//! parameters are hoisted into one immutable [`SoakTemplate`] per
//! scenario — built once, shared across every tenant via `Arc` — and
//! a clean-arm tenant's state is its actuated setting alone (a fault-arm
//! tenant adds the 56-byte [`SoakSlab`]). A tenant step is core's
//! [`Law`] (§5.1–§5.2, with the two-pole danger region for hard goals)
//! bound once per template: `Controller::step` for a frozen model and
//! no interaction, not a copy of it.
//!
//! Tail statistics come back as plain-number [`CohortReport`]s distilled
//! from streaming [`QuantileSketch`]es — per-tenant epoch logs are never
//! retained.

use smartconf_core::{pole_from_delta, Error, Law, LinearFit, ProfileSet, Result, Sense};
use smartconf_metrics::QuantileSketch;
use smartconf_runtime::{ActiveFaults, SensorFault};

/// Floor on the virtual-goal margin `λ` used by soak templates.
///
/// Clean profiles from the deterministic simulators can report `λ`
/// near zero, which would leave a hard goal with no headroom against
/// the soak's load disturbances; production SmartConf deployments see
/// sensor noise that keeps `λ` meaningfully positive, so the soak
/// imposes a floor.
pub const LAMBDA_FLOOR: f64 = 0.05;

/// How strongly the traffic wave disturbs a tenant plant, as a fraction
/// of the controllable span `|α·mid|`: `measured` shifts by
/// `(load − 1) · DISTURBANCE_GAIN · |α·mid|`.
///
/// The disturbance is **additive**, not a gain multiplier — a load that
/// multiplied `α` itself would change the loop gain and destabilise the
/// frozen-pole law once the ratio exceeded `2/(1−pole)`, which is a
/// model-adaptation problem (PR 7), not a traffic problem.
pub const DISTURBANCE_GAIN: f64 = 0.3;

/// Immutable per-scenario control/plant parameters shared by every
/// tenant in a soak (one allocation per scenario, `Arc`-shared across
/// shards).
#[derive(Debug, Clone, PartialEq)]
pub struct SoakTemplate {
    /// Scenario id, e.g. `"HD4995"`.
    pub scenario: String,
    /// Profiled gain `α` of the linear plant `measured = α·c + β`.
    pub alpha: f64,
    /// Profiled intercept `β`.
    pub beta: f64,
    /// Regular pole (damping) from the profile's `Δ` via
    /// [`pole_from_delta`]; hard goals drop to pole 0 in the danger
    /// region, exactly as `Controller::step`.
    pub pole: f64,
    /// Effective virtual-goal margin (profile `λ` floored at
    /// [`LAMBDA_FLOOR`], capped at 0.5).
    pub lambda: f64,
    /// Goal target (upper bound on the measured metric).
    pub target: f64,
    /// Whether the goal is hard: danger region + virtual goal apply,
    /// and the cohort gate checks `p99 overshoot ≤ Δ`.
    pub hard: bool,
    /// Lower settable bound.
    pub lo: f64,
    /// Upper settable bound.
    pub hi: f64,
    /// Arrival setting for new tenants: the *safe* bound (the one
    /// minimising the measured metric), so churned-in tenants start
    /// goal-compliant and the controller walks them toward the target.
    pub initial: f64,
    /// Additive disturbance scale: `(load − 1) · disturb` shifts the
    /// measured metric.
    pub disturb: f64,
    /// The §5 law bound to the fields above by
    /// [`SoakTemplate::from_profile`] (a template is immutable once
    /// built: it is `Arc`-shared by every shard).
    law: Law,
}

impl SoakTemplate {
    /// Derives a template from a scenario's §6.1 evaluation profile.
    ///
    /// `candidates` are the scenario's sweepable settings (bounds and
    /// goal placement are derived from them); `profile` is the first
    /// evaluation profile (multi-channel scenarios soak their primary
    /// channel). The goal target is placed at the plant's response to
    /// the median candidate setting, so roughly half the settable range
    /// has headroom — every scenario is soaked as the same well-posed
    /// upper-bound tracking problem, differing in gain, scale, noise
    /// margin, and hardness.
    pub fn from_profile(
        scenario: &str,
        hard: bool,
        candidates: &[f64],
        profile: &ProfileSet,
    ) -> Result<SoakTemplate> {
        let fit: LinearFit = profile.fit()?;
        let mut sorted: Vec<f64> = candidates
            .iter()
            .copied()
            .filter(|c| c.is_finite())
            .collect();
        sorted.sort_by(f64::total_cmp);
        let (Some(&lo), Some(&hi)) = (sorted.first(), sorted.last()) else {
            return Err(Error::InvalidParameter {
                reason: format!("{scenario}: no finite candidate settings"),
            });
        };
        if lo >= hi {
            return Err(Error::InvalidParameter {
                reason: format!("{scenario}: degenerate setting range [{lo}, {hi}]"),
            });
        }
        let mid = sorted[sorted.len() / 2];
        let target = fit.predict(mid);
        if !target.is_finite() || target <= 0.0 {
            return Err(Error::InvalidGoal {
                reason: format!("{scenario}: goal target {target} at mid setting {mid}"),
            });
        }
        let lambda = profile.lambda().clamp(LAMBDA_FLOOR, 0.5);
        let delta = 1.0 + 3.0 * lambda;
        let alpha = fit.alpha();
        if alpha == 0.0 || !alpha.is_finite() {
            return Err(Error::ZeroGain {
                conf: scenario.to_string(),
            });
        }
        let pole = pole_from_delta(delta);
        Ok(SoakTemplate {
            scenario: scenario.to_string(),
            alpha,
            beta: fit.beta(),
            pole,
            lambda,
            target,
            hard,
            lo,
            hi,
            initial: if alpha > 0.0 { lo } else { hi },
            disturb: DISTURBANCE_GAIN * (alpha * mid).abs(),
            law: SoakTemplate::law(alpha, pole, lambda, target, hard),
        })
    }

    /// The frozen `N = 1` law of an upper bound, virtual when hard.
    fn law(alpha: f64, pole: f64, lambda: f64, target: f64, hard: bool) -> Law {
        let margin = if hard { lambda } else { 0.0 };
        let reference = (1.0 - margin) * target;
        Law::new(alpha, pole, reference, Sense::UpperBound, hard)
    }

    /// Hard-goal budget `Δ = 1 + 3λ` (paper §5.2): the worst tolerated
    /// overshoot ratio under the two-pole scheme.
    pub fn delta(&self) -> f64 {
        1.0 + 3.0 * self.lambda
    }

    /// The tenant plant: measured metric at `setting` under a traffic
    /// `load` multiplier and a multiplicative sensor `jitter`.
    #[inline]
    pub fn measured(&self, setting: f64, load: f64, jitter: f64) -> f64 {
        ((self.alpha * setting + self.beta) + (load - 1.0) * self.disturb) * (1.0 + jitter)
    }

    /// One integral-law step: the next setting given the current one and
    /// the measured metric — `Controller::step` for a frozen model and
    /// `N = 1` (the same [`Law`], clamped to bounds); a non-finite
    /// reading holds the setting.
    #[inline]
    pub fn next_setting(&self, current: f64, measured: f64) -> f64 {
        if !measured.is_finite() {
            return current;
        }
        self.law.step(current, measured).clamp(self.lo, self.hi)
    }

    /// Overshoot ratio `measured / target` — the quantity cohort
    /// sketches record. 1.0 is exactly on goal; a hard cohort breaches
    /// when its p99 exceeds [`SoakTemplate::delta`].
    #[inline]
    pub fn overshoot(&self, measured: f64) -> f64 {
        measured / self.target
    }

    /// The overshoot ratio below which a tenant counts as *recovered*
    /// after a fault stretch. Hard goals must be back at or under the
    /// real target (the virtual goal's `λ` headroom makes that the
    /// steady state, so it is reachable within a few epochs); soft
    /// goals track the target exactly and hover around 1.0 under the
    /// ±2 % sensor jitter, so their recovery line sits one `λ` above
    /// — jitter-proof without being lenient.
    #[inline]
    pub fn recovered_below(&self) -> f64 {
        if self.hard {
            1.0
        } else {
            1.0 + self.lambda
        }
    }

    /// One guarded sense epoch for a soak tenant under the fault plane.
    ///
    /// This is the slab-weight guard ladder: the full chaos-mode
    /// `GuardSet` re-expressed over the distilled template so a tenant
    /// costs a 56-byte [`SoakSlab`] instead of a `ControlPlane`. The
    /// rungs, in order:
    ///
    /// 1. **Late delivery** — a lag-delayed decision reaches the plant
    ///    at the first un-lagged epoch, before sensing.
    /// 2. **Plant truth** — the measured metric at the *actuated*
    ///    setting; this is what the overshoot sketch records, corrupted
    ///    readings never pollute the SLO statistics.
    /// 3. **Sensor fault** — dropout removes the reading, corruption
    ///    NaNs or scales it.
    /// 4. **Admission filter** — non-finite readings and readings
    ///    beyond 8× target (`SLAB_SPIKE_RATIO`) are rejected before
    ///    they can reach the control law.
    /// 5. **Median-of-3 vote** — when enabled, a reading deviating
    ///    from the median of itself and the previous two admitted
    ///    readings by more than a quarter of the admission cut is
    ///    replaced by that median, killing single-epoch spikes between
    ///    a quarter of the cut and the cut, which slip under
    ///    admission. Consistent readings pass through raw, so clean
    ///    steady-state dynamics are untouched (a vote that *always*
    ///    smoothed would add two epochs of delay and limit-cycle
    ///    against the deadbeat pole).
    /// 6. **Stale watchdog** — after 3 consecutive epochs with no
    ///    admitted reading, the plant reverts to the last setting that
    ///    produced a clean one.
    /// 7. **Divergence fallback** (hard goals) — 3 consecutive admitted
    ///    readings past the real target drop the plant to the
    ///    profiled-safe [`SoakTemplate::initial`] setting and flush the
    ///    lag pipeline.
    /// 8. **Re-engage backoff** — fallback holds for `3 · 2^level`
    ///    epochs (level capped at 2, doubling on every repeated
    ///    fallback) and re-engages only on a clean admitted reading.
    ///
    /// Recovery-SLO accounting (fault stretches, violation bursts,
    /// epochs-to-recover, the unrecovered latch) runs on plant truth.
    /// The clean arm does not come through here: it applies
    /// [`next_setting`](SoakTemplate::next_setting) directly.
    #[inline]
    pub fn guarded_step(
        &self,
        policy: SlabGuardPolicy,
        slab: &mut SoakSlab,
        faults: &ActiveFaults,
        load: f64,
        jitter: f64,
    ) -> StepOutcome {
        let lag_active = faults.lag.is_some();
        if !lag_active && slab.state.has_pending {
            slab.setting = slab.pending;
            slab.state.has_pending = false;
        }
        let measured = self.measured(slab.setting, load, jitter);
        let violated = measured > self.target;
        let reading: Option<f64> = match faults.sensor {
            None => Some(measured),
            Some(SensorFault::Drop) | Some(SensorFault::Stale) => None,
            Some(SensorFault::Nan) => Some(f64::NAN),
            Some(SensorFault::Scale(f)) => Some(measured * f),
        };
        let mut out = StepOutcome {
            measured,
            violated,
            ..StepOutcome::default()
        };

        let cut = SLAB_SPIKE_RATIO * self.target.abs();
        let admitted = reading.filter(|r| r.is_finite() && r.abs() <= cut);
        let value = admitted.map(|r| {
            let v = if policy.vote && slab.state.vote_fill >= 2 {
                let m = median3(r, slab.votes[0], slab.votes[1]);
                if (r - m).abs() > 0.25 * cut {
                    m
                } else {
                    r
                }
            } else {
                r
            };
            slab.votes[1] = slab.votes[0];
            slab.votes[0] = r;
            slab.state.vote_fill = (slab.state.vote_fill + 1).min(2);
            v
        });

        match value {
            None => {
                slab.state.missed = slab.state.missed.saturating_add(1);
                slab.state.viol_streak = 0;
                if slab.state.mode == Mode::Fallback {
                    slab.state.cooldown_left = slab.state.cooldown_left.saturating_sub(1);
                } else if slab.state.missed == SLAB_WATCHDOG_EPOCHS {
                    // Stale watchdog: blind too long — revert to the
                    // last setting that produced a clean reading.
                    slab.setting = slab.last_safe;
                    slab.state.has_pending = false;
                }
            }
            Some(v) => {
                slab.state.missed = 0;
                let danger = v > self.target;
                if slab.state.mode == Mode::Engaged {
                    if !danger {
                        slab.last_safe = slab.setting;
                        slab.state.viol_streak = 0;
                    } else if self.hard {
                        slab.state.viol_streak = slab.state.viol_streak.saturating_add(1);
                    }
                    if self.hard && slab.state.viol_streak >= SLAB_DIVERGENCE_STREAK {
                        self.enter_fallback(slab);
                    } else {
                        let next = self.next_setting(slab.setting, v);
                        if lag_active {
                            slab.pending = next;
                            slab.state.has_pending = true;
                        } else {
                            slab.setting = next;
                        }
                    }
                } else {
                    slab.state.cooldown_left = slab.state.cooldown_left.saturating_sub(1);
                    if slab.state.cooldown_left == 0 {
                        if danger {
                            // Still violating at cooldown expiry: back
                            // off again, dwell doubled.
                            self.enter_fallback(slab);
                        } else {
                            slab.state.mode = Mode::Engaged;
                            slab.state.viol_streak = 0;
                            out.reengaged_dwell = Some(dwell(slab.state.entry_level).into());
                        }
                    }
                }
            }
        }
        // Plant-truth accounting: violation bursts, fault stretches and
        // the recovery SLO.
        let st = &mut slab.state;
        if violated {
            st.burst_len = st.burst_len.saturating_add(1);
        } else if st.burst_len > 0 {
            out.burst_closed = Some(st.burst_len as f64);
            st.burst_len = 0;
        }
        if !faults.is_clean() {
            // Recovery is measured from the end of a fault stretch, so
            // the clock pauses while faults are still firing.
            st.in_stretch = true;
            return out;
        }
        if st.in_stretch {
            st.in_stretch = false;
            st.recovery_pending = true;
        }
        if st.recovery_pending {
            st.recovery_elapsed = st.recovery_elapsed.saturating_add(1);
            if self.overshoot(measured) <= self.recovered_below() {
                out.recovered_after = Some(st.recovery_elapsed as f64);
                st.recovery_pending = false;
                st.recovery_elapsed = 0;
                st.unrecovered = false;
                st.backoff_level = 0;
            } else if st.recovery_elapsed > RECOVERY_SLO_EPOCHS {
                st.unrecovered = true;
            }
        }
        out
    }

    /// Drops the plant to the profiled-safe setting and arms the
    /// re-engage cooldown (rungs 7–8).
    #[inline]
    fn enter_fallback(&self, slab: &mut SoakSlab) {
        let st = &mut slab.state;
        st.mode = Mode::Fallback;
        st.entry_level = st.backoff_level;
        st.cooldown_left = dwell(st.backoff_level);
        st.backoff_level = (st.backoff_level + 1).min(SLAB_BACKOFF_DOUBLINGS);
        st.viol_streak = 0;
        st.has_pending = false;
        slab.setting = self.initial;
    }
}

/// Median of three values, branch-free over `min`/`max` so it is exact
/// and platform-independent.
#[inline]
fn median3(a: f64, b: f64, c: f64) -> f64 {
    a.max(b).min(a.min(b).max(c))
}

/// Epochs a tenant gets to bring its plant back inside the goal after a
/// fault stretch ends before it is latched *unrecovered* — the
/// recovery SLO. Generous against the deadbeat/two-pole laws (which
/// settle in 1–3 model steps) yet far below even the shortest cohort's
/// epoch budget, so a latch means genuinely stuck, not merely slow.
pub const RECOVERY_SLO_EPOCHS: u16 = 12;

/// Admission cut of the slab ladder: readings beyond this multiple of
/// the target are rejected (rung 4).
const SLAB_SPIKE_RATIO: f64 = 8.0;

/// Consecutive missed readings before the stale watchdog reverts to the
/// last-safe setting (rung 6).
const SLAB_WATCHDOG_EPOCHS: u8 = 3;

/// Consecutive violating admitted readings (hard goals) before the
/// divergence fallback fires (rung 7).
const SLAB_DIVERGENCE_STREAK: u8 = 3;

/// Base re-engage cooldown, epochs (rung 8).
const SLAB_COOLDOWN_EPOCHS: u8 = 3;

/// Cap on cooldown doublings across repeated fallbacks (rung 8): the
/// longest dwell is 12 epochs, safe even for the 24-epoch hourly cohort.
const SLAB_BACKOFF_DOUBLINGS: u8 = 2;

/// The fallback dwell at backoff `level`:
/// `SLAB_COOLDOWN_EPOCHS · 2^level` epochs.
#[inline]
fn dwell(level: u8) -> u8 {
    SLAB_COOLDOWN_EPOCHS << level
}

/// The soak's guard switch — its answer to `GuardPolicy`. The ladder's
/// thresholds are fixed: a spike cut at 8× target, 3-epoch watchdog and
/// divergence streaks, and a 3-epoch cooldown with up to 2 doublings. A
/// soak run holds one policy for every tenant; the clean arm never
/// consults it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabGuardPolicy {
    /// Median-of-3 smoothing of admitted readings (rung 5).
    pub vote: bool,
}

impl SlabGuardPolicy {
    /// The production soak ladder, voting.
    pub fn standard() -> SlabGuardPolicy {
        SlabGuardPolicy { vote: true }
    }

    /// The standard ladder without the median-of-3 vote — the DESIGN
    /// §3f plant-quantum pin compares this against
    /// [`standard`](SlabGuardPolicy::standard).
    pub fn without_vote() -> SlabGuardPolicy {
        SlabGuardPolicy { vote: false }
    }

    /// The policy as a `u32`: the vote flag in bit 0. Kept for
    /// perfbench's guarded-step probe, which carries the policy in that
    /// form; `encode` and `decode` go when the probe takes the policy
    /// itself.
    pub fn encode(self) -> u32 {
        self.vote as u32
    }

    /// Inverse of [`encode`](SlabGuardPolicy::encode).
    #[inline]
    pub fn decode(bits: u32) -> SlabGuardPolicy {
        SlabGuardPolicy {
            vote: bits & 1 != 0,
        }
    }
}

/// Guard mode of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Mode {
    /// Controller live.
    #[default]
    Engaged,
    /// Held on the profiled-safe setting pending re-engage.
    Fallback,
}

/// The integer half of a tenant's guard state. Every field is a small
/// saturating counter, so the whole struct packs into 16 bytes beside
/// the slab's five `f64`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SlabGuardState {
    mode: Mode,
    missed: u8,
    viol_streak: u8,
    cooldown_left: u8,
    backoff_level: u8,
    entry_level: u8,
    vote_fill: u8,
    restart_age: u8,
    burst_len: u16,
    recovery_elapsed: u16,
    has_pending: bool,
    in_stretch: bool,
    recovery_pending: bool,
    unrecovered: bool,
}

/// Per-tenant soak slab under the fault plane: the actuated setting
/// plus the guard ladder's working state — 56 bytes, versus the 8 of a
/// clean-arm tenant's bare setting and the kilobytes of a real
/// `ControlPlane`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakSlab {
    /// The setting currently actuated at the plant.
    pub setting: f64,
    /// Lag-delayed decision awaiting delivery (live iff the internal
    /// `has_pending` flag is set).
    pending: f64,
    /// Last setting that produced a clean admitted reading.
    last_safe: f64,
    /// Previous two admitted readings, for the median-of-3 vote.
    votes: [f64; 2],
    state: SlabGuardState,
}

impl SoakSlab {
    /// A fresh tenant at the template's profiled-safe arrival setting.
    pub fn new(template: &SoakTemplate) -> SoakSlab {
        SoakSlab {
            setting: template.initial,
            pending: 0.0,
            last_safe: template.initial,
            votes: [0.0; 2],
            state: SlabGuardState {
                // Fresh arrivals are not post-restart cold caches.
                restart_age: u8::MAX,
                ..SlabGuardState::default()
            },
        }
    }

    /// Opens one epoch: applies a plant restart if the fault plane
    /// fired one (setting back to profiled-safe, controller and vote
    /// state wiped — recovery accounting deliberately survives) and
    /// returns the cold-cache age for the caller's
    /// `TrafficShape::restart_load` lookup (0 on the restart epoch
    /// itself).
    #[inline]
    pub fn begin_epoch(&mut self, template: &SoakTemplate, restart: bool) -> u64 {
        if restart {
            self.setting = template.initial;
            self.last_safe = template.initial;
            self.votes = [0.0; 2];
            let st = &mut self.state;
            st.mode = Mode::Engaged;
            st.missed = 0;
            st.viol_streak = 0;
            st.cooldown_left = 0;
            st.vote_fill = 0;
            st.restart_age = 0;
            st.has_pending = false;
        } else {
            self.state.restart_age = self.state.restart_age.saturating_add(1);
        }
        self.state.restart_age as u64
    }

    /// Whether this tenant has blown the recovery SLO and still not
    /// re-entered its goal — the per-cohort unrecovered count sums
    /// this at end of run over tenants still resident at the horizon.
    #[inline]
    pub fn is_unrecovered(&self) -> bool {
        self.state.unrecovered
    }
}

/// What one [`SoakTemplate::guarded_step`] epoch reports back to the
/// cohort sketches.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepOutcome {
    /// Plant-truth measured metric (record `overshoot(measured)`).
    pub measured: f64,
    /// Whether plant truth violated the real target.
    pub violated: bool,
    /// `Some(dwell_epochs)` when the guard re-engaged this epoch —
    /// feed the epochs-to-re-engage sketch.
    pub reengaged_dwell: Option<f64>,
    /// `Some(epochs)` when a fault-stretch recovery completed this
    /// epoch — feed the MTTR sketch.
    pub recovered_after: Option<f64>,
    /// `Some(length)` when a violation burst closed this epoch — feed
    /// the burst-length sketch.
    pub burst_closed: Option<f64>,
}

/// Tail statistics for one (scenario, sensing-period) cohort, distilled
/// from a streaming sketch — O(1) memory regardless of tenant count.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortReport {
    /// Sensing period of this cohort, µs.
    pub period_us: u64,
    /// Tenants hashed into this cohort (including churners).
    pub tenants: u64,
    /// Sense events recorded (active tenants × their epochs).
    pub senses: u64,
    /// Sense events where the measured metric violated the real target.
    pub violations: u64,
    /// Median overshoot ratio.
    pub p50: f64,
    /// 99th-percentile overshoot ratio.
    pub p99: f64,
    /// 99.9th-percentile overshoot ratio.
    pub p999: f64,
    /// Worst overshoot ratio seen.
    pub max: f64,
    /// Guard re-engage events after divergence fallbacks.
    pub reengages: u64,
    /// p99 epochs-to-re-engage (fallback dwell).
    pub reengage_p99: f64,
    /// p99 violation-burst length, epochs.
    pub burst_p99: f64,
    /// Completed fault-stretch recoveries.
    pub recoveries: u64,
    /// Mean epochs from fault-stretch end back inside the goal (the
    /// per-fault-class MTTR — each soak arm is one fault class).
    pub mttr: f64,
    /// p99 epochs-to-recover.
    pub recovery_p99: f64,
    /// Tenants resident at the horizon that blew the recovery SLO and
    /// never re-entered their goal.
    pub unrecovered: u64,
}

impl CohortReport {
    /// Distils a cohort: the overshoot sketch plus the three
    /// recovery-SLO sketches (re-engage dwell, violation-burst length,
    /// epochs-to-recover; empty on the clean arm) and the end-of-run
    /// unrecovered count.
    #[allow(clippy::too_many_arguments)]
    pub fn from_sketches(
        period_us: u64,
        tenants: u64,
        violations: u64,
        overshoot: &QuantileSketch,
        reengage: &QuantileSketch,
        burst: &QuantileSketch,
        recovery: &QuantileSketch,
        unrecovered: u64,
    ) -> CohortReport {
        CohortReport {
            period_us,
            tenants,
            senses: overshoot.count(),
            violations,
            p50: overshoot.quantile(0.50),
            p99: overshoot.quantile(0.99),
            p999: overshoot.quantile(0.999),
            max: overshoot.max(),
            reengages: reengage.count(),
            reengage_p99: reengage.quantile(0.99),
            burst_p99: burst.quantile(0.99),
            recoveries: recovery.count(),
            mttr: recovery.mean(),
            recovery_p99: recovery.quantile(0.99),
            unrecovered,
        }
    }
}

/// One scenario's soak outcome across all its cohorts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSoakReport {
    /// Scenario id.
    pub scenario: String,
    /// Fault arm this report ran under (`"clean"`, `"dropout"`,
    /// `"corrupt"`, `"lag"`, `"restart"`).
    pub arm: String,
    /// Whether the scenario's goal is hard (gated on p99 ≤ Δ).
    pub hard: bool,
    /// Hard-goal budget Δ = 1 + 3λ for the gate.
    pub delta: f64,
    /// Total tenants soaked for this scenario.
    pub tenants: u64,
    /// Per-cohort tail reports, in ascending period order.
    pub cohorts: Vec<CohortReport>,
}

impl ScenarioSoakReport {
    /// Whether any cohort's p99 overshoot exceeds the hard budget Δ.
    /// Always `false` for soft-goal scenarios.
    pub fn hard_breached(&self) -> bool {
        self.hard && self.cohorts.iter().any(|c| c.p99 > self.delta)
    }

    /// Tenants across all cohorts that ended the run unrecovered.
    pub fn unrecovered_tenants(&self) -> u64 {
        self.cohorts.iter().map(|c| c.unrecovered).sum()
    }
}

/// The full soak fleet report: every scenario, every cohort, plus the
/// run's shape parameters. [`SoakReport::render`] is the byte-stable
/// text artifact diffed across thread counts and machines.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Base experiment seed.
    pub seed: u64,
    /// Tenants per scenario requested.
    pub tenants_per_scenario: u64,
    /// Simulated horizon, µs.
    pub horizon_us: u64,
    /// Per-scenario outcomes, in roster order.
    pub scenarios: Vec<ScenarioSoakReport>,
}

impl SoakReport {
    /// Scenario ids whose hard-goal cohort gate is breached (empty on a
    /// healthy soak).
    pub fn hard_gate_breaches(&self) -> Vec<&str> {
        self.scenarios
            .iter()
            .filter(|s| s.hard_breached())
            .map(|s| s.scenario.as_str())
            .collect()
    }

    /// Unrecovered tenants summed over hard-goal scenario reports — the
    /// zero-tolerance fault-arm gate for HB6728/HD4995/MR2820.
    pub fn unrecovered_hard_tenants(&self) -> u64 {
        self.scenarios
            .iter()
            .filter(|s| s.hard)
            .map(|s| s.unrecovered_tenants())
            .sum()
    }

    /// Total sense events across every cohort of every scenario.
    pub fn total_senses(&self) -> u64 {
        self.scenarios
            .iter()
            .flat_map(|s| s.cohorts.iter())
            .map(|c| c.senses)
            .sum()
    }

    /// Renders the deterministic text report. Every number is formatted
    /// with explicit precision so the output is byte-identical across
    /// thread counts; the smoke binary diffs two renders directly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "soak report: seed {} tenants/scenario {} horizon {}s\n",
            self.seed,
            self.tenants_per_scenario,
            self.horizon_us / 1_000_000
        ));
        for s in &self.scenarios {
            out.push_str(&format!(
                "  {} [{}] {} delta {:.4} tenants {}\n",
                s.scenario,
                s.arm,
                if s.hard { "hard" } else { "soft" },
                s.delta,
                s.tenants
            ));
            for c in &s.cohorts {
                out.push_str(&format!(
                    "    period {:>6}s tenants {:>8} senses {:>10} viol {:>8} \
                     p50 {:.4} p99 {:.4} p999 {:.4} max {:.4} \
                     reeng {:>6} rp99 {:.1} b99 {:.1} rec {:>8} mttr {:.2} unrec {:>4}\n",
                    c.period_us / 1_000_000,
                    c.tenants,
                    c.senses,
                    c.violations,
                    c.p50,
                    c.p99,
                    c.p999,
                    c.max,
                    c.reengages,
                    c.reengage_p99,
                    c.burst_p99,
                    c.recoveries,
                    c.mttr,
                    c.unrecovered
                ));
            }
            if s.hard_breached() {
                out.push_str(&format!("    HARD GATE BREACHED (p99 > {:.4})\n", s.delta));
            }
        }
        out.push_str(&format!("total senses: {}\n", self.total_senses()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartconf_core::{Controller, Goal, Hardness};

    fn toy_profile() -> ProfileSet {
        // Plant: measured = 2c + 10, tight samples → small λ (floored).
        [
            (10.0, 30.0),
            (10.0, 30.2),
            (20.0, 50.0),
            (20.0, 50.4),
            (30.0, 70.0),
            (30.0, 70.2),
            (40.0, 90.0),
            (40.0, 90.3),
        ]
        .into_iter()
        .collect()
    }

    fn toy_template(hard: bool) -> SoakTemplate {
        SoakTemplate::from_profile("TOY1", hard, &[10.0, 20.0, 30.0, 40.0], &toy_profile())
            .expect("toy template")
    }

    #[test]
    fn template_derivation_matches_profile() {
        let t = toy_template(true);
        assert!((t.alpha - 2.0).abs() < 0.05, "alpha {}", t.alpha);
        assert!((t.beta - 10.0).abs() < 1.0, "beta {}", t.beta);
        assert_eq!(t.lo, 10.0);
        assert_eq!(t.hi, 40.0);
        // Median of 4 candidates is the 3rd; target = fit(30) ≈ 70.
        assert!((t.target - 70.0).abs() < 1.0, "target {}", t.target);
        assert!(t.lambda >= LAMBDA_FLOOR);
        assert_eq!(t.initial, 10.0, "positive gain starts at the low bound");
        // λ near the floor gives Δ = 1.15 ≤ 2 → deadbeat pole per §5.1.
        assert_eq!(t.pole, pole_from_delta(t.delta()));
        assert!((0.0..1.0).contains(&t.pole));
        assert!(t.delta() > 1.0);
    }

    #[test]
    fn soft_template_converges_to_target() {
        let t = toy_template(false);
        let mut setting = t.initial;
        for _ in 0..50 {
            let m = t.measured(setting, 1.0, 0.0);
            setting = t.next_setting(setting, m);
        }
        let m = t.measured(setting, 1.0, 0.0);
        assert!(
            (t.overshoot(m) - 1.0).abs() < 1e-6,
            "converged overshoot {}",
            t.overshoot(m)
        );
    }

    #[test]
    fn hard_template_tracks_virtual_goal_and_rejects_load() {
        let t = toy_template(true);
        let mut setting = t.initial;
        // Converge at load 1, then hit a sustained 1.5× load.
        for _ in 0..50 {
            setting = t.next_setting(setting, t.measured(setting, 1.0, 0.0));
        }
        let converged = t.overshoot(t.measured(setting, 1.0, 0.0));
        assert!(
            (converged - (1.0 - t.lambda)).abs() < 1e-6,
            "virtual-goal tracking, got {converged}"
        );
        let mut worst: f64 = 0.0;
        for _ in 0..50 {
            let m = t.measured(setting, 1.5, 0.0);
            worst = worst.max(t.overshoot(m));
            setting = t.next_setting(setting, m);
        }
        // The step disturbance is rejected back inside the hard budget
        // and settles back on the virtual goal.
        let settled = t.overshoot(t.measured(setting, 1.5, 0.0));
        assert!(worst < t.delta(), "worst {} vs delta {}", worst, t.delta());
        assert!(
            (settled - (1.0 - t.lambda)).abs() < 1e-6,
            "settled {settled}"
        );
    }

    #[test]
    fn danger_region_uses_deadbeat_pole() {
        let t = toy_template(true);
        // A measurement far beyond the virtual goal must come back in
        // one model step (pole 0): next measured == virtual target.
        let setting = 35.0;
        let m = t.measured(setting, 1.0, 0.0);
        assert!(m > (1.0 - t.lambda) * t.target, "test premise: in danger");
        let next = t.next_setting(setting, m);
        let recovered = t.measured(next, 1.0, 0.0);
        assert!(
            (recovered - (1.0 - t.lambda) * t.target).abs() < 1e-9,
            "deadbeat recovery, got {recovered}"
        );
    }

    /// The law as written before its constants were hoisted.
    fn reference_next_setting(t: &SoakTemplate, current: f64, measured: f64) -> f64 {
        if !measured.is_finite() {
            return current;
        }
        let target = if t.hard {
            (1.0 - t.lambda) * t.target
        } else {
            t.target
        };
        let error = target - measured;
        let pole = if t.hard && error < 0.0 { 0.0 } else { t.pole };
        let next = current + (1.0 - pole) / t.alpha * error;
        next.clamp(t.lo, t.hi)
    }

    proptest::proptest! {
        /// `next_setting` is, bit for bit, the per-decision formula and
        /// a frozen `N = 1` `Controller::step` built from the template's
        /// α, pole, λ, target and bounds: on both sides of the (virtual)
        /// target, for either gain sign, and on a non-finite reading.
        #[test]
        fn hoisted_law_matches_the_per_decision_formula(
            alpha in -50.0f64..50.0,
            pole in 0.0f64..0.99,
            lambda in 0.05f64..0.5,
            target in 0.1f64..10_000.0,
            hard in proptest::bool::ANY,
            current_frac in 0.0f64..1.0,
            ratio in 0.0f64..3.0,
        ) {
            let mut t = toy_template(hard);
            (t.alpha, t.pole, t.lambda, t.target) = (alpha, pole, lambda, target);
            t.law = SoakTemplate::law(alpha, pole, lambda, target, hard);
            let current = t.lo + current_frac * (t.hi - t.lo);
            let hardness = if hard { Hardness::Hard } else { Hardness::Soft };
            let goal = Goal::new("m", target).with_hardness(hardness).unwrap();
            let mut c = Controller::new(alpha, pole, goal, lambda, (t.lo, t.hi), current).unwrap();
            for measured in [f64::NAN, ratio * target] {
                let next = t.next_setting(current, measured);
                proptest::prop_assert_eq!(next.to_bits(), reference_next_setting(&t, current, measured).to_bits());
                proptest::prop_assert_eq!(c.step(measured).to_bits(), next.to_bits());
            }
        }
    }

    #[test]
    fn template_rejects_degenerate_inputs() {
        let p = toy_profile();
        assert!(SoakTemplate::from_profile("X", false, &[], &p).is_err());
        assert!(SoakTemplate::from_profile("X", false, &[5.0, 5.0], &p).is_err());
        let flat: ProfileSet = [(10.0, 50.0), (20.0, 50.0), (30.0, 50.0), (40.0, 50.0)]
            .into_iter()
            .collect();
        assert!(SoakTemplate::from_profile("X", false, &[10.0, 40.0], &flat).is_err());
    }

    #[test]
    fn cohort_report_distils_sketch() {
        let mut sk = QuantileSketch::new();
        for i in 0..1000 {
            sk.record(0.5 + i as f64 / 1000.0);
        }
        let e = QuantileSketch::new();
        let c = CohortReport::from_sketches(900_000_000, 250, 3, &sk, &e, &e, &e, 0);
        assert_eq!(c.senses, 1000);
        assert_eq!(c.violations, 3);
        assert!((c.p50 - 1.0).abs() < 0.05);
        assert!(c.p99 > c.p50 && c.p999 >= c.p99 && c.max >= c.p999);
    }

    #[test]
    fn render_is_deterministic_and_flags_breaches() {
        let cohort = CohortReport {
            period_us: 900_000_000,
            tenants: 100,
            senses: 9600,
            violations: 12,
            p50: 0.95,
            p99: 1.31,
            p999: 1.40,
            max: 1.55,
            reengages: 4,
            reengage_p99: 6.0,
            burst_p99: 3.0,
            recoveries: 40,
            mttr: 1.5,
            recovery_p99: 4.0,
            unrecovered: 2,
        };
        let report = SoakReport {
            seed: 42,
            tenants_per_scenario: 100,
            horizon_us: 86_400_000_000,
            scenarios: vec![ScenarioSoakReport {
                scenario: "HB6728".into(),
                arm: "corrupt".into(),
                hard: true,
                delta: 1.15,
                tenants: 100,
                cohorts: vec![cohort],
            }],
        };
        assert_eq!(report.render(), report.render());
        assert!(report.render().contains("HARD GATE BREACHED"));
        assert!(report.render().contains("[corrupt]"));
        assert!(report.render().contains("unrec    2"));
        assert_eq!(report.hard_gate_breaches(), vec!["HB6728"]);
        assert_eq!(report.total_senses(), 9600);
        assert_eq!(report.unrecovered_hard_tenants(), 2);

        let mut healthy = report.clone();
        healthy.scenarios[0].cohorts[0].p99 = 1.10;
        assert!(healthy.hard_gate_breaches().is_empty());
        assert!(!healthy.render().contains("BREACHED"));
        healthy.scenarios[0].hard = false;
        assert_eq!(healthy.unrecovered_hard_tenants(), 0);
    }

    #[test]
    fn policy_encoding_roundtrips() {
        for p in [SlabGuardPolicy::standard(), SlabGuardPolicy::without_vote()] {
            assert_eq!(SlabGuardPolicy::decode(p.encode()), p, "{p:?}");
        }
    }

    fn clean() -> ActiveFaults {
        ActiveFaults::default()
    }

    fn sensor(f: SensorFault, class: smartconf_runtime::FaultSet) -> ActiveFaults {
        ActiveFaults {
            sensor: Some(f),
            set: class,
            ..ActiveFaults::default()
        }
    }

    #[test]
    fn admission_and_vote_reject_spikes() {
        let t = toy_template(true);
        let pol = SlabGuardPolicy::standard();
        let mut slab = SoakSlab::new(&t);
        for _ in 0..30 {
            t.guarded_step(pol, &mut slab, &clean(), 1.0, 0.0);
        }
        let converged = slab.setting;
        // A 25× spike reading is rejected at admission: the setting
        // must not move.
        let spike = sensor(SensorFault::Scale(25.0), smartconf_runtime::FaultSet::SPIKE);
        t.guarded_step(pol, &mut slab, &spike, 1.0, 0.0);
        assert_eq!(slab.setting.to_bits(), converged.to_bits());
        // A NaN reading likewise holds.
        let nan = sensor(SensorFault::Nan, smartconf_runtime::FaultSet::NAN);
        t.guarded_step(pol, &mut slab, &nan, 1.0, 0.0);
        assert_eq!(slab.setting.to_bits(), converged.to_bits());
        // A 4× spike passes admission (cut is 8×) but lands beyond the
        // vote's deviation band: the median replaces it and the setting
        // barely moves, while the unvoted ladder swings hard.
        let mild = sensor(SensorFault::Scale(4.0), smartconf_runtime::FaultSet::SPIKE);
        let mut voted = slab;
        t.guarded_step(pol, &mut voted, &mild, 1.0, 0.0);
        let mut unvoted = slab;
        t.guarded_step(
            SlabGuardPolicy::without_vote(),
            &mut unvoted,
            &mild,
            1.0,
            0.0,
        );
        let vote_move = (voted.setting - converged).abs();
        let raw_move = (unvoted.setting - converged).abs();
        assert!(
            vote_move < raw_move / 10.0,
            "vote {vote_move} vs raw {raw_move}"
        );
    }

    #[test]
    fn watchdog_reverts_to_last_safe_under_dropout() {
        let t = toy_template(true);
        let pol = SlabGuardPolicy::standard();
        let mut slab = SoakSlab::new(&t);
        for _ in 0..30 {
            t.guarded_step(pol, &mut slab, &clean(), 1.0, 0.0);
        }
        let safe = slab.last_safe;
        // Perturb the setting, then go blind: after SLAB_WATCHDOG_EPOCHS
        // consecutive dropouts the plant reverts to last-safe.
        slab.setting = (safe + 5.0).min(t.hi);
        let drop = sensor(SensorFault::Drop, smartconf_runtime::FaultSet::DROPOUT);
        for _ in 0..SLAB_WATCHDOG_EPOCHS {
            t.guarded_step(pol, &mut slab, &drop, 1.0, 0.0);
        }
        assert_eq!(slab.setting.to_bits(), safe.to_bits());
    }

    #[test]
    fn divergence_falls_back_then_reengages_with_backoff() {
        let t = toy_template(true);
        let pol = SlabGuardPolicy::standard();
        // Every fallback serves the dwell it reports, through the whole
        // backoff schedule: the dwell doubles twice, then holds.
        let mut slab = SoakSlab::new(&t);
        for want in [3, 6, 12, 12] {
            // Park the plant far beyond the goal under enormous load:
            // the admitted readings violate for SLAB_DIVERGENCE_STREAK
            // epochs and the guard falls back to the safe setting.
            slab.setting = t.hi;
            for _ in 0..SLAB_DIVERGENCE_STREAK {
                t.guarded_step(pol, &mut slab, &clean(), 4.0, 0.0);
            }
            assert_eq!((slab.state.mode, slab.setting), (Mode::Fallback, t.initial));
            // Load returns to normal: the guard re-engages once the
            // dwell it reports has been served.
            let mut served = 0;
            let reported = loop {
                served += 1;
                let out = t.guarded_step(pol, &mut slab, &clean(), 1.0, 0.0);
                if let Some(d) = out.reengaged_dwell {
                    break d;
                }
            };
            assert_eq!((served, reported), (want, want as f64));
        }
        // And the controller walks back to the virtual goal.
        for _ in 0..30 {
            t.guarded_step(pol, &mut slab, &clean(), 1.0, 0.0);
        }
        let m = t.measured(slab.setting, 1.0, 0.0);
        assert!((t.overshoot(m) - (1.0 - t.lambda)).abs() < 1e-6);
    }

    #[test]
    fn lag_defers_delivery_and_restart_resets() {
        let t = toy_template(false);
        let pol = SlabGuardPolicy::standard();
        let mut slab = SoakSlab::new(&t);
        slab.begin_epoch(&t, false);
        let before = slab.setting;
        let lag = ActiveFaults {
            lag: Some(2),
            set: smartconf_runtime::FaultSet::LAG,
            ..ActiveFaults::default()
        };
        // Under lag the decision buffers: the plant setting is frozen.
        t.guarded_step(pol, &mut slab, &lag, 1.0, 0.0);
        assert_eq!(slab.setting.to_bits(), before.to_bits());
        assert!(slab.state.has_pending);
        // First clean epoch delivers the buffered decision before
        // sensing.
        t.guarded_step(pol, &mut slab, &clean(), 1.0, 0.0);
        assert!(!slab.state.has_pending);
        assert_ne!(slab.setting.to_bits(), before.to_bits());
        // A restart snaps the plant back to profiled-safe with a
        // fresh cold-cache age.
        let age = slab.begin_epoch(&t, true);
        assert_eq!(age, 0);
        assert_eq!(slab.setting.to_bits(), t.initial.to_bits());
        assert_eq!(slab.begin_epoch(&t, false), 1);
    }

    #[test]
    fn recovery_accounting_tracks_stretches_and_latches() {
        let t = toy_template(true);
        let pol = SlabGuardPolicy::standard();
        let drop = sensor(SensorFault::Drop, smartconf_runtime::FaultSet::DROPOUT);
        let mut slab = SoakSlab::new(&t);
        for _ in 0..30 {
            t.guarded_step(pol, &mut slab, &clean(), 1.0, 0.0);
        }
        // A dropout stretch ends; the converged plant is already back
        // inside the goal, so recovery completes on the first clean
        // epoch.
        for _ in 0..2 {
            t.guarded_step(pol, &mut slab, &drop, 1.0, 0.0);
        }
        let out = t.guarded_step(pol, &mut slab, &clean(), 1.0, 0.0);
        assert_eq!(out.recovered_after, Some(1.0));
        assert!(!slab.is_unrecovered());
        // A stretch followed by a load no setting can absorb blows the
        // SLO and latches unrecovered: at 10× load even the safe bound
        // violates, so the ladder's fallbacks cannot bring it back.
        assert!(t.overshoot(t.measured(t.initial, 10.0, 0.0)) > t.recovered_below());
        t.guarded_step(pol, &mut slab, &drop, 1.0, 0.0);
        for _ in 0..RECOVERY_SLO_EPOCHS + 2 {
            t.guarded_step(pol, &mut slab, &drop, 10.0, 0.0);
        }
        // Those epochs were fault-active, so the clock paused; now run
        // clean epochs at the same extreme load.
        for _ in 0..RECOVERY_SLO_EPOCHS + 2 {
            t.guarded_step(pol, &mut slab, &clean(), 10.0, 0.0);
        }
        assert!(slab.is_unrecovered());
        // Violation bursts close with their length.
        let mut s2 = SoakSlab::new(&t);
        let mut burst = None;
        t.guarded_step(pol, &mut s2, &clean(), 1.0, 0.0);
        s2.setting = t.hi;
        for _ in 0..3 {
            // Hold the setting hot with a dropped sensor so the
            // violation persists.
            t.guarded_step(pol, &mut s2, &drop, 4.0, 0.0);
        }
        for _ in 0..10 {
            let out = t.guarded_step(pol, &mut s2, &clean(), 1.0, 0.0);
            if let Some(b) = out.burst_closed {
                burst = Some(b);
                break;
            }
        }
        let burst = burst.expect("burst should close once load normalises");
        assert!(burst >= 3.0, "burst {burst}");
    }
}
