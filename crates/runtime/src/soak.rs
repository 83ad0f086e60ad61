//! Cohort calendar: batched sense dispatch for million-tenant soaks.
//!
//! The soak mode shards a scenario's tenants into *cohorts* by sensing
//! period. Scheduling one heap event per tenant per epoch would put
//! millions of entries on the calendar; instead the calendar carries
//! **one event per (cohort, tick)** and the soak engine sweeps every
//! tenant in that cohort when the tick fires. Idle tenants therefore
//! cost zero between sense events — the PR-5 event-heap claim, exercised
//! at fleet scale.
//!
//! [`run_cohort_calendar`] is deliberately tiny: it owns only the
//! simkernel scheduling discipline (which cohort fires when, in which
//! deterministic order) and delegates all tenant work to a callback.
//! Ties at the same instant fire in cohort-index order because the
//! kernel's heap is FIFO-stable and the first tick for every cohort is
//! seeded in index order.

use smartconf_simkernel::{Context, Model, SimDuration, SimTime, Simulation};

/// One cohort's place on the calendar.
struct CohortTick {
    /// Sensing period, µs. Each firing reschedules `period_us` ahead.
    period_us: u64,
}

struct Calendar<F> {
    cohorts: Vec<CohortTick>,
    horizon_us: u64,
    /// Epochs fired so far, per cohort (0-based epoch passed to the callback).
    fired: Vec<u64>,
    on_sense: F,
}

impl<F: FnMut(usize, u64, u64)> Model for Calendar<F> {
    type Event = usize;

    fn handle(&mut self, cohort: usize, ctx: &mut Context<'_, usize>) {
        let now = ctx.now().as_micros();
        if now >= self.horizon_us {
            return;
        }
        let epoch = self.fired[cohort];
        self.fired[cohort] += 1;
        (self.on_sense)(cohort, epoch, now);
        let period = self.cohorts[cohort].period_us;
        if now + period < self.horizon_us {
            ctx.schedule_in(SimDuration::from_micros(period), cohort);
        }
    }
}

/// The number of sense epochs a cohort with sensing period `period_us`
/// fires over `[0, horizon_us)`: ticks land at `p, 2p, …` strictly
/// before the horizon, so the count is `⌊(horizon − 1) / p⌋`.
///
/// The soak's fault-plane arms size their tenant-keyed burst windows
/// from this budget (see [`TenantFaultWindows::sized_for`]), so window
/// geometry and the calendar's actual tick count can never drift apart.
///
/// [`TenantFaultWindows::sized_for`]: crate::TenantFaultWindows::sized_for
pub fn cohort_epochs(period_us: u64, horizon_us: u64) -> u64 {
    if horizon_us == 0 {
        return 0;
    }
    (horizon_us - 1) / period_us.max(1)
}

/// Drives every cohort's sense ticks over `[0, horizon_us)` on the
/// simkernel event heap.
///
/// Cohort `i` senses at `periods_us[i], 2·periods_us[i], …` (the first
/// tick is one full period in, matching the epoch loop's
/// sense-after-run discipline). On each tick, `on_sense(cohort, epoch,
/// now_us)` is invoked once — the callback sweeps the cohort's tenant
/// slab. Simultaneous ticks fire in ascending cohort order, so the
/// callback sequence is a pure function of `(periods_us, horizon_us)`.
///
/// Returns the total number of cohort ticks fired.
pub fn run_cohort_calendar<F>(periods_us: &[u64], horizon_us: u64, on_sense: F) -> u64
where
    F: FnMut(usize, u64, u64),
{
    let cohorts: Vec<CohortTick> = periods_us
        .iter()
        .map(|&p| CohortTick {
            period_us: p.max(1),
        })
        .collect();
    let n = cohorts.len();
    let model = Calendar {
        cohorts,
        horizon_us,
        fired: vec![0; n],
        on_sense,
    };
    // Seed is irrelevant: the calendar never consults the kernel RNG.
    let mut sim = Simulation::new(model, 0);
    for (i, &p) in periods_us.iter().enumerate() {
        let first = p.max(1);
        if first < horizon_us {
            sim.schedule_at(SimTime::from_micros(first), i);
        }
    }
    sim.run();
    sim.into_model().fired.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_counts_match_period_arithmetic() {
        // Horizon 10 s, periods 1 s / 2 s / 3 s: ticks at p, 2p, … < 10 s.
        let mut ticks = vec![0u64; 3];
        let total =
            run_cohort_calendar(&[1_000_000, 2_000_000, 3_000_000], 10_000_000, |c, _, _| {
                ticks[c] += 1
            });
        assert_eq!(ticks, vec![9, 4, 3]);
        assert_eq!(total, 16);
    }

    #[test]
    fn cohort_epochs_matches_the_calendar() {
        // The closed form the fault arms size their windows from must
        // agree with what the calendar actually fires.
        for (period, horizon) in [
            (1_000_000u64, 10_000_000u64),
            (2_000_000, 10_000_000),
            (3_000_000, 10_000_000),
            (900_000_000, 86_400_000_000),
            (3_600_000_000, 86_400_000_000),
            (1_000_000, 1_000_000), // first tick lands on the horizon
            (5, 0),
            (0, 3),
        ] {
            let mut fired = 0u64;
            run_cohort_calendar(&[period], horizon, |_, _, _| fired += 1);
            assert_eq!(
                cohort_epochs(period, horizon),
                fired,
                "period {period} horizon {horizon}"
            );
        }
    }

    #[test]
    fn epochs_and_times_are_consistent() {
        let mut log = Vec::new();
        run_cohort_calendar(&[500_000, 250_000], 2_000_000, |c, e, t| {
            log.push((c, e, t))
        });
        for &(c, e, t) in &log {
            let period = [500_000u64, 250_000][c];
            assert_eq!(t, (e + 1) * period, "cohort {c} epoch {e}");
        }
        // Simultaneous ticks (t = 500k, 1M, 1.5M) fire in cohort order.
        for pair in log.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(a.2 < b.2 || (a.2 == b.2 && a.0 < b.0), "{a:?} !< {b:?}");
        }
    }

    #[test]
    fn callback_order_is_reproducible() {
        let trace = |seedless: &mut Vec<(usize, u64)>| {
            run_cohort_calendar(&[900, 1800, 2700, 3600], 100_000, |c, e, _| {
                seedless.push((c, e))
            });
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        trace(&mut a);
        trace(&mut b);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        assert_eq!(run_cohort_calendar(&[], 1_000_000, |_, _, _| {}), 0);
        assert_eq!(
            run_cohort_calendar(&[1_000_000], 1_000_000, |_, _, _| {}),
            0
        );
        // Zero period is clamped to 1 µs, not an infinite loop.
        assert_eq!(run_cohort_calendar(&[0], 3, |_, _, _| {}), 2);
    }
}
