//! Structured per-epoch event log.
//!
//! Every time the control plane makes a decision for a channel — whether
//! the channel is SmartConf-controlled or a static baseline — it records
//! one [`EpochEvent`]. The log is the single format the harness and
//! bench crates consume: the configuration trajectory, the measured
//! metric, the tracking error, the pole in effect (context-aware
//! two-pole scheme, paper §5.2), and whether the actuator saturated at
//! its bounds.
//!
//! Alongside the raw events the log maintains streaming per-channel
//! lifetime aggregates ([`EpochSummary`]: violations, settling epoch,
//! mean/max error, saturation), so a summary is one lookup rather than
//! a rescan of the channel's events.

use crate::fault::FaultSet;
use crate::guard::GuardSet;

/// Relative settling band: a channel counts as settled once its tracking
/// error stays within this fraction of the target's magnitude.
const SETTLING_BAND: f64 = 0.02;

/// One control decision for one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochEvent {
    /// Per-channel epoch counter (0-based).
    pub epoch: u64,
    /// Simulated (or wall) time of the decision, microseconds.
    pub t_us: u64,
    /// Index of the channel in the owning [`EpochLog`].
    pub channel: u32,
    /// The setting in force after this decision.
    pub setting: f64,
    /// The sensed metric value that drove the decision.
    pub measured: f64,
    /// The effective (possibly virtual) target. `NaN` for static
    /// channels, which have no controller.
    pub target: f64,
    /// Tracking error `target − measured`. `NaN` for static channels.
    pub error: f64,
    /// The pole used on this step (0 inside the danger region of a hard
    /// goal, the synthesized pole otherwise). `NaN` for static channels.
    pub pole: f64,
    /// Whether the decided setting was clamped at the controller's
    /// bounds. Always `false` for static channels.
    pub saturated: bool,
    /// Faults injected on this epoch (empty outside chaos mode).
    pub faults: FaultSet,
    /// Resilience guards that activated on this epoch (empty outside
    /// chaos mode).
    pub guards: GuardSet,
}

/// Streaming lifetime aggregates for one channel, maintained on every
/// [`EpochLog::push`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochSummary {
    /// Total decisions made for this channel.
    pub epochs: u64,
    /// Decisions whose setting was clamped at the controller bounds.
    pub saturated: u64,
    /// Epochs whose finite tracking error was negative — i.e. the
    /// measured metric exceeded its (possibly virtual) target.
    pub violations: u64,
    /// Epochs until the tracking error last left the ±2% settling band
    /// around the target (0 when the error never left the band, e.g.
    /// static channels with no controller).
    pub settled_after: u64,
    /// Mean of the finite tracking errors (0 when there were none).
    pub mean_error: f64,
    /// Largest absolute finite tracking error, if any epoch had one.
    pub max_abs_error: Option<f64>,
    /// The last decided setting, if the channel ever decided.
    pub last_setting: Option<f64>,
    /// Epochs on which at least one fault was injected.
    pub faults_injected: u64,
    /// Epochs on which at least one resilience guard activated.
    pub guard_activations: u64,
    /// Epochs spent in divergence fallback (holding the profiled-safe
    /// static setting).
    pub fallback_epochs: u64,
    /// Controller re-engagements after a fallback cooldown
    /// ([`GuardSet::REENGAGE`] epochs).
    pub reengages: u64,
    /// Mean epochs from a fallback entry to its re-engage (0 when the
    /// channel never re-engaged) — the "time to re-arm the controller"
    /// half of the recovery SLO.
    pub mean_epochs_to_reengage: f64,
    /// Longest fallback dwell that ended in a re-engage, epochs.
    pub max_epochs_to_reengage: u64,
    /// Number of violation bursts: maximal runs of consecutive epochs
    /// whose finite tracking error was negative (an epoch without a
    /// finite violation — including a missed reading — ends the run).
    pub violation_bursts: u64,
    /// Longest violation burst, epochs.
    pub violation_burst_max: u64,
    /// 99th-percentile violation-burst length, epochs, from a histogram
    /// whose top bin clamps at [`BURST_BINS`] (so values ≥ that read
    /// "at least"); the true maximum is in
    /// [`violation_burst_max`](Self::violation_burst_max).
    pub violation_burst_p99: u64,
    /// Per-fault-class recoveries, indexed by [`FaultSet`] bit (see
    /// [`FaultSet::BIT_LABELS`]): how many faulty stretches involving
    /// that class ended in a settled clean epoch.
    pub recoveries: [u64; 8],
    /// Per-fault-class mean time to recover, epochs, indexed like
    /// [`recoveries`](Self::recoveries): from the first epoch of a
    /// contiguous faulty stretch to the first following clean epoch
    /// whose error is back inside the ±2% settling band (0 when the
    /// class never recovered). A stretch under several classes counts
    /// toward each.
    pub mttr: [f64; 8],
    /// Whether a faulty stretch was still unrecovered (no settled clean
    /// epoch after it) when the run ended.
    pub unrecovered: bool,
}

/// Top bin of the violation-burst histogram: burst lengths at or beyond
/// this clamp into the last bin, so
/// [`EpochSummary::violation_burst_p99`] saturates here while
/// [`EpochSummary::violation_burst_max`] stays exact.
pub const BURST_BINS: u64 = 32;

/// Internal accumulator behind [`EpochSummary`].
#[derive(Debug, Clone, Copy, Default)]
struct ChannelStats {
    epochs: u64,
    saturated: u64,
    violations: u64,
    settled_after: u64,
    error_sum: f64,
    error_count: u64,
    max_abs_error: f64,
    last_setting: f64,
    faults_injected: u64,
    guard_activations: u64,
    fallback_epochs: u64,
    /// Epoch of the last unmatched FALLBACK_ENTER, while in fallback.
    fallback_entered_at: Option<u64>,
    reengages: u64,
    reengage_sum: u64,
    reengage_max: u64,
    /// Length of the violation burst currently being extended.
    current_burst: u64,
    /// Burst-length histogram: index `i` counts bursts of length `i+1`,
    /// lengths ≥ [`BURST_BINS`] clamp into the last bin. Always covers
    /// every burst including the one in progress.
    burst_hist: [u32; BURST_BINS as usize],
    burst_count: u64,
    burst_max: u64,
    /// First epoch of the contiguous faulty stretch awaiting recovery.
    outage_start: Option<u64>,
    /// Union of fault classes injected during that stretch.
    outage_classes: FaultSet,
    recovery_sum: [u64; 8],
    recovery_count: [u64; 8],
}

impl ChannelStats {
    fn update(&mut self, e: &EpochEvent) {
        self.epochs += 1;
        self.saturated += e.saturated as u64;
        self.last_setting = e.setting;
        self.faults_injected += (!e.faults.is_empty()) as u64;
        self.guard_activations += (!e.guards.is_empty()) as u64;
        self.fallback_epochs += e.guards.contains(GuardSet::FALLBACK) as u64;

        // Epochs-to-reengage: pair each fallback entry with the next
        // re-engage. A single epoch can carry both (re-engage, then a
        // fresh divergence re-enters), so the close runs before the open.
        if e.guards.contains(GuardSet::REENGAGE) {
            if let Some(entered) = self.fallback_entered_at.take() {
                let dwell = e.epoch.saturating_sub(entered);
                self.reengages += 1;
                self.reengage_sum += dwell;
                self.reengage_max = self.reengage_max.max(dwell);
            }
        }
        if e.guards.contains(GuardSet::FALLBACK_ENTER) {
            self.fallback_entered_at = Some(e.epoch);
        }

        let settled = e.error.is_finite() && e.error.abs() <= SETTLING_BAND * e.target.abs();
        // MTTR: a contiguous faulty stretch opens on its first fault
        // epoch and recovers at the first *clean* epoch back inside the
        // settling band; the elapsed epochs count toward every fault
        // class injected during the stretch.
        if !e.faults.is_empty() {
            if self.outage_start.is_none() {
                self.outage_start = Some(e.epoch);
                self.outage_classes = FaultSet::default();
            }
            self.outage_classes.insert(e.faults);
        } else if settled {
            if let Some(start) = self.outage_start.take() {
                let epochs = e.epoch.saturating_sub(start);
                let bits = self.outage_classes.bits();
                for class in 0..8 {
                    if bits & (1 << class) != 0 {
                        self.recovery_sum[class] += epochs;
                        self.recovery_count[class] += 1;
                    }
                }
            }
        }

        if e.error.is_finite() {
            self.error_count += 1;
            self.error_sum += e.error;
            let abs = e.error.abs();
            if abs > self.max_abs_error {
                self.max_abs_error = abs;
            }
            if e.error < 0.0 {
                self.violations += 1;
                // Extend (or open) the current burst, moving its
                // histogram entry so the histogram always covers the
                // burst in progress.
                if self.current_burst > 0 {
                    self.burst_hist[Self::burst_bin(self.current_burst)] -= 1;
                } else {
                    self.burst_count += 1;
                }
                self.current_burst += 1;
                self.burst_hist[Self::burst_bin(self.current_burst)] += 1;
                self.burst_max = self.burst_max.max(self.current_burst);
            } else {
                self.current_burst = 0;
            }
            if abs > SETTLING_BAND * e.target.abs() {
                self.settled_after = e.epoch + 1;
            }
        } else {
            self.current_burst = 0;
        }
    }

    fn burst_bin(len: u64) -> usize {
        (len.min(BURST_BINS) - 1) as usize
    }

    /// Smallest burst length whose upper tail holds at least 1% of the
    /// bursts (the top bin saturates at [`BURST_BINS`]).
    fn burst_p99(&self) -> u64 {
        if self.burst_count == 0 {
            return 0;
        }
        let tail_target = self.burst_count.div_ceil(100);
        let mut tail = 0u64;
        for bin in (0..BURST_BINS as usize).rev() {
            tail += u64::from(self.burst_hist[bin]);
            if tail >= tail_target {
                return bin as u64 + 1;
            }
        }
        1
    }

    fn summary(&self) -> EpochSummary {
        let mut mttr = [0.0f64; 8];
        for (class, slot) in mttr.iter_mut().enumerate() {
            if self.recovery_count[class] > 0 {
                *slot = self.recovery_sum[class] as f64 / self.recovery_count[class] as f64;
            }
        }
        EpochSummary {
            epochs: self.epochs,
            saturated: self.saturated,
            violations: self.violations,
            settled_after: self.settled_after,
            mean_error: if self.error_count == 0 {
                0.0
            } else {
                self.error_sum / self.error_count as f64
            },
            max_abs_error: (self.error_count > 0).then_some(self.max_abs_error),
            last_setting: (self.epochs > 0).then_some(self.last_setting),
            faults_injected: self.faults_injected,
            guard_activations: self.guard_activations,
            fallback_epochs: self.fallback_epochs,
            reengages: self.reengages,
            mean_epochs_to_reengage: if self.reengages == 0 {
                0.0
            } else {
                self.reengage_sum as f64 / self.reengages as f64
            },
            max_epochs_to_reengage: self.reengage_max,
            violation_bursts: self.burst_count,
            violation_burst_max: self.burst_max,
            violation_burst_p99: self.burst_p99(),
            recoveries: self.recovery_count,
            mttr,
            unrecovered: self.outage_start.is_some(),
        }
    }
}

/// The per-run log of every channel's epochs, in decision order.
///
/// # Example
///
/// ```
/// use smartconf_runtime::{EpochEvent, EpochLog};
///
/// let mut log = EpochLog::new(vec!["conf".into()]);
/// for epoch in 0..1_000u64 {
///     log.push(EpochEvent {
///         epoch,
///         t_us: epoch * 1_000,
///         channel: 0,
///         setting: 50.0,
///         measured: 90.0,
///         target: 100.0,
///         error: 10.0,
///         pole: 0.5,
///         saturated: epoch % 2 == 0,
///         faults: Default::default(),
///         guards: Default::default(),
///     });
/// }
/// assert_eq!(log.len(), 1_000);
/// assert_eq!(log.events_for("conf").nth(7).map(|e| e.t_us), Some(7_000));
/// let s = log.summary("conf").unwrap();
/// assert_eq!(s.epochs, 1_000);
/// assert_eq!(s.saturated, 500);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EpochLog {
    channels: Vec<String>,
    events: Vec<EpochEvent>,
    stats: Vec<ChannelStats>,
}

impl EpochLog {
    /// Creates an empty log over the given channel names.
    pub fn new(channels: Vec<String>) -> Self {
        let stats = vec![ChannelStats::default(); channels.len()];
        EpochLog {
            channels,
            events: Vec::new(),
            stats,
        }
    }

    /// Appends one event (the control plane calls this).
    pub fn push(&mut self, event: EpochEvent) {
        debug_assert!((event.channel as usize) < self.channels.len());
        if let Some(stats) = self.stats.get_mut(event.channel as usize) {
            stats.update(&event);
        }
        self.events.push(event);
    }

    /// Channel names, in [`EpochEvent::channel`] index order.
    pub fn channels(&self) -> &[String] {
        &self.channels
    }

    /// Every event, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &EpochEvent> {
        self.events.iter()
    }

    /// Number of events across channels.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no decisions were logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Index of a channel by name.
    pub fn channel_index(&self, name: &str) -> Option<usize> {
        self.channels.iter().position(|c| c == name)
    }

    /// Lifetime aggregates for one channel.
    pub fn summary(&self, name: &str) -> Option<EpochSummary> {
        self.channel_index(name).map(|i| self.stats[i].summary())
    }

    /// Lifetime aggregates for every channel, in channel-index order.
    pub fn summaries(&self) -> impl Iterator<Item = (&str, EpochSummary)> {
        self.channels
            .iter()
            .zip(&self.stats)
            .map(|(name, stats)| (name.as_str(), stats.summary()))
    }

    /// Events of one channel, in decision order.
    pub fn events_for<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a EpochEvent> + 'a {
        let idx = self.channel_index(name).map(|i| i as u32);
        self.events.iter().filter(move |e| Some(e.channel) == idx)
    }

    /// The last decided setting of a channel, if it ever decided.
    pub fn last_setting(&self, name: &str) -> Option<f64> {
        self.summary(name).and_then(|s| s.last_setting)
    }

    /// Largest absolute tracking error over a channel's lifetime epochs
    /// (ignores the `NaN` errors of static channels). `None` both for a
    /// channel with no finite errors and for an unknown name; the debug
    /// assertion distinguishes the two so misspelled channel names fail
    /// loudly in tests instead of reading as "no error".
    pub fn max_abs_error(&self, name: &str) -> Option<f64> {
        let summary = self.summary(name);
        debug_assert!(
            summary.is_some(),
            "max_abs_error queried for unknown channel {name:?} (channels: {:?})",
            self.channels
        );
        summary.and_then(|s| s.max_abs_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(channel: u32, epoch: u64, t_us: u64, setting: f64) -> EpochEvent {
        EpochEvent {
            epoch,
            t_us,
            channel,
            setting,
            measured: setting * 2.0,
            target: 100.0,
            error: 100.0 - setting * 2.0,
            pole: 0.5,
            saturated: setting >= 90.0,
            faults: FaultSet::default(),
            guards: GuardSet::default(),
        }
    }

    fn log() -> EpochLog {
        let mut log = EpochLog::new(vec!["a".into(), "b".into()]);
        log.push(event(0, 0, 0, 10.0));
        log.push(event(1, 0, 500, 50.0));
        log.push(event(0, 1, 1_000, 95.0));
        log
    }

    #[test]
    fn per_channel_views() {
        let log = log();
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.channel_index("b"), Some(1));
        assert_eq!(log.events_for("a").count(), 2);
        assert_eq!(log.last_setting("a"), Some(95.0));
        assert_eq!(log.last_setting("b"), Some(50.0));
        assert_eq!(log.last_setting("missing"), None);
    }

    #[test]
    fn fault_and_guard_aggregates() {
        let mut log = EpochLog::new(vec!["a".into()]);
        let mut e0 = event(0, 0, 0, 10.0);
        e0.faults.insert(FaultSet::DROPOUT);
        e0.guards.insert(GuardSet::MISSED);
        log.push(e0);
        let mut e1 = event(0, 1, 1, 10.0);
        e1.guards.insert(GuardSet::FALLBACK);
        log.push(e1);
        log.push(event(0, 2, 2, 10.0));
        let s = log.summary("a").unwrap();
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.guard_activations, 2);
        assert_eq!(s.fallback_epochs, 1);
    }

    #[test]
    fn max_abs_error_skips_nan() {
        let mut log = EpochLog::new(vec!["a".into()]);
        let mut e = event(0, 0, 0, 10.0);
        e.error = f64::NAN;
        log.push(e);
        assert_eq!(log.max_abs_error("a"), None);
        log.push(event(0, 1, 1, 40.0));
        assert_eq!(log.max_abs_error("a"), Some(20.0));
    }

    #[test]
    fn reengage_dwell_is_tracked_per_entry() {
        let mut log = EpochLog::new(vec!["a".into()]);
        let mut push = |epoch: u64, bits: &[GuardSet]| {
            let mut e = event(0, epoch, epoch, 50.0);
            for b in bits {
                e.guards.insert(*b);
            }
            log.push(e);
        };
        // Entry at 2, re-engage at 7 (dwell 5); entry at 10, re-engage
        // at 20 (dwell 10) — the backed-off second entry.
        push(2, &[GuardSet::FALLBACK_ENTER]);
        for epoch in 3..7 {
            push(epoch, &[GuardSet::FALLBACK]);
        }
        push(7, &[GuardSet::REENGAGE]);
        push(10, &[GuardSet::FALLBACK_ENTER]);
        push(20, &[GuardSet::REENGAGE]);
        let s = log.summary("a").unwrap();
        assert_eq!(s.reengages, 2);
        assert_eq!(s.mean_epochs_to_reengage, 7.5);
        assert_eq!(s.max_epochs_to_reengage, 10);
    }

    #[test]
    fn reengage_and_reenter_on_one_epoch_pair_correctly() {
        let mut log = EpochLog::new(vec!["a".into()]);
        let mut e = event(0, 5, 5, 50.0);
        e.guards.insert(GuardSet::FALLBACK_ENTER);
        log.push(e);
        // Epoch 9 both re-engages the old hold and re-enters a new one.
        let mut e = event(0, 9, 9, 50.0);
        e.guards.insert(GuardSet::REENGAGE);
        e.guards.insert(GuardSet::FALLBACK_ENTER);
        log.push(e);
        let mut e = event(0, 12, 12, 50.0);
        e.guards.insert(GuardSet::REENGAGE);
        log.push(e);
        let s = log.summary("a").unwrap();
        assert_eq!(s.reengages, 2);
        assert_eq!(s.max_epochs_to_reengage, 4);
        assert_eq!(s.mean_epochs_to_reengage, 3.5);
    }

    #[test]
    fn violation_bursts_histogram_max_and_p99() {
        let mut log = EpochLog::new(vec!["a".into()]);
        let mut epoch = 0u64;
        // error = 100 − 2·setting: setting 60 violates, setting 50 is in
        // band. 99 one-epoch bursts and one four-epoch burst: p99 must
        // reach into the single long burst.
        for _ in 0..99 {
            log.push(event(0, epoch, epoch, 60.0));
            epoch += 1;
            log.push(event(0, epoch, epoch, 50.0));
            epoch += 1;
        }
        for _ in 0..4 {
            log.push(event(0, epoch, epoch, 60.0));
            epoch += 1;
        }
        let s = log.summary("a").unwrap();
        assert_eq!(s.violation_bursts, 100);
        assert_eq!(s.violation_burst_max, 4);
        assert_eq!(s.violation_burst_p99, 4);
        assert_eq!(s.violations, 99 + 4);
    }

    #[test]
    fn open_burst_and_long_burst_clamp() {
        let mut log = EpochLog::new(vec!["a".into()]);
        // One still-open 40-epoch burst: counted, max exact, p99 clamped
        // at the top histogram bin.
        for epoch in 0..40u64 {
            log.push(event(0, epoch, epoch, 60.0));
        }
        let s = log.summary("a").unwrap();
        assert_eq!(s.violation_bursts, 1);
        assert_eq!(s.violation_burst_max, 40);
        assert_eq!(s.violation_burst_p99, BURST_BINS);
    }

    #[test]
    fn nan_error_ends_a_burst() {
        let mut log = EpochLog::new(vec!["a".into()]);
        log.push(event(0, 0, 0, 60.0));
        let mut e = event(0, 1, 1, 60.0);
        e.error = f64::NAN;
        log.push(e);
        log.push(event(0, 2, 2, 60.0));
        let s = log.summary("a").unwrap();
        assert_eq!(s.violation_bursts, 2);
        assert_eq!(s.violation_burst_max, 1);
    }

    #[test]
    fn mttr_attributes_recovery_to_every_class_in_the_stretch() {
        let mut log = EpochLog::new(vec!["a".into()]);
        // Clean settled epoch (setting 50 ⇒ error 0).
        log.push(event(0, 0, 0, 50.0));
        // Faulty stretch 1..4: dropout, then dropout+lag.
        let mut e = event(0, 1, 1, 60.0);
        e.faults.insert(FaultSet::DROPOUT);
        log.push(e);
        let mut e = event(0, 2, 2, 60.0);
        e.faults.insert(FaultSet::DROPOUT);
        e.faults.insert(FaultSet::LAG);
        log.push(e);
        let mut e = event(0, 3, 3, 60.0);
        e.faults.insert(FaultSet::LAG);
        log.push(e);
        // Clean but NOT settled (setting 60 ⇒ error −20): recovery waits.
        log.push(event(0, 4, 4, 60.0));
        // Clean and settled: the stretch recovers, 5 − 1 = 4 epochs.
        log.push(event(0, 5, 5, 50.0));
        let s = log.summary("a").unwrap();
        let dropout = 0usize; // FaultSet bit order
        let lag = 4usize;
        assert_eq!(s.recoveries[dropout], 1);
        assert_eq!(s.recoveries[lag], 1);
        assert_eq!(s.mttr[dropout], 4.0);
        assert_eq!(s.mttr[lag], 4.0);
        assert_eq!(s.recoveries[1], 0, "stale never fired");
        assert!(!s.unrecovered);
    }

    #[test]
    fn open_outage_reads_unrecovered() {
        let mut log = EpochLog::new(vec!["a".into()]);
        log.push(event(0, 0, 0, 50.0));
        let mut e = event(0, 1, 1, 60.0);
        e.faults.insert(FaultSet::NAN);
        log.push(e);
        let s = log.summary("a").unwrap();
        assert!(s.unrecovered);
        assert_eq!(s.recoveries[2], 0);
        // A later settled clean epoch flips it.
        log.push(event(0, 2, 2, 50.0));
        let s = log.summary("a").unwrap();
        assert!(!s.unrecovered);
        assert_eq!(s.recoveries[2], 1);
        assert_eq!(s.mttr[2], 1.0);
    }

    #[test]
    fn violations_and_settling() {
        let mut log = EpochLog::new(vec!["a".into()]);
        // error = 100 − 2·setting: setting 60 ⇒ error −20 (violation);
        // setting 50 ⇒ error 0 (in band).
        log.push(event(0, 0, 0, 60.0));
        log.push(event(0, 1, 1, 50.0));
        log.push(event(0, 2, 2, 50.0));
        let s = log.summary("a").unwrap();
        assert_eq!(s.violations, 1);
        assert_eq!(s.settled_after, 1); // left the band at epoch 0 only
        assert!((s.mean_error - (-20.0 / 3.0)).abs() < 1e-12);
    }
}
