//! The plant abstraction: the system under control.
//!
//! A plant is anything with a clock, a sensor per control channel, and
//! an actuator per control channel. The discrete-event simulators in the
//! scenario crates implement [`Plant`] on their mechanism state and call
//! [`ControlPlane::epoch_for`](crate::ControlPlane::epoch_for) at the
//! code sites where the configuration takes effect (the paper invokes
//! SmartConf "at every point where the software would read the
//! configuration"); simpler plants implement [`Plant::advance`] and let
//! [`ControlPlane::run`](crate::ControlPlane::run) own the whole loop.

/// Identifies one control channel of a [`ControlPlane`](crate::ControlPlane).
///
/// Returned by
/// [`ControlPlaneBuilder::channel`](crate::ControlPlaneBuilder::channel);
/// cheap to copy into plant state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(pub(crate) usize);

impl ChannelId {
    /// The channel's index (also [`EpochEvent::channel`](crate::EpochEvent::channel)).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// One sensor reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensed {
    /// The controlled metric (what the goal constrains).
    pub measured: f64,
    /// The deputy variable's current value, for indirectly-acting
    /// configurations (paper §5.3). `None` for direct channels.
    pub deputy: Option<f64>,
}

impl Sensed {
    /// A direct measurement with no deputy.
    pub fn direct(measured: f64) -> Self {
        Sensed {
            measured,
            deputy: None,
        }
    }

    /// A measurement paired with the deputy's observed value.
    pub fn with_deputy(measured: f64, deputy: f64) -> Self {
        Sensed {
            measured,
            deputy: Some(deputy),
        }
    }
}

impl From<f64> for Sensed {
    fn from(measured: f64) -> Self {
        Sensed::direct(measured)
    }
}

/// The system under control: sense the metric, apply the configuration,
/// (optionally) advance one epoch.
pub trait Plant {
    /// Current time in microseconds (simulated or wall clock).
    fn now_us(&self) -> u64;

    /// Senses the metric (and, for indirect channels, the deputy) for
    /// one channel.
    fn sense(&mut self, channel: ChannelId) -> Sensed;

    /// Applies a newly decided setting for one channel.
    fn apply(&mut self, channel: ChannelId, setting: f64);

    /// Advances the plant by one epoch, returning `false` when the run
    /// is over. Only used by [`ControlPlane::run`](crate::ControlPlane::run);
    /// event-driven plants that invoke
    /// [`epoch_for`](crate::ControlPlane::epoch_for) at their own
    /// decision points keep the default.
    fn advance(&mut self) -> bool {
        false
    }

    /// Resets plant-side state for one channel after an injected plant
    /// restart (chaos mode: queues drain, accumulated state is lost).
    /// [`ControlPlane::epoch_for`](crate::ControlPlane::epoch_for) calls
    /// this when the fault plane restarts mid-run; event-driven plants
    /// poll [`ControlPlane::take_plant_restart`](crate::ControlPlane::take_plant_restart)
    /// themselves. The default does nothing.
    fn restart(&mut self, _channel: ChannelId) {}

    /// Sheds already-admitted work for one channel down to the setting
    /// currently in force, when the guard ladder degrades the channel
    /// (watchdog revert or fallback hold).
    /// [`ControlPlane::epoch_for`](crate::ControlPlane::epoch_for) calls
    /// this after actuation; event-driven plants poll
    /// [`ControlPlane::take_plant_shed`](crate::ControlPlane::take_plant_shed)
    /// themselves. The default does nothing (most plants have no
    /// sheddable queue).
    fn shed(&mut self, _channel: ChannelId) {}
}
