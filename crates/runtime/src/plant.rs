//! The plant abstraction: the system under control.
//!
//! A plant is anything with a clock, a sensor per control channel, and
//! an actuator per control channel. [`EventPlane`](crate::EventPlane)
//! schedules its senses and actuations on the simkernel calendar; the
//! discrete-event simulators in the scenario crates instead call
//! [`ControlPlane::decide`](crate::ControlPlane::decide) at the code
//! sites where the configuration takes effect (the paper invokes
//! SmartConf "at every point where the software would read the
//! configuration").

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

/// The system under control: sense the metric, apply the configuration.
pub trait Plant {
    /// Current time in microseconds (simulated or wall clock).
    fn now_us(&self) -> u64;

    /// Senses the metric (and, for indirect channels, the deputy) for
    /// one channel.
    fn sense(&mut self, channel: ChannelId) -> Sensed;

    /// Applies a newly decided setting for one channel.
    fn apply(&mut self, channel: ChannelId, setting: f64);

    /// Resets plant-side state for one channel after an injected plant
    /// restart (chaos mode: queues drain, accumulated state is lost).
    /// [`EventPlane`](crate::EventPlane) calls this when the fault plane
    /// restarts mid-run; plants that call `decide` themselves poll
    /// [`ControlPlane::take_plant_restart`](crate::ControlPlane::take_plant_restart).
    /// The default does nothing.
    fn restart(&mut self, _channel: ChannelId) {}

    /// Sheds already-admitted work for one channel down to the setting
    /// currently in force, when the guard ladder degrades the channel
    /// (watchdog revert or fallback hold).
    /// [`EventPlane`](crate::EventPlane) calls this after actuation;
    /// plants that call `decide` themselves poll
    /// [`ControlPlane::take_plant_shed`](crate::ControlPlane::take_plant_shed).
    /// The default does nothing (most plants have no sheddable queue).
    fn shed(&mut self, _channel: ChannelId) {}
}
