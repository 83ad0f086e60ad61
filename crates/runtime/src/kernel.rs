//! The event kernel: the control plane scheduled on the simkernel heap.
//!
//! [`EventPlane`] schedules a [`ControlPlane`] on
//! [`smartconf_simkernel::Simulation`]: every channel senses on its own
//! period ([`channel_with_period`](crate::ControlPlaneBuilder::channel_with_period))
//! and idle channels cost nothing between events. Each `Sense` runs
//! [`ControlPlane::decide`], the same call scenarios with their own
//! simkernel loops make, so faults are evaluated by one path. With
//! uniform periods a run is one round over every channel per period;
//! this module's tests pin those [`EpochLog`](crate::EpochLog)s by
//! digest, and the mixed-period ones too.
//!
//! # Event taxonomy
//!
//! - [`PlaneEvent::Sense`] — read the channel's sensor, run
//!   [`ControlPlane::decide`] (guard ladder included when chaos is
//!   armed), poll the restart notification, then schedule the matching
//!   `Actuate` at the same instant.
//! - [`PlaneEvent::Actuate`] — apply the decided setting to the plant,
//!   poll the shed notification, and schedule the next `Sense`.
//!
//! # Ordering rule (what makes runs deterministic)
//!
//! The kernel inherits the calendar's total order: events fire by time,
//! ties by scheduling sequence (FIFO). On top of that it chains
//! **cohorts**: channels sharing a period form a cohort in declaration
//! order. Within a cohort, `Actuate(k)` schedules `Sense(k+1)` at the
//! same instant, and the last member's `Actuate` schedules the first
//! member's `Sense` one period later. Coincident epochs therefore
//! interleave in declaration order (`sense₀, apply₀, sense₁, apply₁, …`).
//!
//! A channel's epoch `e` senses at time `(e + 1) · period_us` — one full
//! period of warm-up before the first decision.

use smartconf_simkernel::{Context, Model, SimDuration, SimTime, Simulation};

use crate::{ChannelId, ControlPlane, EpochLog, Plant};

/// The event alphabet of the control plane's kernel model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlaneEvent {
    /// Sense and decide one channel's epoch.
    Sense(ChannelId),
    /// Apply a decided setting to the plant and schedule the next sense.
    Actuate {
        /// The channel being actuated.
        channel: ChannelId,
        /// The decided setting (output space).
        setting: f64,
    },
}

/// The kernel's model: the plane, the plant, and the scheduling state.
#[derive(Debug)]
struct KernelModel<P: Plant> {
    plane: ControlPlane,
    plant: P,
    /// Channels grouped by equal sensing period, declaration order
    /// preserved both across and within cohorts.
    cohorts: Vec<Vec<ChannelId>>,
    /// Channel index → (cohort index, position within the cohort).
    slot: Vec<(usize, usize)>,
}

impl<P: Plant> Model for KernelModel<P> {
    type Event = PlaneEvent;

    fn handle(&mut self, event: PlaneEvent, ctx: &mut Context<'_, PlaneEvent>) {
        match event {
            PlaneEvent::Sense(ch) => {
                let sensed = self.plant.sense(ch);
                let setting = self.plane.decide(ch, ctx.now().as_micros(), sensed);
                if self.plane.take_plant_restart(ch) {
                    self.plant.restart(ch);
                }
                ctx.schedule_at(
                    ctx.now(),
                    PlaneEvent::Actuate {
                        channel: ch,
                        setting,
                    },
                );
            }
            PlaneEvent::Actuate { channel, setting } => {
                self.plant.apply(channel, setting);
                if self.plane.take_plant_shed(channel) {
                    self.plant.shed(channel);
                }
                let (ci, pos) = self.slot[channel.index()];
                let cohort = &self.cohorts[ci];
                if pos + 1 < cohort.len() {
                    // Chain the cohort's next channel at this instant.
                    ctx.schedule_at(ctx.now(), PlaneEvent::Sense(cohort[pos + 1]));
                } else {
                    let first = cohort[0];
                    let period = SimDuration::from_micros(self.plane.period_us(first));
                    ctx.schedule_in(period, PlaneEvent::Sense(first));
                }
            }
        }
    }
}

/// A [`ControlPlane`] and its [`Plant`] scheduled on the simkernel event
/// heap, with one `Sense` per channel per
/// [`period_us`](ControlPlane::period_us).
///
/// # Example
///
/// ```
/// use smartconf_core::{Controller, Goal, SmartConf};
/// use smartconf_runtime::{ChannelId, ControlPlane, Decider, EventPlane, Plant, Sensed};
///
/// // Plant: metric = 2 × setting. Goal: metric == 400.
/// struct Linear { setting: f64 }
/// impl Plant for Linear {
///     fn now_us(&self) -> u64 { 0 } // the kernel owns the clock
///     fn sense(&mut self, _: ChannelId) -> Sensed { Sensed::direct(2.0 * self.setting) }
///     fn apply(&mut self, _: ChannelId, setting: f64) { self.setting = setting; }
/// }
///
/// let ctl = Controller::new(2.0, 0.0, Goal::new("m", 400.0), 0.0, (0.0, 1e6), 0.0)?;
/// let mut builder = ControlPlane::builder();
/// let chan = builder.channel_with_period(
///     "cache.size",
///     Decider::Direct(Box::new(SmartConf::new("cache.size", ctl))),
///     250_000, // sense 4× per second
/// );
/// let plane = builder.build();
/// let mut events = EventPlane::new(plane, Linear { setting: 0.0 });
/// events.run_until_us(10_000_000); // 10 simulated seconds → 40 epochs
/// assert_eq!(events.plane().log().events_for("cache.size").count(), 40);
/// assert!((2.0 * events.plant().setting - 400.0).abs() < 1.0);
/// # Ok::<(), smartconf_core::Error>(())
/// ```
#[derive(Debug)]
pub struct EventPlane<P: Plant> {
    sim: Simulation<KernelModel<P>>,
}

impl<P: Plant> EventPlane<P> {
    /// Schedules the plane over the plant: each cohort's first `Sense`
    /// one period in.
    pub fn new(plane: ControlPlane, plant: P) -> Self {
        let n = plane.channel_count();
        let mut cohorts: Vec<(u64, Vec<ChannelId>)> = Vec::new();
        let mut slot = vec![(0usize, 0usize); n];
        for (i, s) in slot.iter_mut().enumerate() {
            let ch = ChannelId(i);
            let p = plane.period_us(ch);
            let ci = match cohorts.iter().position(|(cp, _)| *cp == p) {
                Some(ci) => ci,
                None => {
                    cohorts.push((p, Vec::new()));
                    cohorts.len() - 1
                }
            };
            *s = (ci, cohorts[ci].1.len());
            cohorts[ci].1.push(ch);
        }
        let cohorts: Vec<Vec<ChannelId>> = cohorts.into_iter().map(|(_, c)| c).collect();
        let model = KernelModel {
            plane,
            plant,
            cohorts: cohorts.clone(),
            slot,
        };
        // The kernel model consumes no randomness: every handler is a
        // pure function of the popped event and the model state.
        let mut sim = Simulation::new(model, 0);
        for cohort in &cohorts {
            let first = cohort[0];
            let period = sim.model().plane.period_us(first);
            sim.schedule_at(SimTime::from_micros(period), PlaneEvent::Sense(first));
        }
        EventPlane { sim }
    }

    /// Runs the calendar up to and including `deadline_us`.
    pub fn run_until_us(&mut self, deadline_us: u64) {
        self.sim.run_until(SimTime::from_micros(deadline_us));
    }

    /// Current simulated time, microseconds.
    pub fn now_us(&self) -> u64 {
        self.sim.now().as_micros()
    }

    /// Calendar events processed so far (one sense and one actuation
    /// per epoch; the benchmark's kernel probe divides its time by this).
    pub fn events_processed(&self) -> u64 {
        self.sim.steps()
    }

    /// The plane (log, settings, chaos state).
    pub fn plane(&self) -> &ControlPlane {
        &self.sim.model().plane
    }

    /// The plant under control.
    pub fn plant(&self) -> &P {
        &self.sim.model().plant
    }

    /// Consumes the kernel, returning the plane and the plant.
    pub fn into_parts(self) -> (ControlPlane, P) {
        let model = self.sim.into_model();
        (model.plane, model.plant)
    }

    /// Consumes the kernel, returning the epoch log.
    pub fn into_log(self) -> EpochLog {
        self.into_parts().0.into_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Campaign, ChaosSpec, Decider, EpochEvent, FaultClass, GuardPolicy, GuardSet, Sensed,
    };
    use smartconf_core::{
        Controller, ControllerBuilder, Goal, Hardness, ModelMode, SmartConf, SmartConfIndirect,
    };

    const PERIOD: u64 = 1_000_000;

    /// A synthetic plant: the metric is a pure function of the settings
    /// plus noise keyed off a per-channel sense counter, so a run is a
    /// pure function of its shape, fault plane and seed.
    struct TwinPlant {
        settings: Vec<f64>,
        senses: Vec<u64>,
        noise_seed: u64,
        restarts: u64,
        sheds: u64,
    }

    impl TwinPlant {
        fn new(channels: usize, noise_seed: u64) -> Self {
            TwinPlant {
                settings: vec![10.0; channels],
                senses: vec![0; channels],
                noise_seed,
                restarts: 0,
                sheds: 0,
            }
        }

        fn noise(&self, chan: usize) -> f64 {
            let mut z = self
                .noise_seed
                .wrapping_add((chan as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(self.senses[chan].wrapping_mul(0xBF58_476D_1CE4_E5B9));
            z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 6.0
        }
    }

    impl Plant for TwinPlant {
        fn now_us(&self) -> u64 {
            0 // the kernel owns the clock
        }
        fn sense(&mut self, chan: ChannelId) -> Sensed {
            let i = chan.index();
            let total: f64 = self.settings.iter().sum();
            let noise = self.noise(i);
            self.senses[i] += 1;
            Sensed::with_deputy(total + noise, self.settings[i])
        }
        fn apply(&mut self, chan: ChannelId, setting: f64) {
            self.settings[chan.index()] = setting;
        }
        fn restart(&mut self, chan: ChannelId) {
            self.settings[chan.index()] = 10.0;
            self.restarts += 1;
        }
        fn shed(&mut self, chan: ChannelId) {
            let i = chan.index();
            self.settings[i] = self.settings[i].min(40.0);
            self.sheds += 1;
        }
    }

    /// FNV-1a over a run's full event log and the plant's end state
    /// (restart and shed call counts, settings bit patterns). `Debug`
    /// renders every float in shortest round-trip form, so equal
    /// digests mean bit-equal finite fields.
    fn digest(events: &[EpochEvent], plant: &TwinPlant) -> u64 {
        let settings: Vec<u64> = plant.settings.iter().map(|x| x.to_bits()).collect();
        format!("{events:?}|{}|{}|{settings:?}", plant.restarts, plant.sheds)
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The kernel tests' controller: gain 1, pole 0.3, λ 0.1 over
    /// `[0, 500]` from 10, with a frozen or an RLS (`GainModel::Rls`)
    /// model seeded at that gain.
    fn controller(target: f64, hardness: Hardness, mode: ModelMode) -> Controller {
        let goal = Goal::new("m", target).with_hardness(hardness).unwrap();
        ControllerBuilder::new(goal)
            .alpha(1.0)
            .pole(0.3)
            .lambda(0.1)
            .bounds(0.0, 500.0)
            .initial(10.0)
            .model_mode(mode)
            .build()
            .unwrap()
    }

    /// The plane shapes of the scenario roster: single direct (CA6059,
    /// HB2149, HB3813, HB6728, HD4995, MR2820 style), dual deputy
    /// sharing a super-hard metric (TWIN style), and smart + static.
    /// Shape 3 mixes all three at their own periods: a direct hard
    /// channel at 200 ms, a deputy super-hard pair at 700 ms and a
    /// static channel at 5 s, so no two cohorts share an epoch axis.
    fn build_plane(shape: usize, mode: ModelMode) -> ControlPlane {
        let mut b = ControlPlane::builder();
        match shape {
            0 => {
                b.channel(
                    "solo",
                    Decider::Direct(Box::new(SmartConf::new(
                        "solo",
                        controller(200.0, Hardness::Hard, mode),
                    ))),
                );
            }
            1 => {
                for name in ["qa", "qb"] {
                    b.channel(
                        name,
                        Decider::Deputy(Box::new(SmartConfIndirect::new(
                            name,
                            controller(300.0, Hardness::SuperHard, mode),
                        ))),
                    );
                }
            }
            2 => {
                b.channel(
                    "smart",
                    Decider::Direct(Box::new(SmartConf::new(
                        "smart",
                        controller(250.0, Hardness::Hard, mode),
                    ))),
                );
                b.channel("fixed", Decider::Static(30.0));
            }
            _ => {
                b.channel_with_period(
                    "fast",
                    Decider::Direct(Box::new(SmartConf::new(
                        "fast",
                        controller(200.0, Hardness::Hard, mode),
                    ))),
                    200_000,
                );
                for name in ["qa", "qb"] {
                    b.channel_with_period(
                        name,
                        Decider::Deputy(Box::new(SmartConfIndirect::new(
                            name,
                            controller(300.0, Hardness::SuperHard, mode),
                        ))),
                        700_000,
                    );
                }
                b.channel_with_period("fixed", Decider::Static(30.0), 5_000_000);
            }
        }
        b.build()
    }

    /// The fault plane a run is armed with.
    #[derive(Debug, Clone, Copy)]
    enum Arm {
        Clean,
        Class(FaultClass),
        Campaign(Campaign),
    }

    /// A run of `shape` (smart channels on `mode` models) under `arm`
    /// for `horizon` seconds (periods of the uniform shapes): the event
    /// log and the plant it drove.
    fn kernel_run(
        shape: usize,
        mode: ModelMode,
        arm: Arm,
        seed: u64,
        horizon: u64,
    ) -> (Vec<EpochEvent>, TwinPlant) {
        let mut plane = build_plane(shape, mode);
        let guard = GuardPolicy::new()
            .fallback_setting("solo", 25.0)
            .fallback_setting("fast", 25.0)
            .fallback_setting("qa", 35.0)
            .fallback_setting("qb", 35.0)
            .fallback_setting("smart", 25.0);
        match arm {
            Arm::Clean => {}
            Arm::Class(class) => {
                plane.enable_chaos(ChaosSpec::new(seed, class.standard_plan(), guard))
            }
            Arm::Campaign(campaign) => plane.enable_chaos(ChaosSpec::new(
                seed,
                campaign.plan(),
                guard.campaign_hardened(),
            )),
        }
        let plant = TwinPlant::new(plane.channel_count(), seed ^ 0xD15C);
        let mut events = EventPlane::new(plane, plant);
        events.run_until_us(horizon * PERIOD);
        let (plane, plant) = events.into_parts();
        (plane.into_log().events().copied().collect(), plant)
    }

    /// Asserts `kernel_run` of `shape` matches its pinned digest, and
    /// that an armed run injected faults (and restarted the plant under
    /// the restart class); returns the run's events.
    fn assert_run_pinned(
        shape: usize,
        mode: ModelMode,
        arm: Arm,
        seed: u64,
        horizon: u64,
        pin: u64,
    ) -> Vec<EpochEvent> {
        let (events, plant) = kernel_run(shape, mode, arm, seed, horizon);
        if !matches!(arm, Arm::Clean) {
            assert!(
                events.iter().any(|e| !e.faults.is_empty()),
                "{arm:?} shape {shape}: no faults fired"
            );
        }
        if matches!(arm, Arm::Class(FaultClass::PlantRestart)) {
            assert!(
                plant.restarts > 0,
                "shape {shape}: restart never reached the plant"
            );
        }
        assert_eq!(
            digest(&events, &plant),
            pin,
            "{mode:?} {arm:?} shape {shape} seed {seed}: kernel log moved"
        );
        events
    }

    /// Asserts `kernel_run` matches its pinned digest for shapes 0–2.
    /// The clean-arm pins were recorded while the retired lockstep loop
    /// (`ControlPlane::run`) was still in the tree, where the same runs
    /// were proven byte-identical to it, so they keep the uniform-period
    /// kernel equal to the lockstep schedule. The chaos and campaign pins
    /// were re-recorded when the guard thresholds became constants (the
    /// test guard had tightened the watchdog to 3 epochs and the
    /// cooldown to 20); they pin the kernel against itself at the
    /// constants.
    fn assert_pinned(arm: Arm, seed: u64, horizon: u64, pins: [u64; 3]) {
        for (shape, pin) in pins.into_iter().enumerate() {
            assert_run_pinned(shape, ModelMode::Frozen, arm, seed, horizon, pin);
        }
    }

    #[test]
    fn uniform_periods_match_pinned_digests_clean() {
        assert_pinned(
            Arm::Clean,
            7,
            120,
            [
                0x96b0_fd77_5a08_5cfd,
                0x6fbe_c2f0_3a2f_480a,
                0x74f5_8d2a_d779_e030,
            ],
        );
    }

    #[test]
    fn uniform_periods_match_pinned_digests_under_every_fault_class() {
        const PINS: [[u64; 3]; 7] = [
            [
                0x25b9_5880_b6e4_cdba,
                0x68e0_dcb5_d9f3_d6d3,
                0x0dee_2bbe_bae7_5388,
            ],
            [
                0x41db_d3b1_d6ab_4d14,
                0xe00a_240c_2c4d_11a4,
                0xb556_9ed2_3a9c_bb33,
            ],
            [
                0xbdc3_9e64_95cc_38c4,
                0xa252_b28d_345a_e4a6,
                0xffeb_3f43_3833_5354,
            ],
            [
                0x1ba3_1721_48c3_a949,
                0xbf8d_61b8_c352_d91a,
                0xe950_4d2d_a943_32c9,
            ],
            [
                0x8c00_a76b_8f1d_cd6d,
                0x96e2_d675_bb07_245f,
                0x4e41_45d5_af71_d089,
            ],
            [
                0x16c5_a0f8_9add_f5c8,
                0xf790_6d83_a94e_e7c7,
                0xf7f4_a9cd_98f0_51fd,
            ],
            [
                0xad3d_7e76_e4b4_d935,
                0x5494_2af7_d189_4a3b,
                0x4f31_0a21_0758_e911,
            ],
        ];
        for (class, pins) in FaultClass::ALL.into_iter().zip(PINS) {
            assert_pinned(Arm::Class(class), 11, 400, pins);
        }
    }

    #[test]
    fn uniform_periods_match_pinned_digests_under_every_campaign() {
        // Compound campaigns drive overlapping windows — including the
        // per-channel staggered ones of cascading-dropout, which shape 1
        // (two channels) shifts by one stagger per channel.
        const PINS: [[u64; 3]; 4] = [
            [
                0xf980_6aef_8dcc_5d45,
                0xca90_a241_94a5_10fd,
                0x6026_7133_7e3a_b142,
            ],
            [
                0x93b2_7a6c_907f_6599,
                0xeecd_2aad_1ae9_73e4,
                0x03c5_f2e4_41d8_4ccb,
            ],
            [
                0x204d_df12_7475_03ab,
                0xe678_b2d3_e30c_1de4,
                0x2b0a_2a3c_331b_8f57,
            ],
            [
                0x387d_6030_f42d_f302,
                0xe917_6926_7a6f_1ed3,
                0xff5c_ccd1_4c50_1760,
            ],
        ];
        for (campaign, pins) in Campaign::ALL.into_iter().zip(PINS) {
            assert_pinned(Arm::Campaign(campaign), 11, 400, pins);
        }
    }

    #[test]
    fn adaptive_channels_match_pinned_digests_under_every_fault_class_and_campaign() {
        // The frozen pins above never reach the adaptive rungs: RELEARN
        // on restart, model doubt, and the estimator learning through a
        // fallback hold. Shapes 0–2 on RLS models, seed 11, every fault
        // class, then every campaign.
        const PINS: [[u64; 3]; 11] = [
            [
                0x3c21_4032_f032_b7dd,
                0xdf74_0e86_a854_84e0,
                0x8784_2781_2a2c_e842,
            ],
            [
                0x0035_0d38_6a5d_0b71,
                0x5a46_8318_217a_2eba,
                0xf183_e3f5_c061_1114,
            ],
            [
                0xb379_d3f9_8871_2454,
                0x9615_0c61_4afc_9a15,
                0x18cc_8452_98d2_6240,
            ],
            [
                0x22e5_f4f1_8aef_f5b0,
                0xb32d_dfea_04b3_de01,
                0x8b63_2cf6_f407_958c,
            ],
            [
                0x403d_5b06_f20b_e0fc,
                0x8648_27c2_67b7_77bb,
                0x887d_5a1a_9129_8105,
            ],
            [
                0xc9f7_87bf_9a64_9d36,
                0xb41d_efd7_25dd_4153,
                0xc635_f421_0538_75d7,
            ],
            [
                0xd7c8_246a_2613_317c,
                0x8b7a_7b02_dd94_5a69,
                0xff60_245d_2de4_a566,
            ],
            [
                0xc9af_3ba0_0daa_eb0f,
                0x3789_6b72_f676_f040,
                0xfe24_a537_58e9_fca5,
            ],
            [
                0xb963_1a1f_13da_22e4,
                0x6372_e512_1407_d2da,
                0x3979_9df4_6ea2_be10,
            ],
            [
                0xd981_b9a5_9368_e2c3,
                0x331b_d34b_732d_4725,
                0xe12c_f1fa_970c_0134,
            ],
            [
                0xa35b_b789_27e1_4ba2,
                0x5310_afdd_9431_0d00,
                0x7d41_d433_1ee3_10a6,
            ],
        ];
        let arms = FaultClass::ALL
            .map(Arm::Class)
            .into_iter()
            .chain(Campaign::ALL.map(Arm::Campaign));
        let mut doubted = false;
        for (arm, pins) in arms.zip(PINS) {
            for (shape, pin) in pins.into_iter().enumerate() {
                let events = assert_run_pinned(shape, ModelMode::Adaptive, arm, 11, 400, pin);
                let fired = |bit| events.iter().any(|e| e.guards.contains(bit));
                if matches!(arm, Arm::Class(FaultClass::PlantRestart)) {
                    assert!(fired(GuardSet::RELEARN), "shape {shape}: no RELEARN");
                    assert!(!fired(GuardSet::REPROFILE), "shape {shape}: REPROFILE");
                }
                doubted |= fired(GuardSet::MODEL_DOUBT);
            }
        }
        assert!(doubted, "no adaptive run tripped MODEL_DOUBT");
    }

    #[test]
    fn shed_notifications_reach_the_plant_identically() {
        // SensorDropout trips the watchdog, which sheds admitted work;
        // the kernel must deliver exactly the pinned shed() calls.
        let (events, plant) = kernel_run(
            0,
            ModelMode::Frozen,
            Arm::Class(FaultClass::SensorDropout),
            3,
            400,
        );
        assert_eq!(plant.sheds, 76, "shed calls");
        assert!(events.iter().any(|e| e.guards.contains(GuardSet::SHED)));
        assert_eq!(digest(&events, &plant), 0xe186_b94d_cae2_578e);
    }

    #[test]
    fn heterogeneous_periods_sense_at_their_own_cadence() {
        let mut b = ControlPlane::builder();
        let fast = b.channel_with_period(
            "fast",
            Decider::Direct(Box::new(SmartConf::new(
                "fast",
                controller(200.0, Hardness::Hard, ModelMode::Frozen),
            ))),
            250_000,
        );
        let slow = b.channel_with_period(
            "slow",
            Decider::Direct(Box::new(SmartConf::new(
                "slow",
                controller(200.0, Hardness::Hard, ModelMode::Frozen),
            ))),
            1_000_000,
        );
        let plane = b.build();
        assert_eq!(plane.period_us(fast), 250_000);
        assert_eq!(plane.period_us(slow), 1_000_000);
        let plant = TwinPlant::new(2, 1);
        let mut events = EventPlane::new(plane, plant);
        events.run_until_us(10_000_000);
        let log = events.plane().log();
        assert_eq!(log.events_for("fast").count(), 40);
        assert_eq!(log.events_for("slow").count(), 10);
        // Epoch e of a channel senses at (e + 1) · period.
        let t: Vec<u64> = log.events_for("fast").take(3).map(|e| e.t_us).collect();
        assert_eq!(t, vec![250_000, 500_000, 750_000]);
        let t: Vec<u64> = log.events_for("slow").take(2).map(|e| e.t_us).collect();
        assert_eq!(t, vec![1_000_000, 2_000_000]);
    }

    #[test]
    fn heterogeneous_chaos_replays_exactly() {
        // Mixed periods (shape 3) are where per-channel epoch axes drift
        // apart on the calendar: each channel's faults must follow its
        // own epoch counter. Pins are per (arm, seed) for seeds 11, 29;
        // every fault class, then every campaign.
        const SEEDS: [u64; 2] = [11, 29];
        const PINS: [[u64; 2]; 11] = [
            [0xdcc9_c2bf_e344_5f6e, 0xe74b_f7b6_6c82_7872],
            [0xcb61_f44b_14e1_2486, 0xa0ff_99d8_4639_d56b],
            [0x8220_fe9e_8f9c_cde5, 0xeed0_9a46_e107_d78b],
            [0x0b0b_4d2c_936e_4838, 0x7e86_a506_736c_a147],
            [0xbf41_d2d0_0541_9ba2, 0x887f_9301_4b4f_e5cd],
            [0x5230_11af_d9e1_6b1e, 0x4291_1d64_04a2_f741],
            [0x03c5_f1fb_e98c_f08b, 0x32a2_d07e_5a4b_85a6],
            [0x47a0_39b5_de5a_247d, 0x32f2_e596_2dbd_2f7d],
            [0x6e6f_3bfa_3b17_ff66, 0x761f_88f9_1577_e281],
            [0x6fc0_35bd_8052_7a5a, 0x9d3c_85db_c88b_58de],
            [0x6556_3da5_37a1_b8e4, 0xf92c_789a_ca5e_cb71],
        ];
        let arms = FaultClass::ALL
            .map(Arm::Class)
            .into_iter()
            .chain(Campaign::ALL.map(Arm::Campaign));
        for (arm, pins) in arms.zip(PINS) {
            for (seed, pin) in SEEDS.into_iter().zip(pins) {
                let events = assert_run_pinned(3, ModelMode::Frozen, arm, seed, 120, pin);
                for ch in 0..4 {
                    assert!(
                        events
                            .iter()
                            .any(|e| e.channel == ch && !e.faults.is_empty()),
                        "{arm:?} seed {seed}: no faults fired on channel {ch}"
                    );
                }
            }
        }
    }

    #[test]
    fn event_counter_reports_calendar_steps() {
        let (plane, _) = ControlPlane::single("c", Decider::Static(5.0));
        let plant = TwinPlant::new(1, 3);
        let mut events = EventPlane::new(plane, plant);
        // Epoch 0 senses one warm-up period in.
        events.run_until_us(PERIOD - 1);
        assert_eq!(events.events_processed(), 0);
        events.run_until_us(10 * PERIOD);
        // 10 epochs × (Sense + Actuate).
        assert_eq!(events.events_processed(), 20);
        assert_eq!(events.now_us(), 10 * PERIOD);
        // The chain keeps itself alive: epoch 10 senses one period on.
        events.run_until_us(11 * PERIOD);
        assert_eq!(events.events_processed(), 22);
    }

    proptest::proptest! {
        /// Uniform-period runs keep the epoch grid under every fault
        /// plane: each channel logs exactly one decision per period,
        /// epoch `e` at `(e + 1) · period`, channels interleaved in
        /// declaration order within each instant.
        #[test]
        fn uniform_event_runs_keep_the_epoch_grid(
            shape in 0usize..3,
            class_idx in 0usize..=FaultClass::ALL.len(), // == len ⇒ clean
            seed in 0u64..10_000,
            horizon in 50u64..300,
        ) {
            let arm = FaultClass::ALL.get(class_idx).map_or(Arm::Clean, |&c| Arm::Class(c));
            let (events, _) = kernel_run(shape, ModelMode::Frozen, arm, seed, horizon);
            let channels = build_plane(shape, ModelMode::Frozen).channel_count() as u64;
            proptest::prop_assert_eq!(events.len() as u64, horizon * channels);
            for (i, e) in events.iter().enumerate() {
                let i = i as u64;
                proptest::prop_assert_eq!(u64::from(e.channel), i % channels);
                proptest::prop_assert_eq!(e.epoch, i / channels);
                proptest::prop_assert_eq!(e.t_us, (e.epoch + 1) * PERIOD);
            }
        }
    }
}
