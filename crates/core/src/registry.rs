//! The configuration registry: SmartConf system files and application
//! configuration files (paper Figure 2, §4.1.1, §5.5).
//!
//! Developers maintain a *system file* (invisible to users) mapping each
//! SmartConf configuration to the metric it affects, with its initial
//! setting and valid range:
//!
//! ```text
//! /* SmartConf.sys */
//! profiling = off
//! max.queue.size @ memory_consumption_max
//! max.queue.size = 50
//! max.queue.size.min = 0
//! max.queue.size.max = 10000
//! ```
//!
//! Users see only the *application configuration file*, where they state
//! goals, not settings:
//!
//! ```text
//! /* HBase.conf */
//! memory_consumption_max = 1024
//! memory_consumption_max.hard = 1
//! ```
//!
//! Profiling samples live in per-configuration `<ConfName>.SmartConf.sys`
//! files (see [`ProfileSet::to_sys_string`]).

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::{
    ControllerBuilder, Error, Goal, Hardness, ProfileSet, Result, Sense, SmartConf,
    SmartConfIndirect, Transducer,
};

/// Developer-declared facts about one SmartConf configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfEntry {
    /// The metric this configuration affects (key into the goals table).
    pub metric: String,
    /// Starting value before the first controller step (quality does not
    /// matter, §6.3).
    pub initial: f64,
    /// Smallest valid setting.
    pub min: f64,
    /// Largest valid setting.
    pub max: f64,
    /// Whether the configuration bounds a deputy variable (§5.3) rather
    /// than acting on performance directly.
    pub indirect: bool,
}

impl Default for ConfEntry {
    fn default() -> Self {
        ConfEntry {
            metric: String::new(),
            initial: 0.0,
            min: 0.0,
            max: f64::MAX,
            indirect: false,
        }
    }
}

/// In-memory registry of SmartConf configurations, goals, and profiles.
///
/// # Example
///
/// ```
/// use smartconf_core::{Goal, ProfileSet, Registry};
///
/// let mut reg = Registry::new();
/// reg.parse_sys_str(
///     "max.queue.size @ memory_consumption_max\n\
///      max.queue.size = 50\n",
/// )?;
/// reg.parse_app_str(
///     "memory_consumption_max = 1024\n\
///      memory_consumption_max.hard = 1\n",
/// )?;
/// let mut profile = ProfileSet::new();
/// for s in [40.0, 80.0, 120.0, 160.0] {
///     for k in 0..10 {
///         profile.add(s, 100.0 + 2.0 * s + (k % 3) as f64);
///     }
/// }
/// reg.add_profile("max.queue.size", profile);
/// let mut conf = reg.build_indirect("max.queue.size")?;
/// conf.set_perf(400.0, 50.0);
/// assert!(conf.conf() > 0.0);
/// # Ok::<(), smartconf_core::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: BTreeMap<String, ConfEntry>,
    goals: BTreeMap<String, Goal>,
    profiles: BTreeMap<String, ProfileSet>,
    profiling: bool,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Declares a configuration programmatically.
    pub fn add_conf(
        &mut self,
        name: impl Into<String>,
        metric: impl Into<String>,
        initial: f64,
        bounds: (f64, f64),
    ) -> &mut Self {
        self.entries.insert(
            name.into(),
            ConfEntry {
                metric: metric.into(),
                initial,
                min: bounds.0,
                max: bounds.1,
                indirect: false,
            },
        );
        self
    }

    /// Declares an indirect configuration (one that bounds a deputy
    /// variable, §5.3) programmatically.
    pub fn add_indirect_conf(
        &mut self,
        name: impl Into<String>,
        metric: impl Into<String>,
        initial: f64,
        bounds: (f64, f64),
    ) -> &mut Self {
        let name = name.into();
        self.add_conf(name.clone(), metric, initial, bounds);
        if let Some(entry) = self.entries.get_mut(&name) {
            entry.indirect = true;
        }
        self
    }

    /// Declares (or replaces) a goal programmatically.
    pub fn set_goal(&mut self, goal: Goal) -> &mut Self {
        self.goals.insert(goal.metric().to_string(), goal);
        self
    }

    /// Attaches profiling data for a configuration.
    pub fn add_profile(&mut self, name: impl Into<String>, profile: ProfileSet) -> &mut Self {
        self.profiles.insert(name.into(), profile);
        self
    }

    /// Whether the developer enabled profiling capture (§5.5).
    pub fn profiling_enabled(&self) -> bool {
        self.profiling
    }

    /// Looks up a configuration entry.
    pub fn entry(&self, name: &str) -> Option<&ConfEntry> {
        self.entries.get(name)
    }

    /// Looks up a goal by metric name.
    pub fn goal(&self, metric: &str) -> Option<&Goal> {
        self.goals.get(metric)
    }

    /// Looks up profiling data for a configuration.
    pub fn profile(&self, name: &str) -> Option<&ProfileSet> {
        self.profiles.get(name)
    }

    /// Number of configurations associated with `metric` — the interaction
    /// factor `N` applied to super-hard goals (§5.4).
    pub fn interaction_count(&self, metric: &str) -> u32 {
        self.entries.values().filter(|e| e.metric == metric).count() as u32
    }

    // ------------------------------------------------------------------
    // Parsing
    // ------------------------------------------------------------------

    /// Parses system-file syntax (additively).
    ///
    /// Recognized lines: `conf @ metric`, `conf = value`,
    /// `conf.min = value`, `conf.max = value`, `conf.indirect = 0|1`,
    /// `profiling = on|off`;
    /// blank lines, `#` and `/* ... */` comments are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] with a 1-based line number on malformed
    /// input.
    pub fn parse_sys_str(&mut self, text: &str) -> Result<()> {
        for (idx, raw) in text.lines().enumerate() {
            let line = strip_comment(raw);
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            if let Some((conf, metric)) = split_once_trim(line, '@') {
                if conf.is_empty() || metric.is_empty() {
                    return Err(parse_err(lineno, "expected '<conf> @ <metric>'"));
                }
                self.entries.entry(conf.to_string()).or_default().metric = metric.to_string();
                continue;
            }
            let Some((key, value)) = split_once_trim(line, '=') else {
                return Err(parse_err(lineno, "expected '@' mapping or '=' assignment"));
            };
            if key == "profiling" {
                self.profiling = match value {
                    "on" | "1" | "true" => true,
                    "off" | "0" | "false" => false,
                    other => {
                        return Err(parse_err(lineno, &format!("bad profiling value '{other}'")))
                    }
                };
                continue;
            }
            let number: f64 = value
                .parse()
                .map_err(|_| parse_err(lineno, &format!("bad number '{value}'")))?;
            if let Some(conf) = key.strip_suffix(".indirect") {
                self.entries.entry(conf.to_string()).or_default().indirect = number != 0.0;
            } else if let Some(conf) = key.strip_suffix(".min") {
                self.entries.entry(conf.to_string()).or_default().min = number;
            } else if let Some(conf) = key.strip_suffix(".max") {
                self.entries.entry(conf.to_string()).or_default().max = number;
            } else {
                self.entries.entry(key.to_string()).or_default().initial = number;
            }
        }
        Ok(())
    }

    /// Parses application-configuration syntax (additively).
    ///
    /// Recognized lines: `metric = value` (goal target),
    /// `metric.hard = 0|1`, `metric.superhard = 0|1`,
    /// `metric.sense = upper|lower`; comments as in
    /// [`Registry::parse_sys_str`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] on malformed input and
    /// [`Error::InvalidGoal`] if an attribute line precedes its goal or a
    /// goal value is invalid.
    pub fn parse_app_str(&mut self, text: &str) -> Result<()> {
        for (idx, raw) in text.lines().enumerate() {
            let line = strip_comment(raw);
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let Some((key, value)) = split_once_trim(line, '=') else {
                return Err(parse_err(lineno, "expected '<metric>[.attr] = <value>'"));
            };
            if let Some(metric) = key.strip_suffix(".hard") {
                let goal = self.goal_mut(metric, lineno)?;
                if parse_bool(value, lineno)? {
                    *goal = goal.clone().with_hardness(Hardness::Hard)?;
                }
            } else if let Some(metric) = key.strip_suffix(".superhard") {
                let goal = self.goal_mut(metric, lineno)?;
                if parse_bool(value, lineno)? {
                    *goal = goal.clone().with_hardness(Hardness::SuperHard)?;
                }
            } else if let Some(metric) = key.strip_suffix(".sense") {
                let sense = match value {
                    "upper" => Sense::UpperBound,
                    "lower" => Sense::LowerBound,
                    other => return Err(parse_err(lineno, &format!("bad sense '{other}'"))),
                };
                let goal = self.goal_mut(metric, lineno)?;
                *goal = goal.clone().with_sense(sense);
            } else {
                let target: f64 = value
                    .parse()
                    .map_err(|_| parse_err(lineno, &format!("bad number '{value}'")))?;
                match self.goals.get_mut(key) {
                    Some(goal) => goal.set_target(target)?,
                    None => {
                        self.goals
                            .insert(key.to_string(), Goal::try_new(key, target)?);
                    }
                }
            }
        }
        Ok(())
    }

    fn goal_mut(&mut self, metric: &str, lineno: usize) -> Result<&mut Goal> {
        self.goals.get_mut(metric).ok_or(Error::Parse {
            line: lineno,
            message: format!(
                "attribute for undeclared goal '{metric}' (declare '{metric} = <target>' first)"
            ),
        })
    }

    // ------------------------------------------------------------------
    // Serialization
    // ------------------------------------------------------------------

    /// Renders system-file syntax for the registry's entries.
    pub fn to_sys_string(&self) -> String {
        let mut out = String::from("/* SmartConf.sys */\n");
        out.push_str(&format!(
            "profiling = {}\n",
            if self.profiling { "on" } else { "off" }
        ));
        for (name, e) in &self.entries {
            out.push_str(&format!("{name} @ {}\n", e.metric));
            out.push_str(&format!("{name} = {}\n", e.initial));
            if e.min != 0.0 {
                out.push_str(&format!("{name}.min = {}\n", e.min));
            }
            if e.max != f64::MAX {
                out.push_str(&format!("{name}.max = {}\n", e.max));
            }
            if e.indirect {
                out.push_str(&format!("{name}.indirect = 1\n"));
            }
        }
        out
    }

    /// Renders application-configuration syntax for the registry's goals.
    pub fn to_app_string(&self) -> String {
        let mut out = String::new();
        for (metric, goal) in &self.goals {
            out.push_str(&format!("{metric} = {}\n", goal.target()));
            // Sense before hardness: a hard lower-bound goal with a
            // non-positive target is only valid once the sense is known.
            if goal.sense() == Sense::LowerBound {
                out.push_str(&format!("{metric}.sense = lower\n"));
            }
            match goal.hardness() {
                Hardness::Soft => {}
                Hardness::Hard => out.push_str(&format!("{metric}.hard = 1\n")),
                Hardness::SuperHard => out.push_str(&format!("{metric}.superhard = 1\n")),
            }
        }
        out
    }

    /// Loads and parses a system file from disk.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on read failure, [`Error::Parse`] on bad syntax.
    pub fn load_sys_file(&mut self, path: impl AsRef<Path>) -> Result<()> {
        let text = read(path.as_ref())?;
        self.parse_sys_str(&text)
    }

    /// Loads and parses an application configuration file from disk.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on read failure, [`Error::Parse`] on bad syntax.
    pub fn load_app_file(&mut self, path: impl AsRef<Path>) -> Result<()> {
        let text = read(path.as_ref())?;
        self.parse_app_str(&text)
    }

    /// Records a controller-chosen setting back into the registry —
    /// "after software starts, this field will be overwritten by the
    /// SmartConf controller" (paper §4.1.1) — so the next start resumes
    /// from the adjusted value via [`Registry::save_sys_file`].
    ///
    /// # Errors
    ///
    /// [`Error::UnknownConf`] when `name` is not declared.
    pub fn record_setting(&mut self, name: &str, value: f64) -> Result<()> {
        let entry = self
            .entries
            .get_mut(name)
            .ok_or_else(|| Error::UnknownConf {
                name: name.to_string(),
            })?;
        entry.initial = value;
        Ok(())
    }

    /// Writes the system file to disk.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on write failure.
    pub fn save_sys_file(&self, path: impl AsRef<Path>) -> Result<()> {
        write(path.as_ref(), &self.to_sys_string())
    }

    /// Loads profiling samples for `conf` from a
    /// `<ConfName>.SmartConf.sys` file.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on read failure, [`Error::Parse`] on bad syntax.
    pub fn load_profile_file(&mut self, conf: &str, path: impl AsRef<Path>) -> Result<()> {
        let text = read(path.as_ref())?;
        self.profiles
            .insert(conf.to_string(), ProfileSet::from_sys_string(&text)?);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Synthesis
    // ------------------------------------------------------------------

    fn builder_for(&self, name: &str) -> Result<ControllerBuilder> {
        let entry = self.entries.get(name).ok_or_else(|| Error::UnknownConf {
            name: name.to_string(),
        })?;
        let goal = self
            .goals
            .get(&entry.metric)
            .ok_or_else(|| Error::UnknownMetric {
                name: entry.metric.clone(),
            })?
            .clone();
        let profile = self
            .profiles
            .get(name)
            .ok_or_else(|| Error::InsufficientProfile {
                needed: format!("profiling data for '{name}'"),
                got: "none".into(),
            })?;
        let interaction = if goal.hardness() == Hardness::SuperHard {
            self.interaction_count(goal.metric()).max(1)
        } else {
            1
        };
        Ok(ControllerBuilder::new(goal)
            .profile(profile)?
            .bounds(entry.min, entry.max)
            .initial(entry.initial)
            .interaction(interaction))
    }

    /// Synthesizes a direct [`SmartConf`] for `name` from the registered
    /// entry, goal, and profile.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownConf`]/[`Error::UnknownMetric`] when pieces are
    /// missing, plus any synthesis error from
    /// [`ControllerBuilder::profile`].
    pub fn build(&self, name: &str) -> Result<SmartConf> {
        Ok(SmartConf::new(name, self.builder_for(name)?.build()?))
    }

    /// Synthesizes an indirect [`SmartConfIndirect`] for `name` with the
    /// default identity transducer.
    ///
    /// # Errors
    ///
    /// Same as [`Registry::build`].
    pub fn build_indirect(&self, name: &str) -> Result<SmartConfIndirect> {
        Ok(SmartConfIndirect::new(
            name,
            self.builder_for(name)?.build()?,
        ))
    }

    /// Synthesizes an indirect configuration with a custom transducer.
    ///
    /// # Errors
    ///
    /// Same as [`Registry::build`].
    pub fn build_indirect_with(
        &self,
        name: &str,
        transducer: Box<dyn Transducer>,
    ) -> Result<SmartConfIndirect> {
        Ok(SmartConfIndirect::with_transducer(
            name,
            self.builder_for(name)?.build()?,
            transducer,
        ))
    }
}

fn read(path: &Path) -> Result<String> {
    fs::read_to_string(path).map_err(|e| Error::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

fn write(path: &Path, text: &str) -> Result<()> {
    fs::write(path, text).map_err(|e| Error::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

fn strip_comment(line: &str) -> &str {
    let line = match line.find("/*") {
        Some(i) => &line[..i],
        None => line,
    };
    let line = match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    };
    line.trim()
}

fn split_once_trim(line: &str, sep: char) -> Option<(&str, &str)> {
    line.split_once(sep).map(|(a, b)| (a.trim(), b.trim()))
}

fn parse_bool(value: &str, lineno: usize) -> Result<bool> {
    match value {
        "1" | "true" | "on" => Ok(true),
        "0" | "false" | "off" => Ok(false),
        other => Err(parse_err(lineno, &format!("bad boolean '{other}'"))),
    }
}

fn parse_err(line: usize, message: &str) -> Error {
    Error::Parse {
        line,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_2x() -> ProfileSet {
        let mut p = ProfileSet::new();
        for s in [40.0, 80.0, 120.0, 160.0] {
            for k in 0..10 {
                p.add(s, 100.0 + 2.0 * s + (k % 3) as f64);
            }
        }
        p
    }

    fn full_registry() -> Registry {
        let mut reg = Registry::new();
        reg.parse_sys_str(
            "/* SmartConf.sys */\n\
             profiling = off\n\
             max.queue.size @ memory_consumption_max\n\
             max.queue.size = 50\n\
             max.queue.size.min = 0\n\
             max.queue.size.max = 10000\n",
        )
        .unwrap();
        reg.parse_app_str(
            "memory_consumption_max = 1024\n\
             memory_consumption_max.hard = 1\n",
        )
        .unwrap();
        reg.add_profile("max.queue.size", profile_2x());
        reg
    }

    fn registry() -> Registry {
        let mut reg = Registry::new();
        reg.add_indirect_conf("q.size", "memory", 0.0, (0.0, 2_000.0));
        reg.add_conf("cache.size", "latency", 10.0, (0.0, 2_000.0));
        reg
    }

    #[test]
    fn registry_round_trips_indirect_flag() {
        let reg = registry();
        let mut reg2 = Registry::new();
        reg2.parse_sys_str(&reg.to_sys_string()).unwrap();
        assert!(reg2.entry("q.size").unwrap().indirect);
        assert!(!reg2.entry("cache.size").unwrap().indirect);
    }

    #[test]
    fn parses_figure2_example() {
        let reg = full_registry();
        let e = reg.entry("max.queue.size").unwrap();
        assert_eq!(e.metric, "memory_consumption_max");
        assert_eq!(e.initial, 50.0);
        assert_eq!(e.min, 0.0);
        assert_eq!(e.max, 10000.0);
        let g = reg.goal("memory_consumption_max").unwrap();
        assert_eq!(g.target(), 1024.0);
        assert_eq!(g.hardness(), Hardness::Hard);
        assert!(!reg.profiling_enabled());
    }

    #[test]
    fn build_direct_and_indirect() {
        let reg = full_registry();
        let mut direct = reg.build("max.queue.size").unwrap();
        direct.set_perf(300.0);
        assert!(direct.conf() > 0.0);
        let mut ind = reg.build_indirect("max.queue.size").unwrap();
        ind.set_perf(300.0, 50.0);
        assert!(ind.conf() > 50.0);
    }

    #[test]
    fn missing_pieces_reported() {
        let reg = full_registry();
        assert!(matches!(reg.build("nope"), Err(Error::UnknownConf { .. })));

        let mut no_goal = Registry::new();
        no_goal.add_conf("c", "m", 0.0, (0.0, 1.0));
        assert!(matches!(
            no_goal.build("c"),
            Err(Error::UnknownMetric { .. })
        ));

        let mut no_profile = Registry::new();
        no_profile.add_conf("c", "m", 0.0, (0.0, 1.0));
        no_profile.set_goal(Goal::new("m", 10.0));
        assert!(matches!(
            no_profile.build("c"),
            Err(Error::InsufficientProfile { .. })
        ));
    }

    #[test]
    fn superhard_counts_interacting_confs() {
        let mut reg = Registry::new();
        reg.parse_sys_str("q1.size @ mem\nq1.size = 0\nq2.size @ mem\nq2.size = 0\n")
            .unwrap();
        reg.parse_app_str("mem = 495\nmem.superhard = 1\n").unwrap();
        assert_eq!(reg.interaction_count("mem"), 2);
        reg.add_profile("q1.size", profile_2x());
        reg.add_profile("q2.size", profile_2x());
        let mut c1 = reg.build_indirect("q1.size").unwrap();
        // Deadbeat error split across 2 controllers: the adjustment is
        // half what a solo controller would make.
        c1.set_perf(95.0, 50.0);
        let solo_error = c1
            .controller()
            .goal()
            .error_against(c1.controller().effective_target(), 95.0);
        let adjusted = c1.conf();
        let expected =
            50.0 + (1.0 - c1.controller().pole()) / (2.0 * c1.controller().alpha()) * solo_error;
        assert!((adjusted - expected).abs() < 1e-9);
    }

    #[test]
    fn round_trip_serialization() {
        let reg = full_registry();
        let mut reg2 = Registry::new();
        reg2.parse_sys_str(&reg.to_sys_string()).unwrap();
        reg2.parse_app_str(&reg.to_app_string()).unwrap();
        assert_eq!(reg.entry("max.queue.size"), reg2.entry("max.queue.size"));
        assert_eq!(
            reg.goal("memory_consumption_max"),
            reg2.goal("memory_consumption_max")
        );
    }

    #[test]
    fn sense_lower_round_trip() {
        let mut reg = Registry::new();
        reg.parse_app_str("free_disk = 100\nfree_disk.sense = lower\nfree_disk.hard = 1\n")
            .unwrap();
        let g = reg.goal("free_disk").unwrap();
        assert_eq!(g.sense(), Sense::LowerBound);
        assert_eq!(g.hardness(), Hardness::Hard);
        let mut reg2 = Registry::new();
        reg2.parse_app_str(&reg.to_app_string()).unwrap();
        assert_eq!(reg.goal("free_disk"), reg2.goal("free_disk"));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let mut reg = Registry::new();
        let err = reg.parse_sys_str("a @ m\nwhat is this\n").unwrap_err();
        assert!(matches!(err, Error::Parse { line: 2, .. }));
        let err = reg.parse_app_str("m.hard = 1\n").unwrap_err();
        assert!(matches!(err, Error::Parse { line: 1, .. }), "{err}");
        let err = reg.parse_app_str("m = abc\n").unwrap_err();
        assert!(matches!(err, Error::Parse { line: 1, .. }));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let mut reg = Registry::new();
        reg.parse_sys_str("# comment\n\n/* block */\nc @ m # trailing\n")
            .unwrap();
        assert_eq!(reg.entry("c").unwrap().metric, "m");
    }

    #[test]
    fn profiling_flag_parsing() {
        let mut reg = Registry::new();
        reg.parse_sys_str("profiling = on\n").unwrap();
        assert!(reg.profiling_enabled());
        reg.parse_sys_str("profiling = off\n").unwrap();
        assert!(!reg.profiling_enabled());
        assert!(reg.parse_sys_str("profiling = maybe\n").is_err());
    }

    #[test]
    fn file_io_round_trip() {
        let dir = std::env::temp_dir().join(format!("smartconf-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let sys = dir.join("SmartConf.sys");
        let app = dir.join("app.conf");
        let prof = dir.join("max.queue.size.SmartConf.sys");

        let reg = full_registry();
        fs::write(&sys, reg.to_sys_string()).unwrap();
        fs::write(&app, reg.to_app_string()).unwrap();
        fs::write(
            &prof,
            reg.profile("max.queue.size").unwrap().to_sys_string(),
        )
        .unwrap();

        let mut reg2 = Registry::new();
        reg2.load_sys_file(&sys).unwrap();
        reg2.load_app_file(&app).unwrap();
        reg2.load_profile_file("max.queue.size", &prof).unwrap();
        assert!(reg2.build_indirect("max.queue.size").is_ok());

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn settings_persist_across_restarts() {
        let dir = std::env::temp_dir().join(format!("smartconf-persist-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let sys = dir.join("SmartConf.sys");

        let mut reg = full_registry();
        // The controller adjusted the setting at run time; shut down.
        reg.record_setting("max.queue.size", 137.0).unwrap();
        reg.save_sys_file(&sys).unwrap();

        // Next start resumes from the adjusted value.
        let mut reg2 = Registry::new();
        reg2.load_sys_file(&sys).unwrap();
        assert_eq!(reg2.entry("max.queue.size").unwrap().initial, 137.0);

        assert!(matches!(
            reg.record_setting("nope", 1.0),
            Err(Error::UnknownConf { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let mut reg = Registry::new();
        assert!(matches!(
            reg.load_sys_file("/nonexistent/SmartConf.sys"),
            Err(Error::Io { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The parsers return Ok or a structured error on arbitrary
        /// input — never panic, never loop.
        #[test]
        fn sys_parser_total(text in "\\PC{0,300}") {
            let mut reg = Registry::new();
            let _ = reg.parse_sys_str(&text);
        }

        #[test]
        fn app_parser_total(text in "\\PC{0,300}") {
            let mut reg = Registry::new();
            let _ = reg.parse_app_str(&text);
        }

        /// Any registry built from random well-formed declarations
        /// round-trips through its own serialization.
        #[test]
        fn sys_round_trip(
            confs in prop::collection::vec(
                ("[a-z]{1,8}", 0.0f64..1e6, 0.0f64..100.0, 100.0f64..1e6, proptest::bool::ANY),
                1..8,
            )
        ) {
            let mut reg = Registry::new();
            for (name, initial, min, max, indirect) in &confs {
                if *indirect {
                    reg.add_indirect_conf(name.clone(), "m", *initial, (*min, *max));
                } else {
                    reg.add_conf(name.clone(), "m", *initial, (*min, *max));
                }
            }
            let mut reg2 = Registry::new();
            reg2.parse_sys_str(&reg.to_sys_string()).unwrap();
            for (name, ..) in &confs {
                prop_assert_eq!(reg.entry(name), reg2.entry(name));
            }
        }
    }
}
