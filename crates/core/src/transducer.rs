//! Transducers: mapping deputy-variable values to configuration values.
//!
//! An *indirect* configuration `C` constrains a deputy variable `C′` that
//! is what actually affects performance (paper §4.2, §5.3). The controller
//! is synthesized for the deputy; a transducer maps the controller-desired
//! deputy value back to the configuration. In most cases the configuration
//! is simply an upper/lower bound on the deputy, so the identity mapping
//! suffices (the library default, mirroring the paper's `Transducer` super
//! class whose `transduce` returns its input).

use std::fmt;

/// Maps a desired deputy-variable value to a configuration value.
///
/// Implementations must be deterministic; the controller calls
/// [`Transducer::transduce`] once per adjustment.
///
/// # Example
///
/// ```
/// use smartconf_core::{FnTransducer, IdentityTransducer, Transducer};
///
/// assert_eq!(IdentityTransducer.transduce(42.0), 42.0);
/// // A config that is expressed in KB while the deputy is in bytes:
/// let to_kb = FnTransducer::new(|bytes| bytes / 1024.0);
/// assert_eq!(to_kb.transduce(2048.0), 2.0);
/// ```
pub trait Transducer: fmt::Debug + Send {
    /// Converts the desired deputy value into the configuration value.
    fn transduce(&self, deputy_desired: f64) -> f64;
}

/// The default transducer: the configuration directly bounds the deputy,
/// so the desired deputy value *is* the configuration value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityTransducer;

impl Transducer for IdentityTransducer {
    fn transduce(&self, deputy_desired: f64) -> f64 {
        deputy_desired
    }
}

/// Adapter turning any closure into a [`Transducer`] — the "developers can
/// customize a subclass" path of the paper's Figure 4.
pub struct FnTransducer<F> {
    f: F,
}

impl<F: Fn(f64) -> f64> FnTransducer<F> {
    /// Wraps a closure.
    pub fn new(f: F) -> Self {
        FnTransducer { f }
    }
}

impl<F> fmt::Debug for FnTransducer<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnTransducer").finish_non_exhaustive()
    }
}

impl<F: Fn(f64) -> f64 + Send> Transducer for FnTransducer<F> {
    fn transduce(&self, deputy_desired: f64) -> f64 {
        (self.f)(deputy_desired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_returns_input() {
        for v in [-5.0, 0.0, 3.25, 1e9] {
            assert_eq!(IdentityTransducer.transduce(v), v);
        }
    }

    #[test]
    fn closure_transducer() {
        let t = FnTransducer::new(|x: f64| x.round().max(1.0));
        assert_eq!(t.transduce(0.2), 1.0);
        assert_eq!(t.transduce(7.6), 8.0);
    }

    #[test]
    fn trait_objects_work() {
        let ts: Vec<Box<dyn Transducer>> = vec![
            Box::new(IdentityTransducer),
            Box::new(FnTransducer::new(|x: f64| x + 1.0)),
            Box::new(FnTransducer::new(|x: f64| x * 2.0)),
        ];
        let outs: Vec<f64> = ts.iter().map(|t| t.transduce(3.0)).collect();
        assert_eq!(outs, vec![3.0, 4.0, 6.0]);
    }
}
