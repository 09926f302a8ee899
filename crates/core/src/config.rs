//! UniVSA model configuration.

use univsa_data::TaskSpec;
use univsa_tensor::Conv2dSpec;

use crate::UniVsaError;

/// Which of the three UniVSA enhancements are active — the axes of the
/// paper's Fig. 4 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Enhancements {
    /// Discriminated value projection (narrow `VB_L` for low-importance
    /// features).
    pub dvp: bool,
    /// Binary convolution feature extraction.
    pub biconv: bool,
    /// Soft-voting ensemble of similarity heads.
    pub soft_voting: bool,
}

impl Enhancements {
    /// All three enhancements on (full UniVSA).
    pub fn all() -> Self {
        Self {
            dvp: true,
            biconv: true,
            soft_voting: true,
        }
    }

    /// All enhancements off (plain LDC-style binary VSA baseline).
    pub fn none() -> Self {
        Self {
            dvp: false,
            biconv: false,
            soft_voting: false,
        }
    }
}

impl Default for Enhancements {
    fn default() -> Self {
        Self::all()
    }
}

/// The full UniVSA configuration: the paper's tuple
/// `(D_H, D_L, D_K, O, Θ, M)` plus task geometry `(W, L, C)` and the
/// enhancement switches.
///
/// Build with [`UniVsaConfig::for_task`] / [`ConfigBuilder`]; every
/// constructed value has passed [`ConfigBuilder::build`]'s validation.
///
/// # Examples
///
/// ```
/// use univsa::UniVsaConfig;
/// use univsa_data::TaskSpec;
///
/// let spec = TaskSpec { name: "toy".into(), width: 4, length: 8, classes: 2, levels: 256 };
/// let cfg = UniVsaConfig::for_task(&spec).d_h(8).d_l(2).build()?;
/// assert_eq!(cfg.vsa_dim(), 32);
/// # Ok::<(), univsa::UniVsaError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UniVsaConfig {
    /// High-importance value-vector dimension `D_H` (channel depth of the
    /// conv input). At most 64 so a channel column fits one packed word.
    pub d_h: usize,
    /// Low-importance value-vector dimension `D_L ≤ D_H`.
    pub d_l: usize,
    /// Square convolution kernel side `D_K` (odd).
    pub d_k: usize,
    /// Convolution output channels `O`.
    pub out_channels: usize,
    /// Soft-voting similarity heads `Θ`.
    pub voters: usize,
    /// Discretization levels `M`.
    pub levels: usize,
    /// Window count `W`.
    pub width: usize,
    /// Snippet length `L`.
    pub length: usize,
    /// Class count `C`.
    pub classes: usize,
    /// Active enhancements.
    pub enhancements: Enhancements,
    /// Fraction of features routed to the *high*-importance ValueBox when
    /// DVP is active (the rest use `VB_L`).
    pub high_fraction: f32,
}

impl UniVsaConfig {
    /// Starts a builder pre-filled with a task's geometry and the paper's
    /// basis configuration `(D_H, D_L, D_K, O, Θ) = (4, 2, 3, 64, 1)`.
    pub fn for_task(spec: &TaskSpec) -> ConfigBuilder {
        ConfigBuilder {
            config: UniVsaConfig {
                d_h: 4,
                d_l: 2,
                d_k: 3,
                out_channels: 64,
                voters: 1,
                levels: spec.levels,
                width: spec.width,
                length: spec.length,
                classes: spec.classes,
                enhancements: Enhancements::all(),
                high_fraction: 0.75,
            },
        }
    }

    /// The VSA vector dimension `D = W·L` (preserved by the `same`-padded
    /// convolution).
    #[inline]
    pub fn vsa_dim(&self) -> usize {
        self.width * self.length
    }

    /// Total feature count `N = W·L`.
    #[inline]
    pub fn features(&self) -> usize {
        self.width * self.length
    }

    /// Effective number of similarity heads (1 when soft voting is off).
    #[inline]
    pub fn effective_voters(&self) -> usize {
        if self.enhancements.soft_voting {
            self.voters
        } else {
            1
        }
    }

    /// Effective encoding channel count: conv output channels with BiConv,
    /// the raw value-map depth `D_H` without.
    #[inline]
    pub fn encoding_channels(&self) -> usize {
        if self.enhancements.biconv {
            self.out_channels
        } else {
            self.d_h
        }
    }

    /// Effective low dimension (equals `d_h` when DVP is off).
    #[inline]
    pub fn effective_d_l(&self) -> usize {
        if self.enhancements.dvp {
            self.d_l
        } else {
            self.d_h
        }
    }

    /// The convolution geometry, when BiConv is active.
    pub fn conv_spec(&self) -> Conv2dSpec {
        Conv2dSpec {
            in_channels: self.d_h,
            out_channels: self.out_channels,
            kernel: self.d_k,
            height: self.width,
            width: self.length,
        }
    }

    /// The paper's Table I tuple `(D_H, D_L, D_K, O, Θ)`.
    pub fn tuple(&self) -> (usize, usize, usize, usize, usize) {
        (self.d_h, self.d_l, self.d_k, self.out_channels, self.voters)
    }

    /// Runs a configuration that did not come from the builder (one
    /// decoded from a container) through [`ConfigBuilder::build`]'s checks.
    pub(crate) fn validated(self) -> Result<Self, UniVsaError> {
        ConfigBuilder { config: self }.build()
    }
}

/// Most encoding channels a configuration may have: the packed engine's
/// bit-sliced majority counter holds counts up to `2^16 − 1`.
pub(crate) const MAX_ENCODING_CHANNELS: usize = (1 << 16) - 1;

/// Builder for [`UniVsaConfig`] (see [`UniVsaConfig::for_task`]).
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    config: UniVsaConfig,
}

impl ConfigBuilder {
    /// Sets `D_H` (high-importance value dimension, 1..=64).
    pub fn d_h(mut self, v: usize) -> Self {
        self.config.d_h = v;
        self
    }

    /// Sets `D_L` (low-importance value dimension).
    pub fn d_l(mut self, v: usize) -> Self {
        self.config.d_l = v;
        self
    }

    /// Sets the kernel side `D_K` (odd).
    pub fn d_k(mut self, v: usize) -> Self {
        self.config.d_k = v;
        self
    }

    /// Sets the conv output channel count `O`.
    pub fn out_channels(mut self, v: usize) -> Self {
        self.config.out_channels = v;
        self
    }

    /// Sets the soft-voting head count `Θ`.
    pub fn voters(mut self, v: usize) -> Self {
        self.config.voters = v;
        self
    }

    /// Sets the enhancement switches.
    pub fn enhancements(mut self, e: Enhancements) -> Self {
        self.config.enhancements = e;
        self
    }

    /// Sets the fraction of features treated as high-importance under DVP.
    pub fn high_fraction(mut self, f: f32) -> Self {
        self.config.high_fraction = f;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`UniVsaError::Config`] when any constraint is violated:
    /// zero extents, `D_L > D_H`, `D_H > 64`, an even kernel, kernel larger
    /// than the input grid, more than `2^16 − 1` encoding channels, a
    /// `high_fraction` outside `(0, 1]`, or fewer than 2 classes/levels.
    pub fn build(self) -> Result<UniVsaConfig, UniVsaError> {
        let c = self.config;
        let err = |msg: String| Err(UniVsaError::Config(msg));
        if c.d_h == 0 || c.d_l == 0 || c.d_k == 0 || c.out_channels == 0 || c.voters == 0 {
            return err("all of D_H, D_L, D_K, O, Θ must be nonzero".into());
        }
        if c.d_h > 64 {
            return err(format!(
                "D_H = {} exceeds the packed-word limit of 64",
                c.d_h
            ));
        }
        if c.d_l > c.d_h {
            return err(format!("D_L = {} must not exceed D_H = {}", c.d_l, c.d_h));
        }
        if c.d_k.is_multiple_of(2) {
            return err(format!("kernel D_K = {} must be odd", c.d_k));
        }
        if c.d_k > c.width || c.d_k > c.length {
            return err(format!(
                "kernel D_K = {} exceeds the input grid ({}, {})",
                c.d_k, c.width, c.length
            ));
        }
        if c.width == 0 || c.length == 0 {
            return err("input grid must be nonempty".into());
        }
        if c.encoding_channels() > MAX_ENCODING_CHANNELS {
            return err(format!(
                "{} encoding channels exceed the limit of {MAX_ENCODING_CHANNELS}",
                c.encoding_channels()
            ));
        }
        if c.classes < 2 {
            return err(format!("need at least 2 classes, got {}", c.classes));
        }
        if c.levels < 2 || c.levels > 256 {
            return err(format!("levels M = {} must be in 2..=256", c.levels));
        }
        if !(c.high_fraction > 0.0 && c.high_fraction <= 1.0) {
            return err(format!(
                "high_fraction = {} must be in (0, 1]",
                c.high_fraction
            ));
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TaskSpec {
        TaskSpec {
            name: "t".into(),
            width: 8,
            length: 10,
            classes: 3,
            levels: 256,
        }
    }

    #[test]
    fn builder_defaults_are_paper_basis() {
        let c = UniVsaConfig::for_task(&spec()).build().unwrap();
        assert_eq!(c.tuple(), (4, 2, 3, 64, 1));
        assert_eq!(c.levels, 256);
        assert_eq!(c.vsa_dim(), 80);
    }

    #[test]
    fn rejects_d_l_above_d_h() {
        assert!(UniVsaConfig::for_task(&spec())
            .d_h(2)
            .d_l(4)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_even_kernel() {
        assert!(UniVsaConfig::for_task(&spec()).d_k(4).build().is_err());
    }

    #[test]
    fn rejects_oversized_kernel() {
        assert!(UniVsaConfig::for_task(&spec()).d_k(9).build().is_err());
    }

    #[test]
    fn rejects_d_h_over_64() {
        assert!(UniVsaConfig::for_task(&spec())
            .d_h(65)
            .d_l(1)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_more_encoding_channels_than_the_counter_holds() {
        let at_limit = UniVsaConfig::for_task(&spec()).out_channels(MAX_ENCODING_CHANNELS);
        assert!(at_limit.clone().build().is_ok());
        let err = at_limit
            .out_channels(MAX_ENCODING_CHANNELS + 1)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("encoding channels"), "{err}");
    }

    #[test]
    fn rejects_zero_components() {
        assert!(UniVsaConfig::for_task(&spec()).voters(0).build().is_err());
        assert!(UniVsaConfig::for_task(&spec())
            .out_channels(0)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_bad_high_fraction() {
        assert!(UniVsaConfig::for_task(&spec())
            .high_fraction(0.0)
            .build()
            .is_err());
        assert!(UniVsaConfig::for_task(&spec())
            .high_fraction(1.5)
            .build()
            .is_err());
    }

    #[test]
    fn effective_values_respect_enhancements() {
        let c = UniVsaConfig::for_task(&spec())
            .d_h(8)
            .d_l(2)
            .voters(3)
            .out_channels(16)
            .enhancements(Enhancements::none())
            .build()
            .unwrap();
        assert_eq!(c.effective_voters(), 1);
        assert_eq!(c.encoding_channels(), 8);
        assert_eq!(c.effective_d_l(), 8);
        let c = UniVsaConfig::for_task(&spec())
            .d_h(8)
            .d_l(2)
            .voters(3)
            .out_channels(16)
            .build()
            .unwrap();
        assert_eq!(c.effective_voters(), 3);
        assert_eq!(c.encoding_channels(), 16);
        assert_eq!(c.effective_d_l(), 2);
    }

    #[test]
    fn conv_spec_matches_geometry() {
        let c = UniVsaConfig::for_task(&spec())
            .d_h(8)
            .out_channels(16)
            .build()
            .unwrap();
        let s = c.conv_spec();
        assert_eq!(s.in_channels, 8);
        assert_eq!(s.out_channels, 16);
        assert_eq!(s.height, 8);
        assert_eq!(s.width, 10);
    }
}
