//! Versioned noise backends: named, frozen sampling algorithms.
//!
//! Every DP release in this workspace is reproducible from a seed, and the
//! golden-release tests pin exact output bits. That makes the *sampling
//! algorithm* part of the public contract: changing how a Laplace draw turns
//! uniform bits into a sample silently invalidates every pinned release.
//! Backends make that contract explicit — each variant of [`NoiseBackend`]
//! names one frozen algorithm with its own golden snapshots:
//!
//! * [`NoiseBackend::Reference`] — the original scalar inverse-CDF sampler
//!   using the platform `ln`. Its bits are frozen forever: all pre-backend
//!   golden pins were recorded against it and must never change. Those
//!   bits were always the platform libm's bits. The batch paths
//!   ([`crate::Laplace::fill`], [`crate::Laplace::add_noise`]) reproduce
//!   them with a lane kernel: a double-double `ln` whose result is kept
//!   only when Ziv's rounding test proves it is the correctly rounded
//!   value, with `f64::ln` itself for the rest (about 4.3% of draws). That
//!   adds one assumption, that the platform `ln` is within 0.52 ulp
//!   (glibc documents 0.519 for `log`), so that it returns the correctly
//!   rounded value wherever the test accepts. The ignored `reference_ln_*`
//!   differential tests (every input below 2⁻²⁰, 2³⁰ random inputs above,
//!   and the edge cases; CI runs them in release mode) fail loudly on a
//!   libm that breaks it, instead of letting pinned releases drift.
//! * [`NoiseBackend::FastLnWide`] — the fused wide-lane pass: raw RNG bits
//!   go straight through a branch-free bits→uniform→ln→sign→scale kernel
//!   written over fixed-width lanes, with no staging buffer and no boundary
//!   select (the uniform is constructed as an odd multiple of 2⁻⁵², so the
//!   `ln` argument is always a positive normal). Its logarithm is a
//!   branch-free polynomial that folds the uniform's 2⁻⁵² scale into the
//!   range-reduction constant and keeps the reduced exponent in float form
//!   throughout, accurate to [`FAST_LN_MAX_ULP`] ulp of `f64::ln`. It
//!   consumes one `u64` per draw in index order like `Reference`, but
//!   *transforms* those bits differently — a frozen algorithm with its own
//!   pins.
//!
//! The versioning policy, in full:
//!
//! 1. A backend's output at a fixed seed is frozen the day it lands. Any
//!    change to its draw order, uniform-to-sample transform, or arithmetic
//!    is a *new backend*, not an edit.
//! 2. Adding a backend means: a new [`NoiseBackend`] variant, a sampler
//!    that consumes exactly one `u64` of the stream per draw in index
//!    order (so backends stay interchangeable mid-stream even when, like
//!    `FastLnWide`, they map those bits to a sample differently),
//!    accuracy/moment tests, and seed-pinned golden snapshots in
//!    `tests/golden_releases.rs` *and* `tests/snapshot_serving.rs` (the
//!    hc-lint `backend-pins` rule enforces both).
//! 3. `Reference` is the default everywhere; faster backends are opt-in via
//!    `with_backend` constructors on the mechanism and pipeline types.
//! 4. A backend that another dominates may be retired: its name and
//!    version stay reserved forever (no later backend may reuse them), and
//!    its pins, tests and bench labels are deleted in the change that
//!    retires it, recorded in the changelog.
//!
//! Retired: `fast_ln` (v2), a blocked-polynomial `ln` sampler dominated by
//! `FastLnWide` (3.59 vs 2.30 ns/draw at 2^21 draws).

/// Identifies one frozen sampling algorithm for the batch noise paths.
///
/// Carried by `hc_mech::LaplaceMechanism`/`PreparedMechanism` and consumed
/// by [`crate::Laplace::fill_with`]/[`crate::Laplace::add_noise_with`]; the
/// per-release choice is recorded nowhere else, so holding a prepared
/// mechanism is holding the full reproducibility contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NoiseBackend {
    /// v1 — scalar inverse-CDF sampling through the platform `ln`.
    /// Bit-identical to the pre-backend sampler; all historical golden pins
    /// are `Reference` pins. The batch paths compute the same bits with a
    /// lane kernel that falls back to `f64::ln` wherever its rounding test
    /// cannot prove the result, assuming only that the platform `ln` is
    /// within 0.52 ulp (see the module docs).
    #[default]
    Reference,
    /// v3 — the fused wide-lane pass: one `u64` of raw RNG bits per draw is
    /// mapped to the sign (bit 0) and a uniform that is an odd multiple of
    /// 2⁻⁵² in (0, 1) (bits 12…63), then pushed through the kernel's own
    /// fused `ln` (a branch-free range reduction with the 2⁻⁵² scale
    /// folded into the integer offset, accurate to [`FAST_LN_MAX_ULP`] ulp
    /// of `f64::ln`) — all straight-line lane arithmetic with no staging
    /// copy and no boundary select, so the whole draw pipeline, RNG block
    /// included, vectorizes at the pinned `x86-64-v3` target. Uniform
    /// *bits* differ from `Reference` (same stream position, different
    /// transform), so its samples are not ulp-close to `Reference`'s;
    /// it is an exact Laplace sampler with its own frozen golden pins.
    FastLnWide,
}

impl NoiseBackend {
    /// Stable lowercase name, used in bench labels and CI matrix filters.
    pub fn name(self) -> &'static str {
        match self {
            NoiseBackend::Reference => "reference",
            NoiseBackend::FastLnWide => "fast_ln_wide",
        }
    }
}

/// Documented accuracy bound for the [`NoiseBackend::FastLnWide`] kernel's
/// `ln`: within this many ulp of `f64::ln` for every uniform the kernel can
/// produce (the ulp audits in `laplace.rs` and `tests/noise_backends.rs`
/// verify a stricter 2 ulp empirically over adversarial and random draws;
/// the extra headroom keeps the contract stable across platforms).
pub const FAST_LN_MAX_ULP: u64 = 4;

/// `ln 2` split hi/lo (the fdlibm constants, given by their exact bits): the
/// high part's 20 trailing mantissa bits are zero, so `k·LN2_HI` is exact
/// for every exponent `|k| ≤ 1074`, and the residual lands in the low part.
pub(crate) const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000); // 6.93147180369123816490e-1
pub(crate) const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76); // 1.90821492927058770002e-10

/// Bias offset for the branch-free range reduction (musl's `log` trick):
/// subtracting it in integer space splits `x = z · 2^k` with
/// `z ∈ [0.6875, 1.375)` without a compare on the mantissa.
pub(crate) const REDUCTION_OFF: u64 = 0x3FE6_0000_0000_0000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(NoiseBackend::Reference.name(), "reference");
        assert_eq!(NoiseBackend::FastLnWide.name(), "fast_ln_wide");
        assert_eq!(NoiseBackend::default(), NoiseBackend::Reference);
    }
}
