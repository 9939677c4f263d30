//! Noise and sampling substrate for the `hist-consistency` workspace.
//!
//! Everything randomized in the reproduction flows through this crate:
//!
//! * [`Laplace`] — the continuous Laplace distribution used by the Laplace
//!   mechanism (Dwork et al., TCC 2006), with exact pdf/cdf/quantile and
//!   inverse-CDF sampling.
//! * [`TwoSidedGeometric`] — the discrete analogue ("geometric mechanism",
//!   Ghosh et al., STOC 2009), provided as an alternative noise source.
//! * [`Zipf`] — a table-based Zipf sampler used by the synthetic dataset
//!   generators.
//! * [`SeedStream`] — deterministic derivation of independent per-trial seeds
//!   from a master seed, so every experiment in the repository is exactly
//!   reproducible.
//! * [`NoiseBackend`] — versioned sampling algorithms for the batch Laplace
//!   paths: the frozen [`NoiseBackend::Reference`] sampler and the fused
//!   wide-lane [`NoiseBackend::FastLnWide`] sampler, each with its own
//!   golden-release pins (see [`backend`] for the versioning policy and the
//!   retired backends whose names stay reserved). `Reference` batches run
//!   a lane kernel — a table-driven double-double `ln` with Ziv's rounding
//!   test and a deferred `f64::ln` fallback — that returns the per-call
//!   sampler's bits exactly.
//!
//! The `rand` crate supplies only the uniform bit stream; all distribution
//! logic lives here so it can be tested against closed forms.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod backend;
mod exact_ln;
mod geometric;
mod laplace;
mod poisson;
mod seeds;
mod zipf;

pub use backend::{NoiseBackend, FAST_LN_MAX_ULP};
pub use geometric::TwoSidedGeometric;
pub use laplace::Laplace;
pub use poisson::Poisson;
pub use seeds::{rng_from_seed, SeedStream};
pub use zipf::Zipf;

/// Errors produced when constructing a distribution from invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseError {
    /// A scale (or exponent) parameter was zero, negative, NaN or infinite.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl core::fmt::Display for NoiseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NoiseError::InvalidParameter { name, value } => {
                write!(f, "invalid distribution parameter {name} = {value}")
            }
        }
    }
}

impl std::error::Error for NoiseError {}

#[cfg(test)]
mod tests {
    use super::rng_from_seed;
    use rand::Rng;

    #[test]
    fn fill_u64_matches_per_call_draws() {
        // The StdRng override keeps the xoshiro state in registers for the
        // whole block; this pins that it produces exactly the per-call
        // stream, for every length (including 0) and when resumed mid-way.
        for len in [0usize, 1, 7, 8, 9, 63, 256, 1000] {
            let mut bulk_rng = rng_from_seed(4242);
            let mut call_rng = rng_from_seed(4242);
            let mut bulk = vec![0u64; len];
            bulk_rng.fill_u64(&mut bulk);
            let calls: Vec<u64> = (0..len).map(|_| call_rng.next_u64()).collect();
            assert_eq!(bulk, calls, "len = {len}");
            // The state after the block matches too, so bulk and per-call
            // draws can be interleaved freely.
            assert_eq!(bulk_rng.next_u64(), call_rng.next_u64(), "len = {len}");
        }
        // The `&mut R` forwarding impl routes to the same override: a
        // generic caller handed `&mut StdRng` resolves `fill_u64` through
        // `impl Rng for &mut R`, not the concrete override directly.
        fn fill_generic<R: Rng>(mut rng: R, out: &mut [u64]) {
            rng.fill_u64(out);
        }
        let mut a = rng_from_seed(77);
        let mut b = rng_from_seed(77);
        let mut via_ref = [0u64; 16];
        fill_generic(&mut a, &mut via_ref);
        let mut direct = [0u64; 16];
        b.fill_u64(&mut direct);
        assert_eq!(via_ref, direct);
    }
}
