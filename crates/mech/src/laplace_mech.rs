//! The Laplace mechanism over query sequences (Proposition 1).

use std::borrow::Cow;

use hc_data::Histogram;
use hc_noise::{Laplace, NoiseBackend};
use rand::Rng;

use crate::{Epsilon, QuerySequence};

/// The ε-differentially private release of a query sequence's output.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyOutput {
    values: Vec<f64>,
    epsilon: Epsilon,
    noise_scale: f64,
    strategy: Cow<'static, str>,
}

impl NoisyOutput {
    /// The noisy answer vector `q̃ = Q(I) + ⟨Lap(Δ/ε)⟩`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the release, returning the answer vector.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// The privacy parameter the release was calibrated to.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The Laplace scale `b = Δ/ε` actually used.
    pub fn noise_scale(&self) -> f64 {
        self.noise_scale
    }

    /// Per-answer noise variance `2b²`.
    pub fn noise_variance(&self) -> f64 {
        2.0 * self.noise_scale * self.noise_scale
    }

    /// The strategy label (`"L"`, `"S"`, `"H2"`, …).
    pub fn strategy(&self) -> &str {
        &self.strategy
    }
}

/// The Laplace mechanism: adds i.i.d. `Lap(Δ_Q/ε)` noise to each answer of a
/// query sequence (Proposition 1 — this step alone provides the privacy
/// guarantee; everything downstream is post-processing).
#[derive(Debug, Clone, Copy)]
pub struct LaplaceMechanism {
    epsilon: Epsilon,
    backend: NoiseBackend,
}

impl LaplaceMechanism {
    /// A mechanism calibrated to `epsilon`, sampling through the default
    /// [`NoiseBackend::Reference`] backend (bit-identical to every
    /// historical release of this workspace).
    pub fn new(epsilon: Epsilon) -> Self {
        Self {
            epsilon,
            backend: NoiseBackend::Reference,
        }
    }

    /// The same mechanism sampling through `backend`. Privacy is identical
    /// (both backends draw exact Laplace noise); only the sample bits — and
    /// therefore which golden snapshots apply — change.
    pub fn with_backend(self, backend: NoiseBackend) -> Self {
        Self { backend, ..self }
    }

    /// The configured ε.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The configured sampling backend.
    pub fn backend(&self) -> NoiseBackend {
        self.backend
    }

    /// The Laplace scale `b = Δ_Q/ε` for `query` over a domain of
    /// `domain_size` bins — the single source of truth shared by
    /// [`Self::release`], [`Self::release_into`], [`Self::noise_variance`],
    /// and [`PreparedMechanism`].
    pub fn noise_scale<Q: QuerySequence + ?Sized>(&self, query: &Q, domain_size: usize) -> f64 {
        query.sensitivity(domain_size) / self.epsilon.value()
    }

    /// Per-answer noise variance `2(Δ_Q/ε)²`, derived from the same scale as
    /// the release paths.
    pub fn noise_variance<Q: QuerySequence + ?Sized>(&self, query: &Q, domain_size: usize) -> f64 {
        let b = self.noise_scale(query, domain_size);
        2.0 * b * b
    }

    /// The calibrated noise distribution `Lap(Δ_Q/ε)`.
    fn noise_for<Q: QuerySequence + ?Sized>(&self, query: &Q, domain_size: usize) -> Laplace {
        Laplace::centered(self.noise_scale(query, domain_size))
            .expect("positive scale from valid ε and positive sensitivity")
    }

    /// Binds this mechanism to one query over one domain size: sensitivity,
    /// noise scale, distribution, and strategy label are computed once and
    /// amortized over every subsequent release.
    ///
    /// This is the hook for trial loops — the per-release path of
    /// [`PreparedMechanism::release_into`] constructs nothing.
    pub fn prepare<Q: QuerySequence>(&self, query: Q, domain_size: usize) -> PreparedMechanism<Q> {
        let scale = self.noise_scale(&query, domain_size);
        let laplace = self.noise_for(&query, domain_size);
        let label = query.label();
        let output_len = query.output_len(domain_size);
        PreparedMechanism {
            query,
            epsilon: self.epsilon,
            backend: self.backend,
            domain_size,
            output_len,
            scale,
            laplace,
            label,
        }
    }

    /// Releases `Q̃(I) = Q(I) + ⟨Lap(Δ_Q/ε)⟩^d`.
    pub fn release<Q: QuerySequence + ?Sized, R: Rng + ?Sized>(
        &self,
        query: &Q,
        histogram: &Histogram,
        rng: &mut R,
    ) -> NoisyOutput {
        let mut values = query.evaluate(histogram);
        let scale = self.noise_scale(query, histogram.len());
        self.noise_for(query, histogram.len())
            .add_noise_with(self.backend, rng, &mut values);
        NoisyOutput {
            values,
            epsilon: self.epsilon,
            noise_scale: scale,
            strategy: query.label(),
        }
    }

    /// [`Self::release`] into a caller-owned buffer: evaluates the query via
    /// [`QuerySequence::evaluate_into`] and perturbs it in place, returning
    /// the noise scale used. No [`NoisyOutput`] wrapper, no label — once
    /// `values` has warmed up the whole release is allocation-free (for
    /// query sequences whose `evaluate_into` is).
    ///
    /// Draws noise in the same order as [`Self::release`], so for a fixed
    /// RNG state the two paths produce bit-identical values.
    pub fn release_into<Q: QuerySequence + ?Sized, R: Rng + ?Sized>(
        &self,
        query: &Q,
        histogram: &Histogram,
        rng: &mut R,
        values: &mut Vec<f64>,
    ) -> f64 {
        query.evaluate_into(histogram, values);
        self.noise_for(query, histogram.len())
            .add_noise_with(self.backend, rng, values);
        self.noise_scale(query, histogram.len())
    }

    /// The true (noise-free) evaluation — used by tests and the theoretical
    /// error calculators; *not* a private release.
    pub fn true_answer<Q: QuerySequence + ?Sized>(
        &self,
        query: &Q,
        histogram: &Histogram,
    ) -> Vec<f64> {
        query.evaluate(histogram)
    }
}

/// A [`LaplaceMechanism`] bound to one query sequence and domain size, with
/// the calibrated [`Laplace`] distribution constructed once.
///
/// The experiment protocol releases the same strategy thousands of times
/// over one histogram; this type hoists everything release-invariant
/// (sensitivity, scale, distribution, label) out of that loop.
#[derive(Debug, Clone)]
pub struct PreparedMechanism<Q> {
    query: Q,
    epsilon: Epsilon,
    backend: NoiseBackend,
    domain_size: usize,
    output_len: usize,
    scale: f64,
    laplace: Laplace,
    label: Cow<'static, str>,
}

impl<Q: QuerySequence> PreparedMechanism<Q> {
    /// The bound query sequence.
    pub fn query(&self) -> &Q {
        &self.query
    }

    /// The ε the mechanism was calibrated to.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The sampling backend every release through this preparation uses —
    /// fused pipelines that take over the noise draws (via [`Self::noise`])
    /// must sample through the same backend to stay bit-identical to
    /// [`Self::release_into`].
    pub fn backend(&self) -> NoiseBackend {
        self.backend
    }

    /// The domain size the preparation assumed (releases assert it).
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// Number of answers per release (computed once at preparation).
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// The hoisted Laplace scale `b = Δ_Q/ε`.
    pub fn noise_scale(&self) -> f64 {
        self.scale
    }

    /// Per-answer noise variance `2b²`, from the same hoisted scale.
    pub fn noise_variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }

    /// The strategy label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The hoisted calibrated distribution `Lap(Δ_Q/ε)` — exposed so fused
    /// release→inference pipelines can interleave the noise draws with
    /// their own passes (they must preserve the answer-index draw order to
    /// stay bit-identical to [`Self::release_into`]).
    pub fn noise(&self) -> Laplace {
        self.laplace
    }

    /// Releases into a caller-owned buffer with zero allocations after
    /// warm-up; bit-identical to [`LaplaceMechanism::release`] at the same
    /// RNG state.
    pub fn release_into<R: Rng + ?Sized>(
        &self,
        histogram: &Histogram,
        rng: &mut R,
        values: &mut Vec<f64>,
    ) {
        assert_eq!(
            histogram.len(),
            self.domain_size,
            "prepared for a different domain size"
        );
        self.query.evaluate_into(histogram, values);
        self.laplace.add_noise_with(self.backend, rng, values);
    }

    /// Releases an owned [`NoisyOutput`] (allocates the value vector and, if
    /// the label is dynamic, one label clone).
    pub fn release<R: Rng + ?Sized>(&self, histogram: &Histogram, rng: &mut R) -> NoisyOutput {
        let mut values = Vec::new();
        self.release_into(histogram, rng, &mut values);
        NoisyOutput {
            values,
            epsilon: self.epsilon,
            noise_scale: self.scale,
            strategy: self.label.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HierarchicalQuery, SortedQuery, UnitQuery};
    use hc_data::Domain;
    use hc_noise::rng_from_seed;

    fn example() -> Histogram {
        Histogram::from_counts(Domain::new("src", 4).unwrap(), vec![2, 0, 10, 2])
    }

    #[test]
    fn noise_scale_uses_sensitivity() {
        let mech = LaplaceMechanism::new(Epsilon::new(0.5).unwrap());
        let mut rng = rng_from_seed(61);
        let out_l = mech.release(&UnitQuery, &example(), &mut rng);
        assert!((out_l.noise_scale() - 2.0).abs() < 1e-12); // Δ=1, ε=0.5
        let out_h = mech.release(&HierarchicalQuery::binary(), &example(), &mut rng);
        assert!((out_h.noise_scale() - 6.0).abs() < 1e-12); // Δ=ℓ=3, ε=0.5
        assert!((mech.noise_variance(&UnitQuery, 4) - 8.0).abs() < 1e-12); // 2b²
    }

    #[test]
    fn release_has_right_length_and_label() {
        let mech = LaplaceMechanism::new(Epsilon::new(1.0).unwrap());
        let mut rng = rng_from_seed(62);
        let out = mech.release(&HierarchicalQuery::binary(), &example(), &mut rng);
        assert_eq!(out.values().len(), 7);
        assert_eq!(out.strategy(), "H2");
    }

    #[test]
    fn noise_is_centered_on_true_answer() {
        let mech = LaplaceMechanism::new(Epsilon::new(1.0).unwrap());
        let truth = SortedQuery.evaluate(&example());
        let trials = 3000;
        let mut sums = vec![0.0; truth.len()];
        let mut rng = rng_from_seed(63);
        for _ in 0..trials {
            for (s, v) in sums
                .iter_mut()
                .zip(mech.release(&SortedQuery, &example(), &mut rng).values())
            {
                *s += v;
            }
        }
        for (s, t) in sums.iter().zip(&truth) {
            let mean = s / trials as f64;
            // std of mean = sqrt(2)/sqrt(3000) ≈ 0.026; allow 5σ.
            assert!((mean - t).abs() < 0.15, "mean {mean} vs true {t}");
        }
    }

    #[test]
    fn empirical_variance_matches_calibration() {
        let eps = Epsilon::new(0.1).unwrap();
        let mech = LaplaceMechanism::new(eps);
        let mut rng = rng_from_seed(64);
        let truth = UnitQuery.evaluate(&example());
        let trials = 5000;
        let mut sq = 0.0;
        for _ in 0..trials {
            let out = mech.release(&UnitQuery, &example(), &mut rng);
            sq += (out.values()[0] - truth[0]).powi(2);
        }
        let var = sq / trials as f64;
        let expected = 2.0 / (0.1f64 * 0.1); // 2(Δ/ε)² = 200
        assert!(
            (var - expected).abs() / expected < 0.1,
            "var {var} vs expected {expected}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mech = LaplaceMechanism::new(Epsilon::new(1.0).unwrap());
        let a = mech.release(&UnitQuery, &example(), &mut rng_from_seed(65));
        let b = mech.release(&UnitQuery, &example(), &mut rng_from_seed(65));
        assert_eq!(a, b);
    }

    #[test]
    fn release_into_is_bit_identical_to_release() {
        let mech = LaplaceMechanism::new(Epsilon::new(0.3).unwrap());
        let h = example();
        for seed in [66u64, 67, 68] {
            let owned = mech.release(&HierarchicalQuery::binary(), &h, &mut rng_from_seed(seed));
            let mut buf = vec![f64::NAN; 3]; // wrong size on purpose
            let scale = mech.release_into(
                &HierarchicalQuery::binary(),
                &h,
                &mut rng_from_seed(seed),
                &mut buf,
            );
            assert_eq!(buf, owned.values());
            assert_eq!(scale, owned.noise_scale());
        }
    }

    #[test]
    fn prepared_mechanism_matches_ad_hoc_release() {
        let mech = LaplaceMechanism::new(Epsilon::new(0.7).unwrap());
        let h = example();
        let prepared = mech.prepare(HierarchicalQuery::binary(), h.len());
        assert_eq!(prepared.output_len(), 7);
        assert_eq!(prepared.label(), "H2");
        assert!((prepared.noise_variance() - 2.0 * prepared.noise_scale().powi(2)).abs() < 1e-15);
        let mut buf = Vec::new();
        for seed in [70u64, 71] {
            prepared.release_into(&h, &mut rng_from_seed(seed), &mut buf);
            let adhoc = mech.release(&HierarchicalQuery::binary(), &h, &mut rng_from_seed(seed));
            assert_eq!(buf, adhoc.values());
            let owned = prepared.release(&h, &mut rng_from_seed(seed));
            assert_eq!(owned, adhoc);
        }
    }

    #[test]
    #[should_panic(expected = "different domain size")]
    fn prepared_mechanism_rejects_mismatched_domains() {
        let mech = LaplaceMechanism::new(Epsilon::new(1.0).unwrap());
        let prepared = mech.prepare(UnitQuery, 8);
        let mut buf = Vec::new();
        prepared.release_into(&example(), &mut rng_from_seed(72), &mut buf);
    }

    #[test]
    fn backend_threads_through_prepare_and_release() {
        let h = example();
        let mech = LaplaceMechanism::new(Epsilon::new(0.4).unwrap());
        assert_eq!(mech.backend(), NoiseBackend::Reference);
        let fast = mech.with_backend(NoiseBackend::FastLnWide);
        assert_eq!(fast.backend(), NoiseBackend::FastLnWide);
        assert_eq!(fast.epsilon(), mech.epsilon());
        let prepared = fast.prepare(HierarchicalQuery::binary(), h.len());
        assert_eq!(prepared.backend(), NoiseBackend::FastLnWide);

        // All three FastLnWide release paths consume the stream identically.
        let owned = fast.release(&HierarchicalQuery::binary(), &h, &mut rng_from_seed(73));
        let mut via_into = Vec::new();
        fast.release_into(
            &HierarchicalQuery::binary(),
            &h,
            &mut rng_from_seed(73),
            &mut via_into,
        );
        let mut via_prepared = Vec::new();
        prepared.release_into(&h, &mut rng_from_seed(73), &mut via_prepared);
        assert_eq!(owned.values(), via_into);
        assert_eq!(owned.values(), via_prepared);

        // And the backend really changes the sample bits (same seed, same
        // scale, different bits-to-sample transform).
        let reference = mech.release(&HierarchicalQuery::binary(), &h, &mut rng_from_seed(73));
        assert_ne!(reference.values(), owned.values());
    }
}
