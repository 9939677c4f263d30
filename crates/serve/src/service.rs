//! The multi-tenant histogram service: per-tenant budget ledgers, delta
//! ingest, strategy-dispatched releases, and epoch-swapped serving.
//!
//! Each tenant owns a true histogram (never served directly), a
//! [`PrivacyAccountant`] debited once per release under sequential
//! composition (with named (ε,δ) ledger entries), and a [`SnapshotShards`]
//! bank — one [`crate::cell::SnapshotCell`] per shard, `effective_threads(4)`
//! shards — holding the currently-served [`ConsistentSnapshot`]. Ingest
//! accumulates count deltas behind the tenant's write lock, checked against
//! the exact-f64 total bound before any count moves; a release — on the
//! configured cadence or on demand — spends `ε` from the ledger, releases
//! the tenant's histogram in place through its warm [`StrategyPipeline`]
//! (hc-core's one release dispatch, built at registration), and broadcasts
//! the new snapshot: one shared `Arc` that every shard serves, so a publish
//! copies no snapshot bytes. The release is rebuilt into the pages of the
//! epoch the previous publish evicted from the ring, when no reader still
//! pins it, so a warm publish allocates no prefix; a pinned epoch is never
//! written (see [`crate::cell`]). Readers pin round-robin, never block, and
//! never see the true counts: only published post-inference snapshots.
//! A panic under a tenant's write lock poisons it for writes: ingest,
//! publish and debit then refuse with [`ServeError::TenantPoisoned`], while
//! the ledger stays readable and the last published epoch keeps serving.
//!
//! Reads speak half-open [`RangeQuery`] bounds end to end and lower none of
//! them. [`HistogramService::answer`], [`HistogramService::answer_into`]
//! and [`HistogramService::confidence`] each look the tenant up, check the
//! level (`confidence` only), validate the range once — the first query in
//! batch order whose `hi` passes the domain is refused as
//! [`ServeError::QueryOutOfRange`], before anything is written — pin one
//! epoch, and make one call into the pinned [`ConsistentSnapshot`], whose
//! prefix kernel answers `prefix[hi] − prefix[lo]`, or exactly `0.0` for an
//! empty range.
//!
//! Determinism: release `i` of a tenant draws its noise from
//! `SeedStream::new(seed).rng(i)`, so the served answers are bit-identical
//! to [`hc_core::StrategyPlan::run_with`] at the same seeds — pinned by the
//! crate's tests and the `serve_load --verify` subprocess check across
//! `HC_THREADS` settings.

use std::fmt;
use std::slice;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hc_core::{
    effective_threads, AccuracyTarget, ConsistentSnapshot, ReleaseStrategy, StrategyPipeline,
    StrategyPlanner,
};
use hc_data::{Domain, Histogram, RangeQuery};
use hc_mech::{BudgetError, ConfidenceInterval, Epsilon, LedgerEntry, PrivacyAccountant};
use hc_noise::{NoiseBackend, SeedStream};

use crate::cell::{PinnedSnapshot, SnapshotShards};

/// Errors the service reports to clients. Variants carry plain fields (no
/// boxed payloads, no formatting on construction) so the hot read path can
/// return them without allocating.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No tenant registered under the given id.
    UnknownTenant {
        /// The id presented.
        tenant: usize,
    },
    /// A tenant with this name is already registered.
    DuplicateTenant {
        /// The conflicting name.
        name: String,
    },
    /// Tenants must serve at least one bin.
    EmptyDomain,
    /// The domain's buffers cannot be allocated: a tenant keeps a count per
    /// bin and a prefix entry per leaf plus one, and a tree strategy an
    /// estimate per tree node, and one of these arrays would need more than
    /// `isize::MAX` bytes, the most one allocation can hold.
    DomainTooLarge {
        /// The domain size presented.
        domain_size: usize,
    },
    /// An ingested delta addressed a bin outside the tenant's domain.
    BinOutOfRange {
        /// The offending bin index.
        bin: usize,
        /// The tenant's domain size.
        domain_size: usize,
    },
    /// A query's exclusive upper bound exceeded the tenant's domain.
    QueryOutOfRange {
        /// The query's exclusive upper bound.
        hi: usize,
        /// The tenant's domain size.
        domain_size: usize,
    },
    /// The privacy-budget ledger refused the spend.
    Budget(BudgetError),
    /// The tenant set both an explicit strategy and an accuracy target —
    /// the two prescriptions could silently disagree, so registration
    /// refuses to guess which one wins.
    ConflictingStrategy {
        /// The tenant's name.
        name: String,
    },
    /// The accuracy target's workload was declared over a different domain
    /// than the tenant serves.
    AccuracyDomainMismatch {
        /// The workload's domain size.
        workload_domain: usize,
        /// The tenant's domain size.
        tenant_domain: usize,
    },
    /// An ingest batch would push the tenant's total count past 2^53, the
    /// exact-f64 bound (or overflow `u64` on the way). Nothing in the batch
    /// was applied.
    CountOverflow,
    /// A confidence level outside the open interval `(0, 1)`, or NaN.
    InvalidLevel {
        /// The level presented.
        level: f64,
    },
    /// A panic while the tenant's write lock was held left its write state
    /// (counts, ledger, release counter) possibly half-updated, so ingest,
    /// publish and debit are refused for good. Reads keep serving the last
    /// published epoch, and the ledger stays readable.
    TenantPoisoned {
        /// The tenant's id.
        tenant: usize,
    },
    /// The release strategy cannot run: a branching factor below 2 or one
    /// whose padded tree overflows or holds more than 16 leaves per bin, an
    /// ε so small that a Laplace noise scale `Δ/ε` overflows, or a budget
    /// split that does not give every tree level a finite, positive ε (a
    /// non-finite or non-positive geometric ratio, custom weights of the
    /// wrong length or sign, or a ratio so extreme that `ratio^depth`
    /// overflows).
    InvalidStrategy {
        /// What is wrong with the strategy.
        reason: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant { tenant } => write!(f, "unknown tenant id {tenant}"),
            ServeError::DuplicateTenant { name } => {
                write!(f, "tenant {name:?} is already registered")
            }
            ServeError::EmptyDomain => write!(f, "tenant domain must be non-empty"),
            ServeError::DomainTooLarge { domain_size } => {
                write!(f, "a domain of {domain_size} bins is too large to allocate")
            }
            ServeError::BinOutOfRange { bin, domain_size } => {
                write!(f, "bin {bin} outside domain of size {domain_size}")
            }
            ServeError::QueryOutOfRange { hi, domain_size } => {
                write!(f, "query bound {hi} outside domain of size {domain_size}")
            }
            ServeError::Budget(e) => write!(f, "budget refused: {e}"),
            ServeError::ConflictingStrategy { name } => write!(
                f,
                "tenant {name:?} sets both an explicit strategy and an accuracy target"
            ),
            ServeError::AccuracyDomainMismatch {
                workload_domain,
                tenant_domain,
            } => write!(
                f,
                "accuracy workload declared over domain {workload_domain}, tenant serves {tenant_domain}"
            ),
            ServeError::CountOverflow => write!(
                f,
                "ingest would push the tenant's total count past {MAX_TOTAL_COUNT}"
            ),
            ServeError::InvalidLevel { level } => {
                write!(f, "confidence level {level} outside (0, 1)")
            }
            ServeError::TenantPoisoned { tenant } => write!(
                f,
                "tenant id {tenant} refuses writes: a panic interrupted an update"
            ),
            ServeError::InvalidStrategy { reason } => {
                write!(f, "unusable release strategy: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<BudgetError> for ServeError {
    fn from(e: BudgetError) -> Self {
        ServeError::Budget(e)
    }
}

/// Refuses a strategy that would panic when its pipeline is built or at
/// its first publish — inside the tenant's write lock, poisoning it for
/// good. The tree height and every noise scale are computed here with the
/// release path's own arithmetic, before any `TreeShape` is built.
fn check_strategy(
    strategy: &ReleaseStrategy,
    epsilon: Epsilon,
    domain_size: usize,
) -> Result<(), ServeError> {
    let (branching, split) = match strategy {
        // Unit counts: Δ = 1.
        ReleaseStrategy::Flat => return check_noise_scale(1.0 / epsilon.value()),
        ReleaseStrategy::Hierarchical { branching } => (*branching, None),
        ReleaseStrategy::Budgeted { branching, split } => (*branching, Some(split)),
    };
    if branching < 2 {
        return Err(ServeError::InvalidStrategy {
            reason: "branching factor below 2",
        });
    }
    let (height, nodes) =
        padded_tree(domain_size, branching).ok_or(ServeError::InvalidStrategy {
            reason: "branching factor pads the tree past 16 leaves per bin",
        })?;
    if !fits_allocation(nodes) {
        return Err(ServeError::DomainTooLarge { domain_size });
    }
    match split {
        // Δ = height (Proposition 4).
        None => check_noise_scale(height as f64 / epsilon.value()),
        // A finite, positive 2/ε_d² at every level also bounds each scale
        // 1/ε_d, and gives the GLS tables a weight they can hold.
        Some(split) => split
            .checked_level_epsilons(epsilon, height)
            .map(drop)
            .ok_or(ServeError::InvalidStrategy {
                reason: "budget split does not give every tree level a finite, positive ε",
            }),
    }
}

/// Leaves the padded tree may hold per domain bin. Every k ≤ 16 passes at
/// every domain size: the smallest power of k covering n bins is below k·n.
const MAX_LEAVES_PER_BIN: usize = 16;

/// The height and node count of `TreeShape::for_domain(domain_size,
/// branching)` in checked arithmetic: `None` when the padded leaf count
/// overflows or exceeds [`MAX_LEAVES_PER_BIN`] × `domain_size`. The node
/// count saturates at `usize::MAX`.
fn padded_tree(domain_size: usize, branching: usize) -> Option<(usize, usize)> {
    let cap = domain_size.saturating_mul(MAX_LEAVES_PER_BIN);
    let (mut leaves, mut height, mut nodes) = (1usize, 1usize, 1usize);
    while leaves < domain_size {
        leaves = leaves.checked_mul(branching).filter(|&l| l <= cap)?;
        height += 1;
        nodes = nodes.saturating_add(leaves);
    }
    Some((height, nodes))
}

/// Whether an array of `entries + 1` eight-byte values fits one
/// allocation: `(entries + 1) · 8 ≤ isize::MAX`, in checked arithmetic.
/// Every domain-sized array of a tenant is at most that long (a prefix has
/// one entry per leaf plus one, and a tree at least as many nodes as
/// leaves), so a domain that passes allocates without a capacity overflow.
fn fits_allocation(entries: usize) -> bool {
    entries
        .checked_add(1)
        .and_then(|n| n.checked_mul(8))
        .is_some_and(|bytes| bytes <= isize::MAX as usize)
}

/// Refuses a Laplace scale `Δ/ε` that overflowed: `Laplace::centered`
/// would panic on it when the pipeline is built or at the first publish.
fn check_noise_scale(scale: f64) -> Result<(), ServeError> {
    if scale.is_finite() {
        Ok(())
    } else {
        Err(ServeError::InvalidStrategy {
            reason: "ε is so small that the Laplace noise scale overflows",
        })
    }
}

/// The largest total count a tenant may hold: `2^53`, the bound up to which
/// every integer partial sum of the counts is an exact `f64` — the same
/// bound `ConsistentSnapshot::from_histogram` enforces. Every bin is at
/// most the total, so this also bounds each bin.
const MAX_TOTAL_COUNT: u64 = 1 << 53;

/// Snapshot shards requested per tenant; registration resolves the bank
/// width as `effective_threads(SHARDS).max(1)`, so `HC_THREADS` wins.
const SHARDS: usize = 4;

/// Opaque handle to a registered tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(usize);

/// Per-tenant configuration, fixed at registration.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    name: String,
    domain_size: usize,
    total_epsilon: f64,
    epsilon_per_release: f64,
    strategy: ReleaseStrategy,
    explicit_strategy: bool,
    accuracy: Option<AccuracyTarget>,
    backend: NoiseBackend,
    refresh_every: u64,
    seed: u64,
}

impl TenantConfig {
    /// A tenant named `name` over `domain_size` bins, with the defaults:
    /// total budget ε = 1.0 spent ε = 0.1 per release, binary hierarchical
    /// releases, reference noise backend, automatic release every 1000
    /// ingested deltas, seed 0.
    pub fn new(name: impl Into<String>, domain_size: usize) -> Self {
        Self {
            name: name.into(),
            domain_size,
            total_epsilon: 1.0,
            epsilon_per_release: 0.1,
            strategy: ReleaseStrategy::Hierarchical { branching: 2 },
            explicit_strategy: false,
            accuracy: None,
            backend: NoiseBackend::Reference,
            refresh_every: 1000,
            seed: 0,
        }
    }

    /// Sets the lifetime privacy budget and the ε debited per release.
    /// Sequential composition caps the tenant at
    /// `floor(total / per_release)` releases.
    pub fn with_budget(mut self, total_epsilon: f64, epsilon_per_release: f64) -> Self {
        self.total_epsilon = total_epsilon;
        self.epsilon_per_release = epsilon_per_release;
        self
    }

    /// Sets the release strategy (flat `L̃`, hierarchical `H̄`, or budgeted)
    /// explicitly. Mutually exclusive with [`Self::with_accuracy`]:
    /// registering a config that sets both fails with
    /// [`ServeError::ConflictingStrategy`].
    pub fn with_strategy(mut self, strategy: ReleaseStrategy) -> Self {
        self.strategy = strategy;
        self.explicit_strategy = true;
        self
    }

    /// Plans the strategy *and* the per-release ε from an accuracy target
    /// at registration: the service runs
    /// [`StrategyPlanner::plan`] over the target and adopts the
    /// cheapest-ε plan, overriding the default strategy and
    /// `epsilon_per_release` (the lifetime `total_epsilon` is untouched —
    /// size it to the number of refreshes the tenant should get). Mutually
    /// exclusive with [`Self::with_strategy`].
    pub fn with_accuracy(mut self, target: AccuracyTarget) -> Self {
        self.accuracy = Some(target);
        self
    }

    /// Sets the Laplace sampling backend.
    pub fn with_backend(mut self, backend: NoiseBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Release automatically once this many deltas have been ingested since
    /// the last release. `0` disables the cadence: releases happen only via
    /// [`HistogramService::publish`].
    pub fn with_refresh_every(mut self, deltas: u64) -> Self {
        self.refresh_every = deltas;
        self
    }

    /// Sets the master seed for the tenant's noise stream; release `i`
    /// draws from `SeedStream::new(seed).rng(i)`.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's domain size.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }
}

/// Everything behind the tenant's write lock: the true histogram, the
/// budget ledger, and the warm release pipeline (built once at
/// registration). Readers never touch this.
struct WriteState {
    histogram: Histogram,
    /// Sum of the histogram's counts, kept at or below [`MAX_TOTAL_COUNT`].
    total: u64,
    pending_deltas: u64,
    releases: u64,
    budget: PrivacyAccountant,
    pipeline: StrategyPipeline,
    /// The epoch the last publish evicted from the ring: the next release
    /// is rebuilt into it if no reader pins it any more.
    retired: Option<Arc<ConsistentSnapshot>>,
}

struct Tenant {
    config: TenantConfig,
    shards: SnapshotShards,
    write: Mutex<WriteState>,
}

impl Tenant {
    /// The write state for a mutation, refused once poisoned. The write
    /// path is deliberately not recovered: a release that panics after
    /// `spend_at` leaves `releases` where it was, so a recovered publish
    /// would reuse release index `i` — and its noise stream — on changed
    /// counts, and the difference of the two releases would reveal the
    /// count changes exactly.
    fn write_state(&self, id: TenantId) -> Result<MutexGuard<'_, WriteState>, ServeError> {
        self.write
            .lock()
            .map_err(|_| ServeError::TenantPoisoned { tenant: id.0 })
    }

    /// The write state for a read-only look (budget, ledger): reads
    /// through a poisoned lock, since nothing is changed.
    fn read_state(&self) -> MutexGuard<'_, WriteState> {
        self.write.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The read path's one range validation: refuses the first query, in
    /// batch order, whose exclusive bound passes the domain.
    fn check_queries(&self, queries: &[RangeQuery]) -> Result<(), ServeError> {
        let domain_size = self.config.domain_size;
        match queries.iter().find(|q| q.hi() > domain_size) {
            Some(q) => Err(ServeError::QueryOutOfRange {
                hi: q.hi(),
                domain_size,
            }),
            None => Ok(()),
        }
    }
}

/// Outcome of one successful release+publish.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishReport {
    /// The epoch the new snapshot was published at.
    pub epoch: usize,
    /// The zero-based index of this release in the tenant's noise stream.
    pub release_index: u64,
    /// The ε debited from the ledger for this release.
    pub spent: f64,
    /// Budget remaining after the debit.
    pub remaining: f64,
}

/// A long-lived, multi-tenant histogram service.
///
/// Registration and ingest go through `&self` with interior locking per
/// tenant, so one service value can be shared across threads; reads go
/// through each tenant's lock-free [`SnapshotShards`] bank.
///
/// ```
/// use hc_serve::{HistogramService, RangeQuery, TenantConfig};
///
/// let mut service = HistogramService::new();
/// let id = service
///     .register(TenantConfig::new("taxi", 64).with_refresh_every(0))
///     .unwrap();
/// service.ingest(id, &[(3, 10), (40, 2)]).unwrap();
/// let report = service.publish(id).unwrap();
/// assert_eq!(report.epoch, 1);
/// let noisy = service.answer(id, RangeQuery::new(0, 64)).unwrap();
/// assert!(noisy.is_finite());
/// ```
#[derive(Default)]
pub struct HistogramService {
    // A Vec, not a map: tenant counts are small, ids are dense indices, and
    // iteration order stays deterministic for ledger dumps and tests.
    tenants: Vec<Tenant>,
}

impl HistogramService {
    /// An empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tenant and publishes its epoch-0 snapshot: the all-zeros
    /// histogram, which depends on no data and therefore spends no budget.
    pub fn register(&mut self, config: TenantConfig) -> Result<TenantId, ServeError> {
        let mut config = config;
        if config.domain_size == 0 {
            return Err(ServeError::EmptyDomain);
        }
        // Before anything domain-sized is planned or allocated.
        if !fits_allocation(config.domain_size) {
            return Err(ServeError::DomainTooLarge {
                domain_size: config.domain_size,
            });
        }
        if self.tenants.iter().any(|t| t.config.name == config.name) {
            return Err(ServeError::DuplicateTenant {
                name: config.name.clone(),
            });
        }
        // Accuracy-first registration: plan the strategy and per-release ε
        // from the target before the pipeline is built. An explicit
        // strategy alongside a target is refused rather than second-guessed.
        let mut delta_allowance = 0.0;
        if let Some(target) = config.accuracy.take() {
            if config.explicit_strategy {
                return Err(ServeError::ConflictingStrategy { name: config.name });
            }
            if let Some(w) = target
                .workload()
                .iter()
                .find(|w| w.domain_size() != config.domain_size)
            {
                return Err(ServeError::AccuracyDomainMismatch {
                    workload_domain: w.domain_size(),
                    tenant_domain: config.domain_size,
                });
            }
            let plan = StrategyPlanner::for_domain(config.domain_size).plan(&target);
            config.strategy = plan.choice;
            config.epsilon_per_release = plan.epsilon;
            delta_allowance = target.delta();
        }
        let epsilon = Epsilon::new(config.epsilon_per_release)?;
        let total = Epsilon::new(config.total_epsilon)?;
        check_strategy(&config.strategy, epsilon, config.domain_size)?;
        let domain =
            Domain::new(config.name.as_str(), config.domain_size).expect("size checked above");
        let pipeline = StrategyPipeline::new(
            &config.strategy,
            epsilon,
            config.backend,
            config.domain_size,
        );
        let budget = PrivacyAccountant::new(total)
            .with_delta(delta_allowance)
            .map_err(ServeError::Budget)?;
        let write = WriteState {
            histogram: Histogram::from_counts(domain, vec![0; config.domain_size]),
            total: 0,
            pending_deltas: 0,
            releases: 0,
            budget,
            pipeline,
            retired: None,
        };
        let initial = ConsistentSnapshot::zeros(config.domain_size);
        let id = TenantId(self.tenants.len());
        self.tenants.push(Tenant {
            config,
            shards: SnapshotShards::new(initial, effective_threads(SHARDS).max(1)),
            write: Mutex::new(write),
        });
        Ok(id)
    }

    /// Looks a tenant up by name.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.tenants
            .iter()
            .position(|t| t.config.name == name)
            .map(TenantId)
    }

    fn tenant(&self, id: TenantId) -> Result<&Tenant, ServeError> {
        self.tenants
            .get(id.0)
            .ok_or(ServeError::UnknownTenant { tenant: id.0 })
    }

    /// Ingests `(bin, count)` deltas into the tenant's true histogram.
    ///
    /// Validates every bin, and that the tenant's total count stays at or
    /// below 2^53, before applying any delta
    /// (all-or-nothing). If the tenant's refresh cadence fires and budget
    /// remains, a release is published and its report returned; if the
    /// cadence fires but the ledger is exhausted, ingest still succeeds and
    /// returns `Ok(None)` — the service keeps serving the last published
    /// snapshot rather than over-spending.
    pub fn ingest(
        &self,
        id: TenantId,
        deltas: &[(usize, u64)],
    ) -> Result<Option<PublishReport>, ServeError> {
        let tenant = self.tenant(id)?;
        let mut state = tenant.write_state(id)?;
        let domain_size = tenant.config.domain_size;
        if let Some(&(bin, _)) = deltas.iter().find(|&&(bin, _)| bin >= domain_size) {
            return Err(ServeError::BinOutOfRange { bin, domain_size });
        }
        // Sum the whole batch before touching a count: with the total
        // capped at 2^53, no bin can overflow when the deltas land.
        let total = deltas
            .iter()
            .try_fold(state.total, |acc, &(_, count)| acc.checked_add(count))
            .filter(|&total| total <= MAX_TOTAL_COUNT)
            .ok_or(ServeError::CountOverflow)?;
        let counts = state.histogram.counts_mut();
        for &(bin, count) in deltas {
            counts[bin] += count;
        }
        state.total = total;
        state.pending_deltas += deltas.len() as u64;
        let cadence = tenant.config.refresh_every;
        if cadence > 0 && state.pending_deltas >= cadence {
            match Self::release_locked(tenant, &mut state) {
                Ok(report) => return Ok(Some(report)),
                Err(ServeError::Budget(BudgetError::Exhausted { .. })) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Releases and publishes now, regardless of cadence. Spends
    /// `epsilon_per_release` from the ledger; fails with
    /// [`ServeError::Budget`] when exhausted.
    pub fn publish(&self, id: TenantId) -> Result<PublishReport, ServeError> {
        let tenant = self.tenant(id)?;
        let mut state = tenant.write_state(id)?;
        Self::release_locked(tenant, &mut state)
    }

    /// One release under the tenant's write lock: debit the ledger, derive
    /// the release RNG, run the strategy pipeline into the retired epoch
    /// (or a fresh snapshot while a reader still pins it), publish the
    /// snapshot and keep the epoch it evicts.
    fn release_locked(
        tenant: &Tenant,
        state: &mut WriteState,
    ) -> Result<PublishReport, ServeError> {
        let release_index = state.releases;
        let epsilon = Epsilon::new(tenant.config.epsilon_per_release)?;
        // Epoch 0 is the data-free zeros snapshot, so release i funds
        // epoch i + 1.
        let spent = state
            .budget
            .spend_at(
                format!("release-{release_index}"),
                epsilon,
                0.0,
                release_index + 1,
            )?
            .value();
        let mut rng = SeedStream::new(tenant.config.seed).rng(release_index);
        let mut retired = state.retired.take();
        let snapshot = match retired.as_mut().and_then(Arc::get_mut) {
            Some(recycled) => {
                state
                    .pipeline
                    .release_into(&state.histogram, &mut rng, recycled);
                retired.expect("the recycled epoch")
            }
            None => {
                // Still pinned (or nothing retired yet): the readers keep
                // that epoch alive, and this release gets its own pages.
                drop(retired);
                Arc::new(state.pipeline.release(&state.histogram, &mut rng))
            }
        };
        state.releases += 1;
        state.pending_deltas = 0;
        let (epoch, evicted) = tenant.shards.broadcast(snapshot);
        state.retired = evicted;
        Ok(PublishReport {
            epoch,
            release_index,
            spent,
            remaining: state.budget.remaining(),
        })
    }

    /// Answers one range query from the tenant's current snapshot. Empty
    /// queries answer exactly `0.0`.
    pub fn answer(&self, id: TenantId, query: RangeQuery) -> Result<f64, ServeError> {
        let tenant = self.tenant(id)?;
        tenant.check_queries(slice::from_ref(&query))?;
        Ok(tenant.shards.pin().answer(query))
    }

    /// Answers a batch of range queries into a caller-owned buffer —
    /// allocation-free after `out` has warmed up, and every answer comes
    /// from the *same* pinned snapshot (one epoch, never a mix). Returns
    /// that epoch. On error `out` is left as it was.
    pub fn answer_into(
        &self,
        id: TenantId,
        queries: &[RangeQuery],
        out: &mut Vec<f64>,
    ) -> Result<usize, ServeError> {
        let tenant = self.tenant(id)?;
        tenant.check_queries(queries)?;
        let pinned = tenant.shards.pin();
        pinned.answer_into(queries, out);
        Ok(pinned.epoch())
    }

    /// A union-bound confidence interval for one query at `level`, from the
    /// current snapshot. `None` when the serving snapshot carries no single
    /// noise scale (budgeted releases, or the unreleased epoch-0 zeros).
    /// Empty queries get the exact zero-width interval at `0.0`. A `level`
    /// outside `(0, 1)`, or NaN, is refused with [`ServeError::InvalidLevel`].
    pub fn confidence(
        &self,
        id: TenantId,
        query: RangeQuery,
        level: f64,
    ) -> Result<Option<ConfidenceInterval>, ServeError> {
        let tenant = self.tenant(id)?;
        if !(level > 0.0 && level < 1.0) {
            return Err(ServeError::InvalidLevel { level });
        }
        tenant.check_queries(slice::from_ref(&query))?;
        Ok(tenant.shards.pin().confidence(query, level))
    }

    /// Pins the tenant's currently-served snapshot (stays valid across
    /// later publishes).
    pub fn snapshot(&self, id: TenantId) -> Result<PinnedSnapshot, ServeError> {
        Ok(self.tenant(id)?.shards.pin())
    }

    /// The tenant's current serving epoch (0 = initial zeros snapshot).
    pub fn epoch(&self, id: TenantId) -> Result<usize, ServeError> {
        Ok(self.tenant(id)?.shards.epoch())
    }

    /// The tenant's resolved shard count: `effective_threads(4).max(1)`.
    pub fn shard_count(&self, id: TenantId) -> Result<usize, ServeError> {
        Ok(self.tenant(id)?.shards.shard_count())
    }

    /// Budget remaining on the tenant's ledger.
    pub fn remaining_budget(&self, id: TenantId) -> Result<f64, ServeError> {
        let tenant = self.tenant(id)?;
        let state = tenant.read_state();
        Ok(state.budget.remaining())
    }

    /// The tenant's spend ledger in release order — typed
    /// [`LedgerEntry`] values (label, ε, δ, funded epoch), not positional
    /// tuples.
    pub fn ledger(&self, id: TenantId) -> Result<Vec<LedgerEntry>, ServeError> {
        let tenant = self.tenant(id)?;
        let state = tenant.read_state();
        Ok(state.budget.ledger().to_vec())
    }

    /// The release strategy the tenant is running — the registered one, or
    /// the planner's pick for tenants that registered with
    /// [`TenantConfig::with_accuracy`].
    pub fn strategy(&self, id: TenantId) -> Result<ReleaseStrategy, ServeError> {
        Ok(self.tenant(id)?.config.strategy.clone())
    }

    /// The ε the tenant debits per release — the registered value, or the
    /// solved minimum for accuracy-planned tenants.
    pub fn epsilon_per_release(&self, id: TenantId) -> Result<f64, ServeError> {
        Ok(self.tenant(id)?.config.epsilon_per_release)
    }

    /// Debits an out-of-band (ε, δ) spend against the tenant's accountant
    /// under a caller-chosen label — the hook for privacy costs incurred
    /// outside the release pipeline (e.g. a stability-mechanism release
    /// over the tenant's sparse domain). Recorded at epoch 0 since no
    /// served snapshot is funded.
    pub fn debit(
        &self,
        id: TenantId,
        label: impl Into<String>,
        epsilon: f64,
        delta: f64,
    ) -> Result<(), ServeError> {
        let tenant = self.tenant(id)?;
        let mut state = tenant.write_state(id)?;
        let epsilon = Epsilon::new(epsilon)?;
        state.budget.spend_at(label, epsilon, delta, 0)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::{BatchInference, BudgetSplit, HierarchicalUniversal, StrategyPlan};
    use hc_data::Interval;
    use hc_mech::TreeShape;

    fn config(name: &str, n: usize) -> TenantConfig {
        TenantConfig::new(name, n)
            .with_budget(1.0, 0.25)
            .with_refresh_every(0)
            .with_seed(7)
    }

    #[test]
    fn registration_validates_and_serves_zeros() {
        let mut service = HistogramService::new();
        assert_eq!(
            service.register(config("t", 0)),
            Err(ServeError::EmptyDomain)
        );
        let id = service.register(config("t", 16)).unwrap();
        assert_eq!(
            service.register(config("t", 8)).unwrap_err(),
            ServeError::DuplicateTenant { name: "t".into() }
        );
        assert_eq!(service.tenant_id("t"), Some(id));
        assert_eq!(service.tenant_id("missing"), None);
        assert_eq!(service.epoch(id).unwrap(), 0);
        assert_eq!(service.answer(id, RangeQuery::new(0, 16)).unwrap(), 0.0);
        // Epoch 0 is data-independent: the full budget is still there.
        assert_eq!(service.remaining_budget(id).unwrap(), 1.0);
    }

    #[test]
    fn hierarchical_publishes_match_the_serial_pipeline_bit_for_bit() {
        let mut service = HistogramService::new();
        let id = service.register(config("t", 32)).unwrap();
        service.ingest(id, &[(0, 5), (3, 1), (31, 9)]).unwrap();
        let report = service.publish(id).unwrap();
        assert_eq!((report.epoch, report.release_index), (1, 0));
        assert_eq!(report.spent, 0.25);
        assert_eq!(report.remaining, 0.75);

        // Serial reference: same strategy, same seed, same release index.
        let eps = Epsilon::new(0.25).unwrap();
        let mut counts = vec![0u64; 32];
        counts[0] = 5;
        counts[3] = 1;
        counts[31] = 9;
        let hist = Histogram::from_counts(Domain::new("t", 32).unwrap(), counts);
        let mut rng = SeedStream::new(7).rng(0);
        let mut engine = BatchInference::for_shape(&TreeShape::for_domain(32, 2));
        let expected = HierarchicalUniversal::new(eps, 2)
            .release(&hist, &mut rng)
            .infer_snapshot(&mut engine);

        let served = service.snapshot(id).unwrap();
        assert_eq!(served.snapshot(), &expected);
        for (lo, hi) in [(0, 1), (0, 32), (3, 17), (31, 32)] {
            let q = RangeQuery::new(lo, hi);
            assert_eq!(
                service.answer(id, q).unwrap(),
                expected.answer(Interval::new(lo, hi - 1)),
                "range [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn flat_and_budgeted_strategies_release_and_serve() {
        let mut service = HistogramService::new();
        let flat = service
            .register(config("flat", 16).with_strategy(ReleaseStrategy::Flat))
            .unwrap();
        let budgeted = service
            .register(
                config("budgeted", 16).with_strategy(ReleaseStrategy::Budgeted {
                    branching: 2,
                    split: hc_core::BudgetSplit::Geometric { ratio: 1.5 },
                }),
            )
            .unwrap();
        let mut counts = vec![0u64; 16];
        counts[2] = 4;
        counts[9] = 4;
        let hist = Histogram::from_counts(Domain::new("t", 16).unwrap(), counts);
        for id in [flat, budgeted] {
            service.ingest(id, &[(2, 4), (9, 4)]).unwrap();
            let plan = StrategyPlan {
                choice: service.strategy(id).unwrap(),
                epsilon: 0.25,
                predicted_error: 0.0,
                guarantee: None,
                per_size: Vec::new(),
                domain_size: 16,
            };
            // Two releases: the second runs on the warm buffers of the first
            // and must still match a cold serial release at its own index.
            for i in 0..2u64 {
                let report = service.publish(id).unwrap();
                assert_eq!((report.epoch, report.release_index), (i as usize + 1, i));
                let mut rng = SeedStream::new(7).rng(i);
                let expected = plan.run_with(&hist, NoiseBackend::Reference, &mut rng);
                assert_eq!(service.snapshot(id).unwrap().snapshot(), &expected);
            }
        }
        // Flat releases carry a single Laplace scale; budgeted ones do not.
        let q = RangeQuery::new(2, 10);
        assert!(service.confidence(flat, q, 0.95).unwrap().is_some());
        assert!(service.confidence(budgeted, q, 0.95).unwrap().is_none());
    }

    #[test]
    fn batch_answers_come_from_one_epoch() {
        let mut service = HistogramService::new();
        let id = service.register(config("t", 8)).unwrap();
        service.ingest(id, &[(1, 3)]).unwrap();
        service.publish(id).unwrap();
        let queries = [
            RangeQuery::new(0, 8),
            RangeQuery::new(4, 4), // empty
            RangeQuery::new(1, 2),
        ];
        let mut out = Vec::new();
        let epoch = service.answer_into(id, &queries, &mut out).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(out.len(), 3);
        assert_eq!(out[1], 0.0);
        assert_eq!(out[0], service.answer(id, queries[0]).unwrap());
    }

    #[test]
    fn an_out_of_range_query_mid_batch_is_named_and_leaves_out_alone() {
        let n = 8;
        let mut service = HistogramService::new();
        let id = service.register(config("t", n)).unwrap();
        service.ingest(id, &[(1, 3)]).unwrap();
        service.publish(id).unwrap();
        let ok = [RangeQuery::new(0, n), RangeQuery::new(2, 2)];
        for (first, second) in [(n + 1, usize::MAX), (usize::MAX, n + 1)] {
            let queries = [
                ok[0],
                RangeQuery::new(3, first),
                ok[1],
                RangeQuery::new(0, second),
            ];
            let mut out = Vec::with_capacity(16);
            out.extend([7.5, -0.0, f64::NAN]);
            let before: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                service.answer_into(id, &queries, &mut out),
                Err(ServeError::QueryOutOfRange {
                    hi: first,
                    domain_size: n
                })
            );
            let after: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(after, before, "out changed on error");
            assert_eq!(out.capacity(), 16);
            for query in [queries[1], queries[3]] {
                let refused = ServeError::QueryOutOfRange {
                    hi: query.hi(),
                    domain_size: n,
                };
                assert_eq!(service.answer(id, query), Err(refused.clone()));
                assert_eq!(service.confidence(id, query, 0.9), Err(refused));
            }
        }
        // The valid queries of the same batch answer from the pinned epoch.
        let mut out = Vec::new();
        assert_eq!(service.answer_into(id, &ok, &mut out), Ok(1));
        let pinned = service.snapshot(id).unwrap();
        assert_eq!(out[0].to_bits(), pinned.answer(ok[0]).to_bits());
        assert_eq!(out[1].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn empty_queries_answer_zero_with_zero_width_confidence() {
        let mut service = HistogramService::new();
        let id = service.register(config("t", 8)).unwrap();
        service.publish(id).unwrap();
        let empty = RangeQuery::new(5, 5);
        assert_eq!(service.answer(id, empty).unwrap(), 0.0);
        let ci = service.confidence(id, empty, 0.95).unwrap().unwrap();
        assert_eq!((ci.lo, ci.hi), (0.0, 0.0));
    }

    #[test]
    fn confidence_refuses_levels_outside_the_unit_interval() {
        let mut service = HistogramService::new();
        let id = service.register(config("t", 4)).unwrap();
        let paths = [RangeQuery::new(0, 4), RangeQuery::new(2, 2)];
        for epoch in 0..2 {
            if epoch == 1 {
                service.ingest(id, &[(1, 3)]).unwrap();
                service.publish(id).unwrap();
            }
            assert_eq!(service.epoch(id).unwrap(), epoch);
            for query in paths {
                for level in [f64::NAN, -5.0, 1.0, 1.5] {
                    let err = service.confidence(id, query, level).unwrap_err();
                    let ServeError::InvalidLevel { level: got } = &err else {
                        panic!("epoch {epoch}, {query:?}, level {level}: {err:?}");
                    };
                    assert_eq!(got.to_bits(), level.to_bits());
                }
                assert!(service.confidence(id, query, 0.9).is_ok());
            }
        }
    }

    #[test]
    fn validation_rejects_bad_bins_queries_and_ids() {
        let mut service = HistogramService::new();
        let id = service.register(config("t", 8)).unwrap();
        assert_eq!(
            service.ingest(id, &[(2, 1), (8, 1)]).unwrap_err(),
            ServeError::BinOutOfRange {
                bin: 8,
                domain_size: 8
            }
        );
        // All-or-nothing: the valid delta before the bad one did not land.
        service.publish(id).unwrap();
        assert_eq!(service.answer(id, RangeQuery::new(0, 8)).unwrap(), {
            let hist = Histogram::from_counts(Domain::new("t", 8).unwrap(), vec![0; 8]);
            let mut rng = SeedStream::new(7).rng(0);
            let mut engine = BatchInference::for_shape(&TreeShape::for_domain(8, 2));
            HierarchicalUniversal::new(Epsilon::new(0.25).unwrap(), 2)
                .release(&hist, &mut rng)
                .infer_snapshot(&mut engine)
                .answer(Interval::new(0, 7))
        });
        assert_eq!(
            service.answer(id, RangeQuery::new(0, 9)).unwrap_err(),
            ServeError::QueryOutOfRange {
                hi: 9,
                domain_size: 8
            }
        );
        let bogus = TenantId(42);
        assert_eq!(
            service.answer(bogus, RangeQuery::new(0, 1)).unwrap_err(),
            ServeError::UnknownTenant { tenant: 42 }
        );
    }

    #[test]
    fn ingest_overflow_is_refused_before_any_count_moves() {
        let mut service = HistogramService::new();
        let id = service.register(config("t", 8)).unwrap();
        // A single delta past the exact-f64 bound, and a batch whose sum
        // overflows u64, are refused whole.
        assert_eq!(
            service.ingest(id, &[(0, u64::MAX)]),
            Err(ServeError::CountOverflow)
        );
        assert_eq!(
            service.ingest(id, &[(1, 5), (0, u64::MAX)]),
            Err(ServeError::CountOverflow)
        );
        // Filling bin 0 to the bound exactly is fine; one more count is not,
        // and the valid-looking delta to bin 1 ahead of it must not land.
        service.ingest(id, &[(0, MAX_TOTAL_COUNT)]).unwrap();
        assert_eq!(
            service.ingest(id, &[(1, 5), (0, 2)]),
            Err(ServeError::CountOverflow)
        );
        // The tenant lock is healthy and the release sees exactly the
        // accepted counts: bin 0 at the bound, bin 1 untouched.
        service.publish(id).unwrap();
        let mut counts = vec![0u64; 8];
        counts[0] = MAX_TOTAL_COUNT;
        let hist = Histogram::from_counts(Domain::new("t", 8).unwrap(), counts);
        let mut engine = BatchInference::for_shape(&TreeShape::for_domain(8, 2));
        let expected = HierarchicalUniversal::new(Epsilon::new(0.25).unwrap(), 2)
            .release(&hist, &mut SeedStream::new(7).rng(0))
            .infer_snapshot(&mut engine);
        assert_eq!(service.snapshot(id).unwrap().snapshot(), &expected);
    }

    #[test]
    fn budget_exhaustion_stops_releases_but_not_serving() {
        let mut service = HistogramService::new();
        // Budget for exactly 2 releases.
        let id = service
            .register(
                TenantConfig::new("t", 8)
                    .with_budget(0.5, 0.25)
                    .with_refresh_every(0)
                    .with_seed(3),
            )
            .unwrap();
        service.publish(id).unwrap();
        service.publish(id).unwrap();
        assert_eq!(service.remaining_budget(id).unwrap(), 0.0);
        let err = service.publish(id).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Budget(BudgetError::Exhausted { .. })
        ));
        // Still serving the last published epoch.
        assert_eq!(service.epoch(id).unwrap(), 2);
        assert!(service
            .answer(id, RangeQuery::new(0, 8))
            .unwrap()
            .is_finite());
        let ledger = service.ledger(id).unwrap();
        assert_eq!(
            ledger,
            vec![
                LedgerEntry {
                    label: "release-0".to_string(),
                    epsilon: 0.25,
                    delta: 0.0,
                    release_epoch: 1,
                },
                LedgerEntry {
                    label: "release-1".to_string(),
                    epsilon: 0.25,
                    delta: 0.0,
                    release_epoch: 2,
                },
            ]
        );
    }

    #[test]
    fn cadence_triggers_releases_and_goes_quiet_when_exhausted() {
        let mut service = HistogramService::new();
        let id = service
            .register(
                TenantConfig::new("t", 8)
                    .with_budget(0.2, 0.1)
                    .with_refresh_every(2)
                    .with_seed(11),
            )
            .unwrap();
        // One delta: below cadence, no release.
        assert_eq!(service.ingest(id, &[(0, 1)]).unwrap(), None);
        assert_eq!(service.epoch(id).unwrap(), 0);
        // Second delta trips the cadence.
        let report = service.ingest(id, &[(1, 1)]).unwrap().unwrap();
        assert_eq!((report.epoch, report.release_index), (1, 0));
        // Pending counter reset: two more deltas for the next release.
        assert_eq!(service.ingest(id, &[(2, 1)]).unwrap(), None);
        assert!(service.ingest(id, &[(3, 1)]).unwrap().is_some());
        // Budget is now exhausted: the cadence fires silently, ingest still
        // lands (visible in the *next* release if budget were added).
        assert_eq!(service.ingest(id, &[(4, 1), (5, 1)]).unwrap(), None);
        assert_eq!(service.epoch(id).unwrap(), 2);
        assert_eq!(service.remaining_budget(id).unwrap(), 0.0);
    }

    /// `served` equals `fresh` — prefix length, domain, noise scale — and
    /// every range answer matches by `to_bits`.
    fn assert_same_snapshot(served: &ConsistentSnapshot, fresh: &ConsistentSnapshot, what: &str) {
        assert_eq!(served, fresh, "{what}");
        let n = fresh.domain_size();
        for lo in 0..n {
            for hi in lo..n {
                let q = Interval::new(lo, hi);
                assert_eq!(
                    served.answer(q).to_bits(),
                    fresh.answer(q).to_bits(),
                    "{what}: [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn recycled_epochs_serve_the_fresh_release_bit_for_bit() {
        const SLOTS: usize = crate::SnapshotCell::SLOTS;
        let address = |pinned: &PinnedSnapshot| std::ptr::from_ref(pinned.snapshot()) as usize;
        let strategies = [
            ReleaseStrategy::Flat,
            ReleaseStrategy::Hierarchical { branching: 2 },
            ReleaseStrategy::Hierarchical { branching: 3 },
            ReleaseStrategy::Budgeted {
                branching: 2,
                split: BudgetSplit::Geometric { ratio: 1.5 },
            },
        ];
        // A padded domain (64 leaves at k = 2, 81 at k = 3) and one bin.
        for (strategy, n) in strategies.iter().flat_map(|s| [(s, 37usize), (s, 1)]) {
            let seed = 11;
            let mut service = HistogramService::new();
            let config = TenantConfig::new("t", n)
                .with_budget(64.0, 0.5)
                .with_refresh_every(0)
                .with_seed(seed)
                .with_strategy(strategy.clone());
            let id = service.register(config).unwrap();
            let eps = Epsilon::new(0.5).unwrap();
            let mut pipeline = StrategyPipeline::new(strategy, eps, NoiseBackend::Reference, n);
            let mut counts = vec![0u64; n];
            // `addresses[e]` is where epoch e's snapshot lives.
            let mut addresses = vec![address(&service.snapshot(id).unwrap())];
            let mut held = None;
            for i in 0..3 * SLOTS as u64 {
                let bin = (i as usize * 5) % n;
                service.ingest(id, &[(bin, i + 1)]).unwrap();
                counts[bin] += i + 1;
                let epoch = service.publish(id).unwrap().epoch;
                let served = service.snapshot(id).unwrap();
                let histogram =
                    Histogram::from_counts(Domain::new("t", n).unwrap(), counts.clone());
                let fresh = pipeline.release(&histogram, &mut SeedStream::new(seed).rng(i));
                let what = format!("{strategy:?} n={n} epoch {epoch}");
                assert_same_snapshot(served.snapshot(), &fresh, &what);
                addresses.push(address(&served));
                if epoch > SLOTS {
                    // Epoch 1 stays pinned below, so the publish that would
                    // recycle it allocates fresh; every other epoch past the
                    // first lap is rebuilt into the one SLOTS + 1 back.
                    let recycled = addresses[epoch] == addresses[epoch - SLOTS - 1];
                    assert_eq!(recycled, epoch != SLOTS + 2, "{what}");
                }
                if epoch == 1 {
                    held = Some((served, fresh));
                }
            }
            // The pin held across every publish kept its bits.
            let (pinned, fresh) = held.unwrap();
            assert_same_snapshot(pinned.snapshot(), &fresh, "held epoch 1");
            let whole = RangeQuery::new(0, n);
            let confidence = service.confidence(id, whole, 0.9).unwrap();
            let budgeted = matches!(strategy, ReleaseStrategy::Budgeted { .. });
            assert_eq!(confidence.is_none(), budgeted, "{strategy:?}");
        }
    }

    #[test]
    fn same_seed_same_answers_independent_of_publish_route() {
        // A cadence-triggered release and a manual publish at the same
        // release index produce bit-identical snapshots.
        let build = |refresh: u64| {
            let mut service = HistogramService::new();
            let id = service
                .register(
                    TenantConfig::new("t", 16)
                        .with_budget(1.0, 0.5)
                        .with_refresh_every(refresh)
                        .with_seed(99),
                )
                .unwrap();
            service.ingest(id, &[(3, 2), (7, 5)]).unwrap();
            if refresh == 0 {
                service.publish(id).unwrap();
            }
            let mut out = Vec::new();
            let queries: Vec<RangeQuery> = (0..16).map(|lo| RangeQuery::new(lo, 16)).collect();
            service.answer_into(id, &queries, &mut out).unwrap();
            out
        };
        assert_eq!(build(0), build(2));
    }

    #[test]
    fn accuracy_registration_plans_strategy_and_epsilon() {
        use hc_data::RangeWorkload;
        let n = 1 << 10;
        let target = AccuracyTarget::new(0.05, 50.0)
            .with_workload(vec![RangeWorkload::new(n, 256)])
            .with_delta(1e-7);
        let mut service = HistogramService::new();
        let id = service
            .register(
                TenantConfig::new("planned", n)
                    .with_budget(100.0, 0.1) // per-release ε is overridden below
                    .with_refresh_every(0)
                    .with_seed(5)
                    .with_accuracy(target.clone()),
            )
            .unwrap();
        // The adopted plan is exactly the planner's top-ranked one.
        let expected = StrategyPlanner::for_domain(n).plan(&target);
        assert_eq!(service.strategy(id).unwrap(), expected.choice);
        assert_eq!(service.epsilon_per_release(id).unwrap(), expected.epsilon);
        // And the release pipeline actually debits the solved ε.
        service.ingest(id, &[(9, 3)]).unwrap();
        let report = service.publish(id).unwrap();
        assert_eq!(report.spent, expected.epsilon);
        // The target's δ became the accountant's allowance: a stability
        // debit within it lands, one beyond it is refused.
        service.debit(id, "stability", 0.5, 5e-8).unwrap();
        let err = service.debit(id, "stability-2", 0.5, 9e-8).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Budget(BudgetError::DeltaExhausted { .. })
        ));
        let ledger = service.ledger(id).unwrap();
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger[1].label, "stability");
        assert_eq!(ledger[1].delta, 5e-8);
        assert_eq!(ledger[1].release_epoch, 0);
    }

    /// Registering `strategy` over `domain` bins fails with
    /// `InvalidStrategy` before anything is built, and leaves nothing
    /// behind: the name stays free, and a valid tenant under it ingests and
    /// publishes without meeting a poisoned lock.
    fn assert_refused_cleanly(strategy: ReleaseStrategy, domain: usize) {
        assert_config_refused_cleanly(config("bad", domain).with_strategy(strategy));
    }

    /// [`assert_refused_cleanly`] for a whole configuration named `"bad"`.
    fn assert_config_refused_cleanly(bad: TenantConfig) {
        let mut service = HistogramService::new();
        let err = service.register(bad.clone()).unwrap_err();
        assert!(
            matches!(err, ServeError::InvalidStrategy { .. }),
            "{bad:?}: {err:?}"
        );
        assert!(err.to_string().starts_with("unusable release strategy"));
        assert_eq!(service.tenant_id("bad"), None);
        let id = service.register(config("bad", 16)).unwrap();
        service.ingest(id, &[(3, 2)]).unwrap();
        assert_eq!(service.publish(id).unwrap().epoch, 1);
        assert_eq!(service.publish(id).unwrap().epoch, 2);
    }

    #[test]
    fn branching_below_two_is_refused_at_registration() {
        for branching in [0, 1] {
            assert_refused_cleanly(ReleaseStrategy::Hierarchical { branching }, 64);
            assert_refused_cleanly(
                ReleaseStrategy::Budgeted {
                    branching,
                    split: BudgetSplit::Uniform,
                },
                64,
            );
        }
    }

    #[test]
    fn oversized_branching_is_refused_at_registration() {
        // usize::MAX overflows the padded leaf count; 2^20 − 1 over 2^20
        // bins pads to ≈ 2^40 leaves, an allocation that would abort the
        // process at the first publish.
        for (branching, domain) in [(usize::MAX, 5), ((1 << 20) - 1, 1 << 20)] {
            assert_refused_cleanly(ReleaseStrategy::Hierarchical { branching }, domain);
            assert_refused_cleanly(
                ReleaseStrategy::Budgeted {
                    branching,
                    split: BudgetSplit::Uniform,
                },
                domain,
            );
        }
    }

    #[test]
    fn an_epsilon_whose_noise_scale_overflows_is_refused_at_registration() {
        // 1/1e-310 is already +∞; at 3e-308 it is the height-11 tree's
        // Δ = 11 (and each budgeted level's 1/ε_d) that overflows.
        for epsilon in [1e-310, 3e-308] {
            for strategy in [
                ReleaseStrategy::Hierarchical { branching: 2 },
                ReleaseStrategy::Budgeted {
                    branching: 2,
                    split: BudgetSplit::Uniform,
                },
            ] {
                assert_config_refused_cleanly(
                    config("bad", 1024)
                        .with_strategy(strategy)
                        .with_budget(1.0, epsilon),
                );
            }
        }
        assert_config_refused_cleanly(
            config("bad", 1024)
                .with_strategy(ReleaseStrategy::Flat)
                .with_budget(1.0, 1e-310),
        );
    }

    #[test]
    fn an_epsilon_whose_level_variance_underflows_is_refused_at_registration() {
        // At 1e300 every level's ε_d² overflows to ∞, so its GLS variance
        // 2/ε_d² is 0, a weight the tables cannot hold; building the
        // pipeline would panic inside `register`.
        assert_config_refused_cleanly(
            config("bad", 1024)
                .with_strategy(ReleaseStrategy::Budgeted {
                    branching: 2,
                    split: BudgetSplit::Uniform,
                })
                .with_budget(1.0, 1e300),
        );
    }

    #[test]
    fn unusable_geometric_ratios_are_refused_at_registration() {
        for ratio in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -2.0] {
            let split = BudgetSplit::Geometric { ratio };
            assert_refused_cleanly(
                ReleaseStrategy::Budgeted {
                    branching: 2,
                    split,
                },
                64,
            );
        }
    }

    #[test]
    fn custom_weights_must_fit_the_tree_at_registration() {
        // 64 bins at k = 2 is a height-7 tree.
        for weights in [vec![1.0; 6], vec![1.0; 8], vec![], {
            let mut w = vec![1.0; 7];
            w[3] = -1.0;
            w
        }] {
            let split = BudgetSplit::Custom(weights);
            assert_refused_cleanly(
                ReleaseStrategy::Budgeted {
                    branching: 2,
                    split,
                },
                64,
            );
        }
        let fits = BudgetSplit::Custom(vec![1.0; 7]);
        let mut service = HistogramService::new();
        let id = service
            .register(config("t", 64).with_strategy(ReleaseStrategy::Budgeted {
                branching: 2,
                split: fits,
            }))
            .unwrap();
        assert_eq!(service.publish(id).unwrap().epoch, 1);
    }

    #[test]
    fn an_overflowing_geometric_ratio_is_refused_at_registration() {
        // 2^24 bins is a height-25 binary tree: 1e13^24 overflows to ∞, so
        // the deepest level's ε is NaN and every other level's is 0. The
        // check runs before any per-bin allocation.
        let split = BudgetSplit::Geometric { ratio: 1e13 };
        assert_refused_cleanly(
            ReleaseStrategy::Budgeted {
                branching: 2,
                split,
            },
            1 << 24,
        );
        // The same ratio on a short tree is a legitimate (if lopsided) split.
        let mut service = HistogramService::new();
        let split = BudgetSplit::Geometric { ratio: 1e13 };
        let id = service
            .register(config("t", 4).with_strategy(ReleaseStrategy::Budgeted {
                branching: 2,
                split,
            }))
            .unwrap();
        assert_eq!(service.publish(id).unwrap().epoch, 1);
    }

    #[test]
    fn accuracy_and_explicit_strategy_conflict_at_registration() {
        let mut service = HistogramService::new();
        let err = service
            .register(
                TenantConfig::new("both", 64)
                    .with_strategy(ReleaseStrategy::Flat)
                    .with_accuracy(AccuracyTarget::new(0.05, 50.0)),
            )
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::ConflictingStrategy {
                name: "both".into()
            }
        );
    }

    #[test]
    fn accuracy_workload_must_match_the_tenant_domain() {
        use hc_data::RangeWorkload;
        let mut service = HistogramService::new();
        let err = service
            .register(TenantConfig::new("mismatch", 64).with_accuracy(
                AccuracyTarget::new(0.05, 50.0).with_workload(vec![RangeWorkload::new(128, 4)]),
            ))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::AccuracyDomainMismatch {
                workload_domain: 128,
                tenant_domain: 64
            }
        );
    }

    #[test]
    fn pure_epsilon_tenants_refuse_delta_debits() {
        let mut service = HistogramService::new();
        let id = service.register(config("t", 8)).unwrap();
        // ε-only debits are fine out of band…
        service.debit(id, "side-channel", 0.1, 0.0).unwrap();
        // …but a positive δ needs an allowance no pure-ε tenant has.
        let err = service.debit(id, "stability", 0.1, 1e-9).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Budget(BudgetError::DeltaExhausted { .. })
        ));
    }

    #[test]
    fn a_poisoned_tenant_refuses_writes_and_keeps_serving() {
        let mut service = HistogramService::new();
        let id = service.register(config("t", 16)).unwrap();
        let other = service.register(config("other", 16)).unwrap();
        service.ingest(id, &[(2, 7), (9, 3)]).unwrap();
        let report = service.publish(id).unwrap();
        let q = RangeQuery::new(1, 12);
        let served = service.answer(id, q).unwrap();
        let ledger = service.ledger(id).unwrap();
        let remaining = service.remaining_budget(id).unwrap();

        // A fault while the write lock is held poisons it.
        std::thread::scope(|scope| {
            let tenant = &service.tenants[id.0];
            let faulted = scope
                .spawn(move || {
                    let _state = tenant.write.lock().unwrap();
                    panic!("injected fault under the tenant lock");
                })
                .join();
            assert!(faulted.is_err());
        });

        let poisoned = ServeError::TenantPoisoned { tenant: id.0 };
        assert_eq!(service.ingest(id, &[(0, 1)]), Err(poisoned.clone()));
        assert_eq!(service.publish(id), Err(poisoned.clone()));
        assert_eq!(service.debit(id, "late", 0.1, 0.0), Err(poisoned.clone()));
        assert!(poisoned.to_string().contains("refuses writes"));
        // Read-only views read through the poison, unchanged.
        assert_eq!(service.ledger(id).unwrap(), ledger);
        assert_eq!(service.remaining_budget(id).unwrap(), remaining);
        // Serving never takes the write lock: the last epoch keeps answering.
        assert_eq!(service.epoch(id).unwrap(), report.epoch);
        assert_eq!(service.snapshot(id).unwrap().epoch(), report.epoch);
        assert_eq!(service.answer(id, q).unwrap().to_bits(), served.to_bits());
        let mut out = Vec::new();
        assert_eq!(service.answer_into(id, &[q], &mut out), Ok(report.epoch));
        assert_eq!(out[0].to_bits(), served.to_bits());
        assert!(service.confidence(id, q, 0.9).unwrap().is_some());
        // Other tenants are untouched.
        service.ingest(other, &[(1, 1)]).unwrap();
        assert_eq!(service.publish(other).unwrap().epoch, 1);
    }
}
