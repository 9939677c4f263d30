//! A long-lived, multi-tenant serving layer over the paper's release +
//! constrained-inference pipeline.
//!
//! The rest of the workspace is batch-shaped: build a histogram, release it
//! once, infer, measure. This crate adds the service shape a deployment
//! needs — data arriving continuously, many tenants with separate privacy
//! accounts, and readers that must never block on a refresh:
//!
//! * [`SnapshotCell`] — the epoch-based snapshot swap. Readers pin the
//!   current [`hc_core::ConsistentSnapshot`] wait-free; a writer rebuilds
//!   off-path and publishes atomically. Published answers are bit-identical
//!   to the serial pipeline at the same seeds.
//! * [`SnapshotShards`] — a bank of cells serving the same tenant, one per
//!   `effective_threads`-governed shard, so concurrent readers pin
//!   shard-local snapshots round-robin instead of contending on one cell.
//! * [`HistogramService`] / [`TenantConfig`] — per-tenant domain shape,
//!   [`hc_core::ReleaseStrategy`] (hand-picked, or planned at registration
//!   from an [`hc_core::AccuracyTarget`] via
//!   [`TenantConfig::with_accuracy`]) compiled once into an
//!   [`hc_core::StrategyPipeline`] — the same warm release dispatch the
//!   planner's `StrategyPlan::run_with` uses — and a
//!   [`hc_mech::PrivacyAccountant`] debited once per release under
//!   sequential composition, with typed [`hc_mech::LedgerEntry`] audit rows.
//! * [`RangeQuery`] — the half-open wire query, re-exported from `hc-data`;
//!   unlike the core's structurally non-empty `Interval`, empty client
//!   requests are representable and answered exactly.
//!
//! # Range-vocabulary convention
//!
//! The service speaks only half-open [`RangeQuery`] bounds and lowers none
//! of them: a read validates the batch once against the tenant's domain,
//! pins one snapshot, and hands the queries to
//! [`ConsistentSnapshot::answer_into`](hc_core::ConsistentSnapshot::answer_into)
//! (or `answer`/`confidence`), hc-core's one prefix kernel. Inclusive ↔
//! half-open conversions go through `hc-data`'s one audited path,
//! `Interval::half_open` and `Interval::to_half_open`.
//!
//! The load-test binary (`crates/bench/src/bin/serve_load.rs`) drives this
//! crate open-loop and feeds its latency envelope into the CI benchmark
//! gate; its `--verify` mode and the `hc_threads` subprocess test pin
//! serving determinism across `HC_THREADS` ∈ {1, 2, 4}.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod cell;
pub mod service;

pub use cell::{PinnedSnapshot, SnapshotCell, SnapshotShards};
pub use hc_data::RangeQuery;
pub use service::{HistogramService, PublishReport, ServeError, TenantConfig, TenantId};
