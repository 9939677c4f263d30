//! Data substrate: domains, relations, histograms, graphs, and the synthetic
//! dataset generators used by the experiments.
//!
//! The paper evaluates on three private datasets (NetTrace, Social Network,
//! Search Logs) that cannot be redistributed. This crate builds *synthetic
//! substitutes* that match the published, behaviour-relevant structure of
//! each (see `DESIGN.md` §3 for the substitution argument):
//!
//! * [`generators::NetTrace`] — per-host connection counts of a bipartite
//!   gateway trace (sparse, heavy-tailed, ≈65K hosts).
//! * [`generators::SocialNetwork`] — the degree sequence of an ≈11K-node
//!   preferential-attachment friendship graph.
//! * [`generators::SearchLogs`] — a 2¹⁵-bin time series of query-term
//!   frequencies with periodicity and news bursts, plus a Zipf
//!   rank-frequency variant for the unattributed task.
//!
//! The substrate is real database machinery, not hard-coded vectors: a
//! [`Relation`] is a multiset of records over an ordered [`Domain`];
//! histograms are derived by counting, and the graph generator materializes
//! an actual edge list before extracting degrees.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

mod domain;
pub mod generators;
mod graph;
mod histogram;
pub mod io;
mod query;
mod relation;
mod workload;

pub use domain::{Domain, Interval};
pub use graph::Graph;
pub use histogram::Histogram;
pub use query::RangeQuery;
pub use relation::Relation;
pub use workload::{dyadic_sizes, RangeWorkload};

/// Errors produced by data-layer constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// An interval's bounds were reversed or out of the domain.
    InvalidInterval {
        /// Lower index requested.
        lo: usize,
        /// Upper index requested.
        hi: usize,
        /// Domain size.
        domain: usize,
    },
    /// A record referenced a value outside the domain.
    ValueOutOfDomain {
        /// The offending value.
        value: usize,
        /// Domain size.
        domain: usize,
    },
    /// An empty domain was requested.
    EmptyDomain,
}

impl core::fmt::Display for DataError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DataError::InvalidInterval { lo, hi, domain } => {
                write!(
                    f,
                    "invalid interval [{lo}, {hi}] for domain of size {domain}"
                )
            }
            DataError::ValueOutOfDomain { value, domain } => {
                write!(f, "value {value} outside domain of size {domain}")
            }
            DataError::EmptyDomain => write!(f, "domain must be non-empty"),
        }
    }
}

impl std::error::Error for DataError {}
