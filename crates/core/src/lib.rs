//! # mpcbf-core
//!
//! The filters from *"A Multi-Partitioning Approach to Building Fast and
//! Accurate Counting Bloom Filters"* (Huang et al., IEEE IPDPS 2013), plus
//! the baselines they are evaluated against:
//!
//! | Type | Paper section | Role |
//! |---|---|---|
//! | [`BloomFilter`] | §II.A \[1\] | insert-only baseline |
//! | [`BfG`] (BF-1/BF-g) | §II.B \[11\] | one-access Bloom filter, the inspiration |
//! | [`Cbf`] | §II.A \[3\] | standard Counting Bloom Filter, primary baseline |
//! | [`Pcbf`] (PCBF-1/g) | §III.A | partitioning without the hierarchy |
//! | [`HcbfWord`] | §III.B.1/3 | the in-word hierarchical counter codec |
//! | [`Mpcbf`] (MPCBF-1/g) | §III.B.2, §III.C | **the contribution** |
//!
//! All filters implement [`Filter`] (and the counting ones
//! [`CountingFilter`]), expose metered `_cost` operations reporting the
//! paper's processing-overhead metrics (distinct-word memory accesses and
//! hash-bit access bandwidth, with query short-circuiting), and share the
//! hash substrate of [`mpcbf_hash`].
//!
//! ```
//! use mpcbf_core::prelude::*;
//!
//! let config = MpcbfConfig::builder()
//!     .memory_bits(1_000_000)
//!     .expected_items(10_000)
//!     .hashes(3)
//!     .build()
//!     .unwrap();
//! let mut filter = Mpcbf1::new(config);
//! filter.insert(&"alice").unwrap();
//! assert!(filter.contains(&"alice"));
//! filter.remove(&"alice").unwrap();
//! assert!(!filter.contains(&"alice"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bf1;
pub mod bloom;
pub mod bulk;
pub mod cbf;
pub mod codec;
pub mod config;
pub mod elastic;
pub mod error;
pub mod hcbf;
pub mod metrics;
pub mod mpcbf;
pub mod pcbf;
pub mod plan;
pub mod policy;
pub mod resilient;
pub mod scrub;
pub mod traits;
pub mod window;

pub use codec::CodecError;

pub use bf1::BfG;
pub use bloom::BloomFilter;
pub use bulk::{BulkBuilder, BulkStage, BulkStats, RegionJob, ResilientBulkBuilder};
pub use cbf::Cbf;
pub use config::{MpcbfConfig, MpcbfConfigBuilder};
pub use elastic::{ElasticMpcbf, GenerationInfo, ScaleSpec};
pub use error::{ConfigError, FilterError};
pub use hcbf::{HcbfWord, WordError};
pub use metrics::{AccessStats, HealthReport, NoopSink, OpCost, OpKind, OpSink, OpTally};
pub use mpcbf::{Mpcbf, Mpcbf1};
pub use pcbf::Pcbf;
pub use plan::{PlanBuffer, ProbePlan, SMALL_BATCH};
pub use policy::CapacityPolicy;
pub use resilient::{ResilientMpcbf, ResilientSeal};
pub use scrub::{FilterSeal, ScrubReport, SEGMENT_WORDS};
pub use traits::{CountingFilter, Filter};
pub use window::SlidingWindowMpcbf;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use crate::bf1::BfG;
    pub use crate::bloom::BloomFilter;
    pub use crate::bulk::{BulkBuilder, BulkStats, ResilientBulkBuilder};
    pub use crate::cbf::Cbf;
    pub use crate::config::MpcbfConfig;
    pub use crate::elastic::{ElasticMpcbf, GenerationInfo, ScaleSpec};
    pub use crate::error::{ConfigError, FilterError};
    pub use crate::metrics::{AccessStats, HealthReport, NoopSink, OpCost, OpKind, OpSink};
    pub use crate::mpcbf::{Mpcbf, Mpcbf1};
    pub use crate::pcbf::Pcbf;
    pub use crate::plan::{PlanBuffer, ProbePlan};
    pub use crate::policy::CapacityPolicy;
    pub use crate::resilient::{ResilientMpcbf, ResilientSeal};
    pub use crate::scrub::{FilterSeal, ScrubReport};
    pub use crate::traits::{CountingFilter, Filter};
    pub use crate::window::SlidingWindowMpcbf;
}
