//! Thread-safe MPCBF variants.
//!
//! The paper targets line-rate packet processing (IPDPS venue; §I motivates
//! parallel CBF banks on routers), and MPCBF's layout is unusually friendly
//! to concurrency: *all state an operation mutates lives inside the `g`
//! words it hashes to*, so synchronisation can be per-word instead of
//! per-filter. Two designs are provided:
//!
//! * [`sharded::ShardedMpcbf`] — the key space is partitioned into a
//!   power-of-two pool of *independent sub-filters*, each guarded by one
//!   [`parking_lot::Mutex`]. The shard index comes from digest bits
//!   disjoint from the probe bits (see `sharded`'s module docs), so every
//!   element lives entirely in one shard: a scalar operation takes exactly
//!   one lock and a batch operation takes each lock at most once.
//! * [`atomic::AtomicMpcbf`] — lock-free for 64-bit words: each word is an
//!   `AtomicU64` and every update is a single-word CAS loop around the
//!   [`HcbfWord`] codec (possible precisely because an HCBF word is a
//!   self-contained value type).
//!
//! Both expose the batch-first pipeline (`contains_batch` /
//! `insert_batch` / `remove_batch`, plus allocation-free `*_batch_bytes_with`
//! twins that reuse caller-held scratch): hash every key up front into a
//! [`PlanBuffer`](mpcbf_core::PlanBuffer), resolve the update kernel once
//! per batch, then probe or update — with per-key results in input order
//! and state bit-identical to the equivalent scalar loop.
//!
//! ## Consistency model
//!
//! Per-word updates are atomic; an element spanning `g > 1` words is
//! updated word-by-word, so a concurrent query can observe a *partially
//! inserted* element (and miss it) or a *partially deleted* one (and still
//! report it). Completed inserts are never missed, and the structure is
//! always a valid HCBF — the same relaxation hardware CBF banks accept.
//! Sharded batch updates hold the shard lock for the whole per-shard run,
//! so within one shard a batch is observed atomically.
//!
//! ## Instrumentation: always-on lock counters
//!
//! [`ShardedMpcbf`] counts, per shard, the lock acquisitions its
//! operations make and how many of them were contended (a failed
//! `try_lock` before blocking), readable via `lock_stats()` /
//! `shard_lock_stats()`. The counters are plain integers inside the
//! mutex-guarded shard state, bumped once per lock taken: no atomic, no
//! extra cache line, no clock read, and no build feature — the former
//! `stats` feature and its per-operation access ledgers are gone. Access
//! cost per operation follows from the same [`ProbePlan`] walks the
//! sequential filters meter (`tests/metering.rs`). [`AtomicMpcbf`] keeps
//! no counters: any shared tally would put a globally shared write on its
//! lock-free path.
//!
//! [`ProbePlan`]: mpcbf_core::ProbePlan
//! [`HcbfWord`]: mpcbf_core::HcbfWord

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod bulk;
pub mod elastic;
pub mod sharded;

pub use atomic::AtomicMpcbf;
pub use bulk::{build_parallel, build_resilient_parallel, default_threads, ShardedBulkBuilder};
pub use elastic::{ElasticShardedMpcbf, ElasticStats};
pub use sharded::{LockStats, ShardBatch, ShardedMpcbf};
