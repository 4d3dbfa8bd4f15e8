//! # mpcbf-durability
//!
//! Write-ahead log, snapshots, and crash recovery for the MPCBF filter
//! family. A process restart — clean or violent — must never silently
//! lose counter state or introduce false negatives; this crate supplies
//! the WAL + snapshot + replay discipline that guarantees it:
//!
//! * [`record`] — CRC-framed WAL records `{seq, op-kind, key-digest,
//!   payload, crc32}`; batches are one all-or-nothing frame.
//! * [`wal`] — segmented log with [`FsyncPolicy`] (`Always` / `EveryN` /
//!   `Interval`) and a repairing recovery scan that truncates torn
//!   tails at the first bad CRC.
//! * [`snapshot`] — full filter images through the codec encode path,
//!   published atomically via rename.
//! * [`DurableFilter`] — log→apply→ack wrapper over any
//!   [`DurableImage`]-capable counting filter ([`mpcbf_core::Mpcbf`],
//!   [`mpcbf_core::Cbf`], [`mpcbf_core::ResilientMpcbf`]).
//! * [`DurableSharded`] — one WAL per shard ([`ShardLog`]), recovery in
//!   parallel, over any [`ShardedPool`]: the fixed-size pool
//!   ([`DurableShardedMpcbf`]) or the elastic one
//!   ([`DurableElasticSharded`]), whose scale-ups are logged too.
//! * [`kill`] — seeded in-process crash injection for the drill matrix
//!   (crash mid-append, mid-fsync, mid-snapshot-rename, …).
//!
//! ```
//! use mpcbf_core::{Mpcbf, MpcbfConfig};
//! use mpcbf_durability::{DurabilityOptions, DurableFilter};
//!
//! let dir = std::env::temp_dir().join(format!("mpcbf-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let config = MpcbfConfig::builder()
//!     .memory_bits(100_000)
//!     .expected_items(1_000)
//!     .hashes(3)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let filter: Mpcbf = Mpcbf::new(config.clone());
//!
//! // Log-then-apply: every acknowledged op is on disk first.
//! let mut durable = DurableFilter::create(filter, DurabilityOptions::new(&dir)).unwrap();
//! durable.insert_bytes(b"alice").unwrap();
//! durable.snapshot().unwrap();
//! durable.insert_bytes(b"bob").unwrap();
//! drop(durable); // simulated crash
//!
//! // Recovery: snapshot + WAL replay, scrub-verified.
//! let (recovered, report) = DurableFilter::open_or_recover(
//!     DurabilityOptions::new(&dir),
//!     || -> Mpcbf { Mpcbf::new(config.clone()) },
//! )
//! .unwrap();
//! assert!(recovered.contains_bytes(b"alice"));
//! assert!(recovered.contains_bytes(b"bob"));
//! assert!(report.scrub_clean);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod durable;
pub mod kill;
pub mod pool;
pub mod record;
pub mod report;
pub mod sharded;
pub mod snapshot;
pub mod wal;

pub use durable::{DurabilityOptions, DurableFilter, DurableImage};
pub use error::DurableError;
pub use kill::{KillSite, KillSwitch};
pub use pool::ShardedPool;
pub use record::{decode_frame, encode_frame, FrameError, WalOp, WalRecord};
pub use report::RecoveryReport;
pub use sharded::{
    decode_envelope, encode_envelope, group_by_shard, DurableElasticSharded, DurableSharded,
    DurableShardedMpcbf, ShardLog,
};
pub use snapshot::SnapshotStore;
pub use wal::{FsyncPolicy, TornTail, Wal, WalScan};
