//! The benchmark's workloads. The runners receive only a [`Spec`] and
//! the inputs generated from the seed; they never see a workload's name.

use crate::keys::Ring;
use mpcbf_core::MpcbfConfig;

/// What a runner builds and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Filter memory `M` in bits.
    pub memory_bits: u64,
    /// Design load `n` the filter is sized for.
    pub n: u64,
    /// Keys resident while the op stream runs.
    pub live: u64,
    /// Hash functions `k` (MPCBF-1: one word per op).
    pub hashes: u32,
    /// Threads (library) or connections (served) driving the stream.
    pub threads: usize,
    /// Shards of a `ShardedMpcbf` or of the served pool.
    pub shards: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Spec {
    /// Filter size in bytes.
    pub fn filter_bytes(&self) -> u64 {
        self.memory_bits / 8
    }

    /// The filter configuration: MPCBF-1 with 64-bit words and the
    /// library's default hash seed.
    pub fn config(&self) -> MpcbfConfig {
        MpcbfConfig::builder()
            .memory_bits(self.memory_bits)
            .expected_items(self.n)
            .hashes(self.hashes)
            .build()
            .expect("workload geometry is a valid MPCBF configuration")
    }

    /// One resident window per thread over its own part of the key
    /// universe; together they hold `live` keys.
    pub fn rings(&self) -> Vec<Ring> {
        let per = self.live / self.threads as u64;
        (0..self.threads as u64)
            .map(|t| Ring::new(t * 2 * per, 2 * per, per))
            .collect()
    }

    /// The geometry line of the report header.
    pub fn describe(&self, filter: &str) -> String {
        let shape = self.config().shape();
        format!(
            "{filter} M={} bits ({} bytes) n={} live={} k={} g={} w={} l={} n_max={} b1={} \
             threads={} shards={}",
            self.memory_bits,
            self.filter_bytes(),
            self.n,
            self.live,
            shape.k,
            shape.g,
            shape.w,
            shape.l,
            shape.n_max,
            shape.b1,
            self.threads,
            self.shards
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table2Cache,
    DramSharded,
    ServedDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Table2Cache,
        Workload::DramSharded,
        Workload::ServedDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Cache => "table2-cache",
            Workload::DramSharded => "dram-sharded",
            Workload::ServedDurable => "served-durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size spec on a host with `nproc` hardware threads.
    pub fn spec(self, nproc: usize) -> Spec {
        match self {
            // Why: the paper's Table II shape (M = 8 Mb, n = 100K, k = 3,
            // MPCBF-1, 64-bit words, the paper's synthetic 5-byte keys): a
            // 1 MB filter that stays in L2, so memory is cheap and hash,
            // probe plan and the HCBF word walk do almost all the work.
            // One thread drives `Mpcbf` through its batch-64
            // `*_batch_with` calls; bulk and concurrent code never run,
            // WAL and server code only in the traced run's served ladder.
            Workload::Table2Cache => Spec {
                memory_bits: 8_000_000,
                n: 100_000,
                live: 100_000,
                hashes: 3,
                threads: 1,
                shards: 0,
                setups: 15,
            },
            // Why: the same 80 bits per key and k = 3 at M = 2^32 bits, a
            // 512 MiB filter far larger than the last-level cache, so
            // each op misses the cache and memory wait and shard locking
            // dominate while hashing is a small share. A 16-shard
            // `ShardedMpcbf` is preloaded with 16-byte `BulkKeys` by
            // `ShardedBulkBuilder::finish_parallel(nproc)` (which
            // does nearly all of `setup_s` here and none of it elsewhere)
            // and `nproc` threads drive it through `ShardBatch` batch-64
            // calls. WAL and server code do not run.
            Workload::DramSharded => Spec {
                memory_bits: 1 << 32,
                n: (1u64 << 32) / 80,
                live: (1u64 << 32) / 80,
                hashes: 3,
                threads: nproc,
                shards: 16,
                setups: 3,
            },
            // Why: an in-process server on loopback with the fixed pool,
            // one shard per core and fsync `always` (an ack means the op
            // is durable), holding the Table II filter at n/2 with
            // synthetic 5-byte keys. Not in `BENCHMARK.json` (see
            // `runs_served_ladder`), but runnable by name. `nproc`
            // closed-loop clients each send single-key requests, as
            // callers that wait for each reply do. Socket round trip,
            // queue hop, WAL append and fsync do nearly all the work and
            // filter code about 1% of it; queries skip the WAL worker and
            // updates go through it. Bulk build does not run.
            Workload::ServedDurable => Spec {
                memory_bits: 8_000_000,
                n: 100_000,
                live: 50_000,
                hashes: 3,
                threads: nproc,
                shards: nproc,
                setups: 3,
            },
        }
    }

    /// The served layers (server round trip, WAL append and fsync) are
    /// measured on their own in this workload's traced run, because
    /// `served-durable` is not in `BENCHMARK.json`: its fsync-bound
    /// latency tails spread beyond any allowed bound on a shared disk.
    /// The untraced run never starts a server.
    pub fn runs_served_ladder(self) -> bool {
        self == Workload::Table2Cache
    }

    /// A tiny copy of the spec for smoke tests: same code paths and
    /// checks, a thousandth of the work.
    #[cfg(test)]
    pub fn tiny(self) -> Spec {
        let full = self.spec(2);
        match self {
            Workload::Table2Cache | Workload::ServedDurable => Spec {
                memory_bits: 160_000,
                n: 2_000,
                live: full.live / 50,
                setups: 2,
                ..full
            },
            Workload::DramSharded => Spec {
                memory_bits: 1 << 22,
                n: (1 << 22) / 80,
                live: (1 << 22) / 80,
                setups: 2,
                ..full
            },
        }
    }
}
