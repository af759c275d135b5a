//! # preexec-campaign
//!
//! The campaign substrate: everything a long-running, restartable,
//! shardable experiment campaign needs that is *not* about simulating
//! anything. Three pieces, each independent of the simulator
//! and the experiment engine (the `preexec-harness::campaign` module
//! wires them to the engine):
//!
//! - [`store`] — a persistent content-addressed key → JSON store: the
//!   on-disk extension of the engine's in-memory memo layers. Writes are
//!   atomic (temp file + rename), reads are corruption-tolerant (a bad
//!   entry is a miss, never a crash), and hit/miss/evict counters feed
//!   the engine's `--metrics` output.
//! - [`journal`] — an append-only JSONL completion log keyed by a spec
//!   id, making sweeps resumable after a kill: completed cells replay
//!   from the journal, pending cells recompute.
//! - [`pareto`] — non-dominated frontier extraction over (latency,
//!   energy) points plus a frontier-distance measure, used to trace the
//!   paper's W-continuum and verify that the four paper targets
//!   (L / P² / P / E) sit on the measured tradeoff curve.
//!
//! Sharding helpers ([`parse_shard`], [`owns_cell`]) partition a cell
//! grid across processes deterministically, so `--shard i/n` runs merge
//! to byte-identical output in any order. Static shards are the one way
//! to spread a sweep: a killed shard reruns against its journal, on any
//! machine that shares the store.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod journal;
pub mod pareto;
pub mod store;

pub use journal::Journal;
pub use pareto::{dominates, frontier, frontier_excess, winner};
pub use store::{content_hash, Store, StoreCounters};

/// Parses a `--shard i/n` spec: `i` is the 0-based shard index, `n` the
/// shard count. Returns `None` unless `0 <= i < n` and `n >= 1`.
pub fn parse_shard(s: &str) -> Option<(usize, usize)> {
    let (i, n) = s.split_once('/')?;
    let i: usize = i.trim().parse().ok()?;
    let n: usize = n.trim().parse().ok()?;
    if n >= 1 && i < n {
        Some((i, n))
    } else {
        None
    }
}

/// Whether cell `index` belongs to `shard` of `of` shards (round-robin
/// partitioning: deterministic, order-independent, and balanced even
/// when neighbouring cells share cached artifacts).
pub fn owns_cell(index: usize, shard: usize, of: usize) -> bool {
    index % of.max(1) == shard
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_specs_parse_and_validate() {
        assert_eq!(parse_shard("0/2"), Some((0, 2)));
        assert_eq!(parse_shard("3/4"), Some((3, 4)));
        assert_eq!(parse_shard(" 1 / 3 "), Some((1, 3)));
        assert_eq!(parse_shard("2/2"), None, "index must be < count");
        assert_eq!(parse_shard("0/0"), None);
        assert_eq!(parse_shard("1"), None);
        assert_eq!(parse_shard("a/b"), None);
    }

    #[test]
    fn shards_partition_every_cell_exactly_once() {
        for n in 1..=5 {
            for idx in 0..37 {
                let owners: Vec<usize> = (0..n).filter(|&s| owns_cell(idx, s, n)).collect();
                assert_eq!(owners.len(), 1, "cell {idx} with {n} shards");
            }
        }
    }
}
