//! Content-key sharding: rendezvous (highest-random-weight) hashing of
//! cache keys across a fleet of `ss-server` shards.
//!
//! The paper's artifacts are pure functions of `(cube text, knobs)`,
//! so a fleet can partition the key space by content: every key has
//! exactly one *owner* shard, the owner's LRU + coalescing guarantee
//! the cold computation runs once cluster-wide, and the fleet's
//! aggregate cache capacity grows linearly with the shard count — the
//! horizontal counterpart of the single-node tiers.
//!
//! [`ShardRing`] is the deterministic placement function both sides
//! share: the client-side [`Balancer`](crate::client::Balancer) routes
//! each submission to `owner(key)`, and a sharded server checks the
//! same ring to answer misrouted submissions with
//! [`Response::Redirect`](crate::protocol::Response::Redirect).
//! Rendezvous hashing (score every `(shard, key)` pair, pick the
//! maximum) needs no virtual-node table and has the minimal-disruption
//! property this tier leans on for failover: removing one shard remaps
//! only the keys that shard owned, every other key keeps its owner —
//! so a dead shard never invalidates the rest of the fleet's caches.
//!
//! ```
//! use ss_server::shard::ShardRing;
//!
//! let ring = ShardRing::new(vec![
//!     "127.0.0.1:7211".into(),
//!     "127.0.0.1:7212".into(),
//!     "127.0.0.1:7213".into(),
//! ]).unwrap();
//! let key = 0x9E37_79B9_7F4A_7C15;
//! let owner = ring.owner(key);
//! // failover order: the owner first, then the runners-up
//! assert_eq!(ring.ranked(key)[0], owner);
//! ```

use std::fmt;

use crate::cache::Fnv64;

/// Errors constructing a shard ring or spec.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShardError {
    /// The peer list is empty.
    NoShards,
    /// A peer address is the empty string.
    EmptyAddr,
    /// The same address appears twice — ownership would be ambiguous.
    DuplicateAddr(String),
    /// `--shard-id` is not an index into the peer list.
    BadShardId {
        /// The out-of-range id.
        id: usize,
        /// How many peers the list holds.
        peers: usize,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "shard ring needs at least one peer"),
            ShardError::EmptyAddr => write!(f, "shard peer address is empty"),
            ShardError::DuplicateAddr(addr) => {
                write!(f, "shard peer {addr:?} listed twice")
            }
            ShardError::BadShardId { id, peers } => {
                write!(f, "shard id {id} out of range for {peers} peers")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// The deterministic key → shard placement function, shared verbatim
/// by the balancer and every sharded server (both sides must be built
/// from the *same address strings* — the ring hashes them as text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRing {
    shards: Vec<String>,
    epoch: u64,
}

impl ShardRing {
    /// Builds a ring over the given shard addresses.
    ///
    /// # Errors
    ///
    /// [`ShardError`] for an empty list, an empty address, or a
    /// duplicate address.
    pub fn new(shards: Vec<String>) -> Result<ShardRing, ShardError> {
        if shards.is_empty() {
            return Err(ShardError::NoShards);
        }
        for (i, addr) in shards.iter().enumerate() {
            if addr.is_empty() {
                return Err(ShardError::EmptyAddr);
            }
            if shards[..i].contains(addr) {
                return Err(ShardError::DuplicateAddr(addr.clone()));
            }
        }
        Ok(ShardRing { shards, epoch: 0 })
    }

    /// Stamps the ring with a membership epoch (epoch 0 is the
    /// pre-reconfiguration default). The epoch never enters the
    /// placement hash — two rings over the same addresses place keys
    /// identically at every epoch — it only orders membership views:
    /// a server or balancer replaces its ring exactly when it sees one
    /// with a strictly higher epoch.
    pub fn with_epoch(mut self, epoch: u64) -> ShardRing {
        self.epoch = epoch;
        self
    }

    /// The membership epoch this ring was stamped with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shard addresses, in declaration order (the order every
    /// index returned by this ring points into).
    pub fn shards(&self) -> &[String] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the ring is empty (never true for a constructed ring).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Rendezvous score of one `(shard, key)` pair: FNV-1a over the
    /// address text and the key, then a SplitMix64 finisher so near-by
    /// keys don't score near-by (FNV alone is too linear for
    /// highest-random-weight comparisons).
    fn score(addr: &str, key: u64) -> u64 {
        let mut h = Fnv64::new();
        h.write(b"ss-shard-v1");
        h.write(addr.as_bytes());
        h.write_u64(key);
        let mut z = h.finish();
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The owning shard of a cache key: the index whose score is
    /// highest (ties, vanishingly rare, break toward the lower index).
    pub fn owner(&self, key: u64) -> usize {
        self.ranked(key)[0]
    }

    /// All shard indices in rendezvous order — the owner first, then
    /// the failover sequence a balancer walks when shards are down.
    pub fn ranked(&self, key: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.shards.len()).collect();
        // stable sort + lower-index tiebreak: deterministic everywhere
        order.sort_by_key(|&i| std::cmp::Reverse(Self::score(&self.shards[i], key)));
        order
    }

    /// The addresses of a key's replica set: the first
    /// `min(factor, len)` shards in rendezvous order. Index 0 is the
    /// owner; the rest are where the owner pushes `Replicate` copies —
    /// and exactly where a balancer fails over to, which is why a
    /// shard death lands on a warm replica.
    pub fn replicas(&self, key: u64, factor: usize) -> Vec<String> {
        self.ranked(key)
            .into_iter()
            .take(factor.max(1))
            .map(|i| self.shards[i].clone())
            .collect()
    }
}

/// A sharded server's identity: the full peer list (every shard must
/// be configured with the *same* list, same order not required — the
/// ring hashes addresses, not positions) and this server's index into
/// it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardSpec {
    /// Advertised addresses of every shard in the fleet, including
    /// this one. These must be the exact strings clients balance over.
    pub peers: Vec<String>,
    /// This server's index into `peers`.
    pub id: usize,
    /// Membership epoch the initial ring is stamped with (0 unless the
    /// server is joining a fleet that has already been reconfigured).
    pub epoch: u64,
}

impl ShardSpec {
    /// Validates the spec and builds its ring.
    ///
    /// # Errors
    ///
    /// [`ShardError`] for ring problems or an out-of-range id.
    pub fn ring(&self) -> Result<ShardRing, ShardError> {
        if self.id >= self.peers.len() {
            return Err(ShardError::BadShardId {
                id: self.id,
                peers: self.peers.len(),
            });
        }
        Ok(ShardRing::new(self.peers.clone())?.with_epoch(self.epoch))
    }

    /// This server's advertised address.
    pub fn self_addr(&self) -> &str {
        &self.peers[self.id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> ShardRing {
        ShardRing::new((0..n).map(|i| format!("10.0.0.{i}:7113")).collect()).unwrap()
    }

    #[test]
    fn construction_rejects_degenerate_rings() {
        assert_eq!(ShardRing::new(vec![]), Err(ShardError::NoShards));
        assert_eq!(
            ShardRing::new(vec!["a:1".into(), String::new()]),
            Err(ShardError::EmptyAddr)
        );
        assert_eq!(
            ShardRing::new(vec!["a:1".into(), "b:1".into(), "a:1".into()]),
            Err(ShardError::DuplicateAddr("a:1".into()))
        );
        assert_eq!(
            ShardSpec {
                peers: vec!["a:1".into()],
                id: 1,
                epoch: 0
            }
            .ring(),
            Err(ShardError::BadShardId { id: 1, peers: 1 })
        );
    }

    #[test]
    fn ownership_is_deterministic_and_ranked_is_a_permutation() {
        let ring = ring(5);
        for key in 0..200u64 {
            let order = ring.ranked(key);
            assert_eq!(order[0], ring.owner(key));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..5).collect::<Vec<_>>(), "not a permutation");
            assert_eq!(order, ring.ranked(key), "unstable ranking");
        }
    }

    #[test]
    fn keys_spread_roughly_evenly() {
        let ring = ring(4);
        let mut counts = [0usize; 4];
        let keys = 4000u64;
        for key in 0..keys {
            // decorrelate the sequential test keys the way real cache
            // keys are decorrelated: they come out of FNV
            let mut h = Fnv64::new();
            h.write_u64(key);
            counts[ring.owner(h.finish())] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let share = c as f64 / keys as f64;
            assert!(
                (0.15..=0.35).contains(&share),
                "shard {i} owns {share:.3} of the key space"
            );
        }
    }

    #[test]
    fn epoch_orders_views_without_touching_placement() {
        let base = ring(4);
        let stamped = ring(4).with_epoch(7);
        assert_eq!(base.epoch(), 0);
        assert_eq!(stamped.epoch(), 7);
        for key in 0..200u64 {
            assert_eq!(base.ranked(key), stamped.ranked(key));
        }
        let spec = ShardSpec {
            peers: (0..3).map(|i| format!("10.0.0.{i}:7113")).collect(),
            id: 1,
            epoch: 9,
        };
        assert_eq!(spec.ring().unwrap().epoch(), 9);
    }

    #[test]
    fn replica_sets_lead_with_the_owner() {
        let ring = ring(4);
        for key in 0..200u64 {
            let mut h = Fnv64::new();
            h.write_u64(key);
            let key = h.finish();
            let replicas = ring.replicas(key, 2);
            assert_eq!(replicas.len(), 2);
            assert_eq!(replicas[0], ring.shards()[ring.owner(key)]);
            assert_ne!(replicas[0], replicas[1]);
            // a factor past the fleet size saturates, never panics;
            // factor 0 still names the owner
            assert_eq!(ring.replicas(key, 10).len(), 4);
            assert_eq!(ring.replicas(key, 0), replicas[..1]);
        }
    }

    #[test]
    fn removing_a_shard_only_remaps_its_own_keys() {
        // the minimal-disruption property failover relies on: with
        // shard 2 gone, every key shard 2 did not own keeps its owner,
        // and shard 2's keys land on their rank-1 shard
        let full = ring(4);
        let addrs: Vec<String> = full
            .shards()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, a)| a.clone())
            .collect();
        let reduced = ShardRing::new(addrs).unwrap();
        for key in 0..1000u64 {
            let mut h = Fnv64::new();
            h.write_u64(key ^ 0xABCD);
            let key = h.finish();
            let owner = full.owner(key);
            let after = &reduced.shards()[reduced.owner(key)];
            if owner != 2 {
                assert_eq!(after, &full.shards()[owner], "stable key remapped");
            } else {
                let runner_up = full.ranked(key)[1];
                assert_eq!(after, &full.shards()[runner_up], "failover target");
            }
        }
    }
}
