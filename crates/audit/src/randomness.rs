//! Every seed rule of the crate. The cluster's randomness has three:
//! the exclusive stream, a shared query's seed and a standing
//! evaluation's seed. A federation has three more: each sub-ring's
//! configured seed and the two seeds of the root ring.
//!
//! Incarnation `n` of a cluster — its life after the `n`-th restart
//! that `cluster.journal` records — draws from a stream of its own,
//! derived from the configured seed and `n`, so a restart never repeats
//! a draw of an earlier life. Incarnation 0's stream is the configured
//! seed's.

use crate::standing::StandingQueryId;
use dla_logstore::epoch::EpochId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// One owner of every draw [`crate::cluster::DlaCluster`] makes.
pub(crate) struct Randomness {
    seed: u64,
    /// The incarnation's stream seed.
    stream: u64,
    rng: StdRng,
    shared_queries: AtomicU64,
}

impl Randomness {
    /// Incarnation `n` of `seed`.
    pub(crate) fn new(seed: u64, n: u64) -> Self {
        let parts = [
            b"dla-incarnation-seed",
            &seed.to_be_bytes()[..],
            &n.to_be_bytes(),
        ];
        let stream = if n == 0 { seed } else { digest_u64(&parts) };
        let (rng, shared_queries) = (StdRng::seed_from_u64(stream), AtomicU64::new(0));
        Randomness {
            seed,
            stream,
            rng,
            shared_queries,
        }
    }

    /// The configured seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The exclusive stream.
    pub(crate) fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// The next shared query's seed, drawn from the stream by a counter.
    pub(crate) fn shared_query_seed(&self) -> u64 {
        let drawn = self.shared_queries.fetch_add(1, Ordering::Relaxed);
        self.stream ^ rand::splitmix64(&mut drawn.wrapping_add(0xA5A5_5A5A))
    }

    /// The seed of standing query `id`'s evaluation over `epoch`: on the
    /// configured seed, so a re-evaluation replays its transcript.
    pub(crate) fn standing_seed(&self, id: StandingQueryId, epoch: EpochId) -> u64 {
        let (id, epoch) = (id.0.to_be_bytes(), epoch.0.to_be_bytes());
        digest_u64(&[b"dla-standing-seed", &self.seed.to_be_bytes(), &id, &epoch])
    }
}

/// The configured seed of sub-ring `ring` of a federation seeded `seed`.
pub(crate) fn ring_seed(seed: u64, ring: usize) -> u64 {
    rand::splitmix64(&mut (seed ^ (ring as u64 + 1)))
}

/// The seed of the root ring's network in a federation seeded `seed`.
pub(crate) fn root_net_seed(seed: u64) -> u64 {
    rand::splitmix64(&mut (seed ^ 0xfed0_0001))
}

/// The seed of the root ring's secure-sum stream in a federation
/// seeded `seed`.
pub(crate) fn root_rng_seed(seed: u64) -> u64 {
    root_net_seed(seed) ^ 0x5eed
}

/// The first 8 bytes of the SHA-256 digest of `parts`, big-endian.
pub(crate) fn digest_u64(parts: &[&[u8]]) -> u64 {
    let digest = dla_crypto::sha256::digest_parts(parts);
    u64::from_be_bytes(digest[..8].try_into().expect("a digest is 32 bytes"))
}
