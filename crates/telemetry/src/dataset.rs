//! The study's sampled datasets, frozen.
//!
//! The simulation driver produces every request the platform would see;
//! the paper (and we) can only afford to *keep* deterministic samples.
//! The shard sinks ([`crate::sink::ShardSink`]) route the stream through
//! the [`Samplers`] and the freeze assembles what they kept into a
//! [`FrozenDatasets`]:
//!
//! - the **request** random sample (Fig 1's request series),
//! - the **user** random sample (all requests of sampled users — the
//!   workhorse dataset for §4–§5 and the outlier extrapolations),
//! - the **IP** random sample (all requests from sampled addresses, §6.1),
//! - the **IPv6 prefix** random samples at the study's configured
//!   lengths (§6.2), each an independent per-length sample.

use std::collections::HashMap;

use crate::sampler::Samplers;
use crate::store::FrozenStore;

/// The four dataset families of §3.1, frozen: every store is an
/// immutable, pre-sorted [`FrozenStore`] shareable across analysis
/// threads.
#[derive(Debug)]
pub struct FrozenDatasets {
    /// Sampler configuration the datasets were routed with.
    pub samplers: Samplers,
    /// Random sample of all requests.
    pub request_sample: FrozenStore,
    /// All requests from a random sample of users.
    pub user_sample: FrozenStore,
    /// All requests from a random sample of addresses.
    pub ip_sample: FrozenStore,
    /// All requests from random samples of IPv6 prefixes, per length.
    pub prefix_samples: HashMap<u8, FrozenStore>,
    /// Total records offered (the "platform volume" before sampling).
    pub offered: u64,
}

impl FrozenDatasets {
    /// The prefix sample for a given length.
    ///
    /// # Panics
    /// Panics when that length was not collected.
    pub fn prefix_sample(&self, len: u8) -> &FrozenStore {
        self.prefix_samples
            .get(&len)
            .unwrap_or_else(|| panic!("prefix length /{len} was not collected"))
    }

    /// Total records retained across all datasets (diagnostic).
    pub fn retained(&self) -> u64 {
        let base = self.request_sample.len() + self.user_sample.len() + self.ip_sample.len();
        let prefixes: usize = self.prefix_samples.values().map(|s| s.len()).sum();
        (base + prefixes) as u64
    }

    /// Heap bytes held by all stores' columns (intern tables excluded —
    /// they are shared and accounted once by the caller).
    pub fn bytes(&self) -> usize {
        self.request_sample.bytes()
            + self.user_sample.bytes()
            + self.ip_sample.bytes()
            + self
                .prefix_samples
                .values()
                .map(|s| s.bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "was not collected")]
    fn missing_prefix_length_panics() {
        let d = FrozenDatasets {
            samplers: Samplers::paper(),
            request_sample: FrozenStore::default(),
            user_sample: FrozenStore::default(),
            ip_sample: FrozenStore::default(),
            prefix_samples: HashMap::from([(64, FrozenStore::default())]),
            offered: 0,
        };
        assert_eq!(d.retained(), 0);
        assert_eq!(d.bytes(), 0);
        let _ = d.prefix_sample(56);
    }
}
