//! Seeded inputs: the dataset, its insertion order and the op streams.
//!
//! Everything the engine sees is generated here from `--seed`, before any
//! timed region starts. The same seed gives byte-identical inputs.

use lsm_tree::WriteBatch;
use lsm_workloads::{value_for_key, Dataset, RequestDistribution, KEY_LEN};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Value payload width (bytes) of every entry.
pub const VALUE_LEN: usize = 100;
/// Entries per `WriteBatch` on the batched write paths.
pub const BATCH: usize = 32;
/// Bytes of user data one entry carries (24-byte key slot + value).
pub const USER_BYTES_PER_ENTRY: u64 = (KEY_LEN + VALUE_LEN) as u64;
/// YCSB's default skew.
pub const ZIPF_THETA: f64 = 0.99;

/// The loaded key set and the order it is inserted in.
pub struct Data {
    /// Distinct keys, sorted (`books`: lognormal body, long right tail).
    pub keys: Vec<u64>,
    /// A seeded permutation of `0..keys.len()`: the insertion order, and the
    /// map from zipfian rank to key position (so hot keys are scattered
    /// over the key space instead of clustered at its low end).
    pub order: Vec<u32>,
}

impl Data {
    pub fn generate(n: usize, seed: u64) -> Data {
        let keys = Dataset::Books.generate(n, seed);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x6f_7264_6572));
        Data { keys, order }
    }

    /// The whole dataset as `BATCH`-entry batches, in insertion order.
    pub fn batches(&self) -> Vec<WriteBatch> {
        self.order
            .chunks(BATCH)
            .map(|chunk| {
                let mut b = WriteBatch::with_capacity(chunk.len());
                for &pos in chunk {
                    let key = self.keys[pos as usize];
                    b.put(key, &value_for_key(key, VALUE_LEN));
                }
                b
            })
            .collect()
    }

    pub fn user_bytes(&self) -> u64 {
        self.keys.len() as u64 * USER_BYTES_PER_ENTRY
    }
}

/// `len` key positions drawn from `dist` over the dataset.
pub fn stream(data: &Data, dist: RequestDistribution, len: usize, seed: u64) -> Vec<u32> {
    let chooser = dist.chooser(data.keys.len());
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let rank = chooser.next(&mut rng);
            match dist {
                RequestDistribution::Uniform => rank as u32,
                _ => data.order[rank],
            }
        })
        .collect()
}

/// FNV-1a over an op stream: two runs issued the same operations iff their
/// hashes agree.
pub fn stream_hash(stream: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in stream {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// One hash over everything a workload generated from its seed.
pub fn inputs_hash(streams: &[&[u32]]) -> u64 {
    streams
        .iter()
        .fold(0, |h, s| h.rotate_left(21) ^ stream_hash(s))
}

pub fn zipfian() -> RequestDistribution {
    RequestDistribution::Zipfian { theta: ZIPF_THETA }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(seed: u64) -> (u64, u64, u64) {
        let data = Data::generate(2000, seed);
        (
            stream_hash(&data.order),
            stream_hash(&stream(&data, zipfian(), 5000, seed)),
            stream_hash(&stream(&data, RequestDistribution::Uniform, 5000, seed)),
        )
    }

    #[test]
    fn same_seed_same_streams_different_seed_different() {
        assert_eq!(hashes(42), hashes(42));
        let (a, b) = (hashes(42), hashes(43));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
    }

    #[test]
    fn batches_cover_the_dataset_once_in_insertion_order() {
        let data = Data::generate(100, 7);
        let batches = data.batches();
        assert_eq!(batches.len(), 100usize.div_ceil(BATCH));
        let written: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.ops().iter().map(|op| op.key))
            .collect();
        let expected: Vec<u64> = data.order.iter().map(|&p| data.keys[p as usize]).collect();
        assert_eq!(written, expected);
    }
}
