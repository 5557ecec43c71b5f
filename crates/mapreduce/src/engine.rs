//! The in-process parallel map the pipeline's stages run on.
//!
//! The paper's jobs are Map-Reduce jobs on a cluster; here every stage
//! is a [`MapReduce::par_map`] over in-memory records, and the grouping
//! a shuffle would do is done by the caller on the map's input-ordered
//! output — key-sharded by [`partition_of`] where a stage shards.
//! Workers are std scoped threads (`std::thread::scope`), so a map can
//! borrow its inputs without any `'static` bound or external runtime;
//! they pull small blocks off a shared cursor, so heavy-tailed inputs
//! balance, and the map runs on the calling thread when there is one
//! worker or at most one input.
//!
//! The engine is intentionally synchronous and in-memory: the paper's
//! scalability argument (blocking keeps `|E| ≪ N²`; near-linear scaling
//! in corpus size, Figure 9) is about how much work the jobs do, not
//! about cluster mechanics, so an in-process engine preserves the
//! measurable shape.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The parallel-map engine. Holds only the worker count; each map is a
/// self-contained call.
#[derive(Clone, Copy, Debug)]
pub struct MapReduce {
    workers: usize,
}

impl Default for MapReduce {
    fn default() -> Self {
        Self::new(default_workers())
    }
}

/// Number of workers used by [`MapReduce::default`]: available
/// parallelism, capped at 16 (every map spawns its workers afresh).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

impl MapReduce {
    /// Create an engine with an explicit worker count (min 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Parallel map over inputs, preserving input order.
    ///
    /// Workers pull blocks of `max(1, n / (workers · 16))` consecutive
    /// inputs off one shared cursor until it runs past the end, and the
    /// blocks are reassembled by start position — so a worker that
    /// draws cheap inputs simply draws more of them, whatever order the
    /// expensive ones arrive in. With one worker, or at most one input,
    /// `f` runs on the calling thread and no thread is spawned.
    pub fn par_map<I, O, F>(&self, inputs: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(&I) -> O + Sync,
    {
        let n = inputs.len();
        if self.workers == 1 || n <= 1 {
            return inputs.iter().map(f).collect();
        }
        let block = (n / (self.workers * 16)).max(1);
        // Relaxed: the cursor only hands out disjoint index ranges; the
        // inputs are shared before the spawn and every result returns
        // through `join`, so it publishes no other data.
        let cursor = AtomicUsize::new(0);
        let mut blocks: Vec<(usize, Vec<O>)> = thread::scope(|s| {
            let handles: Vec<_> = (0..self.workers.min(n))
                .map(|_| {
                    s.spawn(|| {
                        let mut done: Vec<(usize, Vec<O>)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(block, Ordering::Relaxed);
                            if start >= n {
                                break done;
                            }
                            let end = (start + block).min(n);
                            done.push((start, inputs[start..end].iter().map(&f).collect()));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("map worker panicked"))
                .collect()
        });
        blocks.sort_unstable_by_key(|&(start, _)| start);
        let mut out = Vec::with_capacity(n);
        for (_, block_out) in blocks {
            out.extend(block_out);
        }
        out
    }
}

/// Stable partitioning function (FNV-1a over the key's hash) so runs
/// are reproducible across processes: the sharded artifact builds
/// (value-space interning, blocking posting lists) all partition by
/// it, keeping the whole pipeline on one deterministic hash.
pub fn partition_of<K: Hash>(key: &K, partitions: usize) -> usize {
    let mut hasher = FnvHasher::default();
    key.hash(&mut hasher);
    (hasher.finish() % partitions as u64) as usize
}

/// Minimal FNV-1a hasher: deterministic across runs (unlike the std
/// `RandomState`), which keeps shard assignment stable.
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A [`HashMap`] hashed by [`IdHasher`]; construct with
/// `IdHashMap::default()`.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Deterministic word-at-a-time multiply-mix hasher for maps keyed by
/// tuples of **interned ids** (class ids, table indices, small tags).
///
/// Each integer field of the key is folded in with one 64×64→128-bit
/// multiply whose halves are xor-ed together, so every input bit
/// reaches both the low bits (hashbrown's bucket index) and the top
/// seven (its control byte) — a few cycles per field where the std
/// SipHash spends tens of nanoseconds per key. There is no random
/// seed: the ids are assigned by this program, never read from outside
/// it, so there is no adversary to craft collisions — and for the same
/// reason this hasher must **not** key a map by external bytes
/// (strings, request payloads); those keep the std `RandomState`.
/// [`partition_of`] stays on FNV-1a, so shard assignment is unrelated
/// to in-map placement.
pub struct IdHasher(u64);

impl Default for IdHasher {
    fn default() -> Self {
        // Non-zero start, so a leading zero id does not multiply to 0.
        IdHasher(0x9E37_79B9_7F4A_7C15)
    }
}

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * 0xA076_1D64_78BD_642F_u128;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.mix(u64::from(x));
    }
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn par_map_preserves_order() {
        for workers in [1usize, 2, 3, 8] {
            let mr = MapReduce::new(workers);
            for n in [0, 1, workers - 1, workers, 1000] {
                let inputs: Vec<usize> = (0..n).collect();
                let out = mr.par_map(&inputs, |&x| x * x);
                let want: Vec<usize> = inputs.iter().map(|&x| x * x).collect();
                assert_eq!(out, want, "workers={workers} n={n}");
            }
        }
    }

    #[test]
    fn par_map_propagates_a_panic_inline_and_threaded() {
        let inputs: Vec<u32> = (0..100).collect();
        for workers in [1, 4] {
            let mr = MapReduce::new(workers);
            let result = std::panic::catch_unwind(|| {
                mr.par_map(&inputs, |&x| {
                    assert!(x != 57, "boom");
                    x
                })
            });
            assert!(result.is_err(), "workers={workers}");
        }
    }

    /// A front-loaded job list — the shape `partition_by_components`
    /// submits — must not be one worker's share. Items 0 and 2 head
    /// the first two blocks (64 inputs, 2 workers: blocks of 2) and
    /// each waits until the other has started, which only two
    /// different threads can do; the deadline turns a scheduler that
    /// hands both to one thread into a failure instead of a hang.
    #[test]
    fn par_map_spreads_a_heavy_head_over_workers() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let inputs: Vec<usize> = (0..64).collect();
        let served_by = MapReduce::new(2).par_map(&inputs, |&i| {
            if i == 0 || i == 2 {
                let me = i / 2;
                started[me].store(true, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while !started[1 - me].load(Ordering::SeqCst) && Instant::now() < deadline {
                    thread::yield_now();
                }
            }
            thread::current().id()
        });
        let head: std::collections::HashSet<_> = served_by[..8].iter().collect();
        assert!(head.len() > 1, "one thread served the whole heavy head");
    }

    #[test]
    fn par_map_runs_inline_with_one_worker_or_one_input() {
        let caller = thread::current().id();
        let ids = MapReduce::new(1).par_map(&[0u8; 10], |_| thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        let ids = MapReduce::new(4).par_map(&[0u8; 1], |_| thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    /// `IdHasher` on the keys it serves — dense grids of small interned
    /// ids, the worst case for a weak integer hash. Over each grid the
    /// 64-bit hashes must be pairwise distinct, and the two slices
    /// hashbrown reads — the top 7 bits (control byte) and the low bits
    /// (bucket index; 16 of them here) — must load no bucket beyond 2×
    /// the uniform share. The 128-bucket slice is also held to ½× from
    /// below; at ~30 keys per bucket the 65,536-bucket slice would fail
    /// that under a perfectly random function, so its lower side is
    /// checked as what a table pays for: colliding key pairs within 2×
    /// of the uniform expectation.
    #[test]
    fn id_hasher_spreads_dense_id_grids() {
        fn check(name: &str, mut hashes: Vec<u64>) {
            let n = hashes.len();
            assert!(n >= 1_000_000, "{name}: grid too small ({n})");
            let mut top7 = vec![0usize; 1 << 7];
            let mut low16 = vec![0usize; 1 << 16];
            for &h in &hashes {
                top7[(h >> 57) as usize] += 1;
                low16[(h & 0xFFFF) as usize] += 1;
            }
            for (slice, loads) in [("top 7", &top7), ("low 16", &low16)] {
                let max = loads.iter().copied().max().unwrap_or(0);
                assert!(
                    max * loads.len() <= 2 * n,
                    "{name}: {slice} bits overload a bucket ({max} of {n} keys)"
                );
            }
            let min = top7.iter().copied().min().unwrap_or(0);
            assert!(
                2 * min * top7.len() >= n,
                "{name}: top 7 bits starve a bucket ({min})"
            );
            let colliding: usize = low16.iter().map(|&l| l * l.saturating_sub(1) / 2).sum();
            let uniform = n * (n - 1) / 2 / low16.len();
            assert!(
                colliding <= 2 * uniform,
                "{name}: {colliding} colliding pairs in the low 16 bits, uniform {uniform}"
            );
            hashes.sort_unstable();
            assert!(
                hashes.windows(2).all(|w| w[0] != w[1]),
                "{name}: 64-bit collision"
            );
        }
        let hash_of = BuildHasherDefault::<IdHasher>::default();
        // Pair-count keys: (table a, table b, kind) with a < b.
        let mut pair_keys = Vec::new();
        for b in 0u32..1500 {
            for a in 0..b {
                for kind in 0u8..2 {
                    pair_keys.push(hash_of.hash_one((a, b, kind)));
                }
            }
        }
        check("(a, b, kind)", pair_keys);
        // Posting keys: (kind, left class, right class).
        let mut posting_keys = Vec::new();
        for kind in 0u8..2 {
            for l in 0u32..1024 {
                for r in 0u32..1024 {
                    posting_keys.push(hash_of.hash_one((kind, l, r)));
                }
            }
        }
        check("(kind, l, r)", posting_keys);
    }
}
