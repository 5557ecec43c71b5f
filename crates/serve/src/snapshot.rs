//! Immutable, sharded index snapshots.
//!
//! An [`IndexSnapshot`] is the unit the serving layer publishes: a
//! frozen view of a set of synthesized mappings, sharded by hash of
//! the normalized lookup key so that a lookup touches exactly one
//! shard's Bloom filter and hash map. Snapshots are immutable after
//! [`SnapshotBuilder::build`] — the only interior mutability is the
//! per-shard hit/miss counters, which makes a snapshot safe to share
//! across any number of reader threads without coordination.

use crate::bloom::BloomFilter;
use mapsynth::SynthesizedMapping;
use mapsynth_text::normalize;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default shard count (power of two so the hash can be masked).
pub const DEFAULT_SHARDS: usize = 16;

/// Per-mapping metadata carried by a snapshot.
#[derive(Clone, Debug, Default)]
pub struct MappingMeta {
    /// Optional human label.
    pub name: Option<String>,
    /// Number of distinct value pairs.
    pub pairs: usize,
    /// Distinct provenance domains (curation signal).
    pub domains: usize,
    /// Distinct source tables.
    pub source_tables: usize,
}

/// Everything the index knows about one normalized value.
#[derive(Clone, Debug, Default)]
struct Entry {
    /// Mapping ids containing the value (as left or right), ascending.
    postings: Vec<u32>,
    /// Mappings where the value is a **left**: `(mapping, right image)`
    /// (first winner per mapping; mappings are conflict-free after
    /// resolution, so this is total).
    forward: Vec<(u32, String)>,
    /// Mappings where the value is a **right**: `(mapping, lefts)`.
    reverse: Vec<(u32, Vec<String>)>,
}

/// One shard: a Bloom prefilter plus the exact entry map for the
/// values hashing into it. Shards sit behind an [`Arc`] so an
/// incremental publish ([`IndexSnapshot::apply_delta`]) can share
/// untouched shards between versions instead of copying all pairs —
/// the hit/miss counters of a shared shard therefore accumulate
/// across the versions sharing it.
struct Shard {
    bloom: BloomFilter,
    entries: HashMap<String, Entry>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Shard {
    /// Freeze an entry map: a Bloom filter sized to its load, zeroed
    /// counters.
    fn new(entries: HashMap<String, Entry>) -> Self {
        let mut bloom = BloomFilter::new(entries.len().max(1), 0.01);
        for v in entries.keys() {
            bloom.insert(v);
        }
        Shard {
            bloom,
            entries,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// A successful lookup: a borrowed view of one value's entry.
#[derive(Clone, Copy)]
pub struct ValueHit<'a> {
    entry: &'a Entry,
}

impl<'a> ValueHit<'a> {
    /// Mapping ids containing the value (left or right), ascending.
    pub fn mappings(&self) -> &'a [u32] {
        &self.entry.postings
    }

    /// The value's right image under `mapping`, if it is a left there.
    pub fn forward(&self, mapping: u32) -> Option<&'a str> {
        self.entry
            .forward
            .iter()
            .find(|(mi, _)| *mi == mapping)
            .map(|(_, r)| r.as_str())
    }

    /// The value's left preimages under `mapping`, if it is a right
    /// there.
    pub fn reverse(&self, mapping: u32) -> Option<&'a [String]> {
        self.entry
            .reverse
            .iter()
            .find(|(mi, _)| *mi == mapping)
            .map(|(_, ls)| ls.as_slice())
    }

    /// All `(mapping, right image)` translations of the value.
    pub fn translations(&self) -> impl Iterator<Item = (u32, &'a str)> + 'a {
        self.entry.forward.iter().map(|(mi, r)| (*mi, r.as_str()))
    }

    /// Whether the value is a left value of `mapping`.
    pub fn is_left(&self, mapping: u32) -> bool {
        self.entry.forward.iter().any(|(mi, _)| *mi == mapping)
    }

    /// Whether the value is a right value of `mapping`.
    pub fn is_right(&self, mapping: u32) -> bool {
        self.entry.reverse.iter().any(|(mi, _)| *mi == mapping)
    }
}

/// Snapshot-wide and per-shard serving statistics.
#[derive(Clone, Debug)]
pub struct SnapshotStats {
    /// The snapshot's version id.
    pub version: u64,
    /// Distinct indexed values.
    pub values: usize,
    /// Mappings served.
    pub mappings: usize,
    /// `(values, hits, misses)` per shard, in shard order.
    pub shards: Vec<(usize, u64, u64)>,
    /// Total lookup hits recorded against this snapshot version.
    pub hits: u64,
    /// Total lookup misses recorded against this snapshot version.
    pub misses: u64,
}

/// A whole-column translation through the best covering mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnTranslation {
    /// The mapping used.
    pub mapping: u32,
    /// Per-row right image, `None` where the mapping has no entry.
    pub translated: Vec<Option<String>>,
    /// Rows with a translation.
    pub covered: usize,
}

/// An immutable, sharded serving snapshot over synthesized mappings.
///
/// Built once by a [`SnapshotBuilder`], then shared read-only behind an
/// `Arc` by [`crate::service::MappingService`]. The lookup key is the
/// [normalized](fn@mapsynth_text::normalize) value string; its hash picks
/// one shard, whose Bloom filter rejects definitely-absent values
/// before the exact hash-map probe.
pub struct IndexSnapshot {
    pub(crate) version: u64,
    shards: Vec<Arc<Shard>>,
    shard_mask: usize,
    /// Per-mapping metadata, *including* retired mappings — mapping
    /// ids are stable across delta publishes, so retired slots stay.
    metas: Vec<MappingMeta>,
    /// Whether the mapping id is served by this snapshot.
    live: Vec<bool>,
    /// Content hash per mapping (normalized pairs + provenance stats),
    /// the identity [`crate::service::MappingService::publish_delta`]
    /// diffs on.
    hashes: Vec<u64>,
    /// Shards each mapping's values hash into (sorted) — the touch set
    /// of a removal.
    shards_of_mapping: Vec<Vec<u16>>,
    values: usize,
}

impl IndexSnapshot {
    /// An empty snapshot (what a fresh service serves before the first
    /// publish).
    pub fn empty() -> Self {
        SnapshotBuilder::new().build()
    }

    /// The version id stamped at publish time (0 = never published).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of mappings served (retired ids excluded).
    pub fn mapping_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Whether the snapshot serves no mappings.
    pub fn is_empty(&self) -> bool {
        !self.live.iter().any(|&l| l)
    }

    /// Whether `mapping` is served by this snapshot. Ids are stable
    /// across [`apply_delta`](Self::apply_delta) publishes, so a
    /// retired id stays addressable (its meta remains) but dead.
    pub fn is_live(&self, mapping: u32) -> bool {
        self.live.get(mapping as usize).copied().unwrap_or(false)
    }

    /// Number of distinct indexed values.
    pub fn value_count(&self) -> usize {
        self.values
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Metadata for one mapping.
    pub fn meta(&self, mapping: u32) -> &MappingMeta {
        &self.metas[mapping as usize]
    }

    /// All mapping metadata, id order.
    pub fn metas(&self) -> &[MappingMeta] {
        &self.metas
    }

    fn shard_of(&self, norm: &str) -> usize {
        shard_index(norm, self.shard_mask)
    }

    /// Look up an already-normalized value. Records a hit or miss on
    /// the value's shard.
    pub fn lookup_norm(&self, norm: &str) -> Option<ValueHit<'_>> {
        let shard = &self.shards[self.shard_of(norm)];
        // Bloom prefilter: definitely-absent values skip the hash map.
        let entry = if shard.bloom.may_contain(norm) {
            shard.entries.get(norm)
        } else {
            None
        };
        match entry {
            Some(entry) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some(ValueHit { entry })
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Look up a raw value (normalized here).
    pub fn lookup(&self, raw: &str) -> Option<ValueHit<'_>> {
        self.lookup_norm(&normalize(raw))
    }

    /// Batch lookup of raw values: normalization is done once per
    /// value and probes are grouped by shard so each shard's Bloom
    /// filter and hash map stay hot across the batch. The result is
    /// aligned with the input.
    pub fn lookup_many(&self, raw: &[&str]) -> Vec<Option<ValueHit<'_>>> {
        let norms: Vec<String> = raw.iter().map(|v| normalize(v)).collect();
        self.lookup_many_norm(&norms)
    }

    /// Batch lookup of already-normalized values, grouped by shard.
    pub fn lookup_many_norm<S: AsRef<str>>(&self, norms: &[S]) -> Vec<Option<ValueHit<'_>>> {
        let mut out: Vec<Option<ValueHit<'_>>> = vec![None; norms.len()];
        // Bucket value indices by shard, then drain shard by shard.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for (i, n) in norms.iter().enumerate() {
            buckets[self.shard_of(n.as_ref())].push(i as u32);
        }
        for (si, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let shard = &self.shards[si];
            let probes = bucket.len() as u64;
            let mut hits = 0u64;
            for i in bucket {
                let norm = norms[i as usize].as_ref();
                if shard.bloom.may_contain(norm) {
                    if let Some(entry) = shard.entries.get(norm) {
                        out[i as usize] = Some(ValueHit { entry });
                        hits += 1;
                    }
                }
            }
            shard.hits.fetch_add(hits, Ordering::Relaxed);
            shard.misses.fetch_add(probes - hits, Ordering::Relaxed);
        }
        out
    }

    /// Translate a whole raw column through the single mapping with
    /// the best forward coverage. Returns `None` when no mapping
    /// translates any value.
    pub fn translate_column(&self, column: &[&str]) -> Option<ColumnTranslation> {
        let hits = self.lookup_many(column);
        let mut coverage: HashMap<u32, usize> = HashMap::new();
        for hit in hits.iter().flatten() {
            for (mi, _) in hit.translations() {
                *coverage.entry(mi).or_default() += 1;
            }
        }
        let (&best, _) = coverage
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))?;
        let translated: Vec<Option<String>> = hits
            .iter()
            .map(|h| h.and_then(|h| h.forward(best)).map(str::to_string))
            .collect();
        let covered = translated.iter().filter(|t| t.is_some()).count();
        Some(ColumnTranslation {
            mapping: best,
            translated,
            covered,
        })
    }

    /// Rank mappings by how many of `values` (raw; normalized here)
    /// they contain: `(mapping id, covered count)`, descending count,
    /// ties by ascending id.
    pub fn rank_by_containment(&self, values: &[&str]) -> Vec<(u32, usize)> {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for hit in self.lookup_many(values).iter().flatten() {
            for &mi in hit.mappings() {
                *counts.entry(mi).or_default() += 1;
            }
        }
        let mut ranked: Vec<(u32, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }

    /// How `normalized` values are covered by `mapping`:
    /// `(as lefts, as rights, uncovered)`. Values on both sides count
    /// as lefts.
    pub fn coverage(&self, mapping: u32, normalized: &[String]) -> (usize, usize, usize) {
        let (mut l, mut r, mut none) = (0, 0, 0);
        for hit in self.lookup_many_norm(normalized) {
            match hit {
                Some(h) if h.is_left(mapping) => l += 1,
                Some(h) if h.is_right(mapping) => r += 1,
                _ => none += 1,
            }
        }
        (l, r, none)
    }

    /// Whether the normalized `norm` is a left value of `mapping`.
    pub fn contains_left(&self, mapping: u32, norm: &str) -> bool {
        self.lookup_norm(norm).is_some_and(|h| h.is_left(mapping))
    }

    /// Whether the normalized `norm` is a right value of `mapping`.
    pub fn contains_right(&self, mapping: u32, norm: &str) -> bool {
        self.lookup_norm(norm).is_some_and(|h| h.is_right(mapping))
    }

    /// The normalized `norm`'s right image under `mapping`, if it is a
    /// left there. Borrowed from the snapshot — the application hot
    /// paths stay allocation-free.
    pub fn forward(&self, mapping: u32, norm: &str) -> Option<&str> {
        self.lookup_norm(norm).and_then(|h| h.forward(mapping))
    }

    /// The normalized `norm`'s left preimages under `mapping` (empty
    /// if it is not a right there). Borrowed from the snapshot.
    pub fn reverse(&self, mapping: u32, norm: &str) -> &[String] {
        self.lookup_norm(norm)
            .and_then(|h| h.reverse(mapping))
            .unwrap_or(&[])
    }

    /// Serving statistics accumulated against this snapshot version.
    pub fn stats(&self) -> SnapshotStats {
        let shards: Vec<(usize, u64, u64)> = self
            .shards
            .iter()
            .map(|s| {
                (
                    s.entries.len(),
                    s.hits.load(Ordering::Relaxed),
                    s.misses.load(Ordering::Relaxed),
                )
            })
            .collect();
        let hits = shards.iter().map(|s| s.1).sum();
        let misses = shards.iter().map(|s| s.2).sum();
        SnapshotStats {
            version: self.version,
            values: self.values,
            mappings: self.mapping_count(),
            shards,
            hits,
            misses,
        }
    }

    /// Number of this snapshot's shards not shared with `base`
    /// (i.e. rebuilt by the delta that derived it).
    pub fn rebuilt_shards(&self, base: &IndexSnapshot) -> usize {
        self.shards
            .iter()
            .zip(&base.shards)
            .filter(|(a, b)| !Arc::ptr_eq(a, b))
            .count()
    }

    /// Total mapping id slots, retired ones included (ids are never
    /// reused across delta publishes; compaction renumbers).
    pub(crate) fn total_slots(&self) -> usize {
        self.metas.len()
    }

    /// `(mapping id, content hash)` of every live mapping.
    pub(crate) fn live_hashes(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.hashes
            .iter()
            .enumerate()
            .filter(|&(mi, _)| self.live[mi])
            .map(|(mi, &h)| (mi as u32, h))
    }

    /// A new snapshot equal to this one with `removed` mapping ids
    /// retired and `added` mappings appended under fresh ids — the
    /// **incremental publish** primitive. Only shards touched by a
    /// removed or added mapping's values are rebuilt; every other
    /// shard is shared (`Arc`) with this snapshot, so the cost scales
    /// with the delta, not with the total pair count.
    ///
    /// Lookup-observable state is identical to a full
    /// [`SnapshotBuilder`] rebuild over the same live mappings (only
    /// mapping *ids* differ: a rebuild renumbers densely, a delta
    /// keeps ids stable).
    pub fn apply_delta(&self, added: &[&SynthesizedMapping], removed: &[u32]) -> IndexSnapshot {
        let removed: HashSet<u32> = removed.iter().copied().collect();
        for &mi in &removed {
            assert!(
                self.is_live(mi),
                "mapping {mi} is not live in this snapshot"
            );
        }

        // Ids, metas, hashes, liveness for the grown mapping set.
        let mut metas = self.metas.clone();
        let mut live = self.live.clone();
        let mut hashes = self.hashes.clone();
        let mut shards_of_mapping = self.shards_of_mapping.clone();
        for &mi in &removed {
            live[mi as usize] = false;
        }
        let added_ids: Vec<u32> = (0..added.len() as u32)
            .map(|k| self.metas.len() as u32 + k)
            .collect();
        for m in added {
            metas.push(MappingMeta {
                name: None,
                pairs: m.len(),
                domains: m.domains,
                source_tables: m.source_tables,
            });
            live.push(true);
            hashes.push(mapping_content_hash(m));
        }

        // The touch set: shards of removed mappings' values plus shards
        // of added mappings' values.
        let mut touched: HashSet<u16> = HashSet::new();
        for &mi in &removed {
            touched.extend(self.shards_of_mapping[mi as usize].iter().copied());
        }
        for m in added {
            let mut of: Vec<u16> = m
                .pair_strs()
                .flat_map(|(l, r)| [self.shard_of(l) as u16, self.shard_of(r) as u16])
                .collect();
            of.sort_unstable();
            of.dedup();
            touched.extend(of.iter().copied());
            shards_of_mapping.push(of);
        }

        // Rebuild touched shards; share the rest.
        let mut values = self.values;
        let shards: Vec<Arc<Shard>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(si, shard)| {
                if !touched.contains(&(si as u16)) {
                    return Arc::clone(shard);
                }
                let mut entries = shard.entries.clone();
                if !removed.is_empty() {
                    entries.retain(|_, e| {
                        e.postings.retain(|mi| !removed.contains(mi));
                        e.forward.retain(|(mi, _)| !removed.contains(mi));
                        e.reverse.retain(|(mi, _)| !removed.contains(mi));
                        !e.postings.is_empty()
                    });
                }
                for (m, &mi) in added.iter().zip(&added_ids) {
                    let own = std::slice::from_mut(&mut entries);
                    insert_mapping_pairs(own, mi, m.pair_strs(), |s| {
                        (self.shard_of(s) == si).then_some(0)
                    });
                }
                values = values - shard.entries.len() + entries.len();
                Arc::new(Shard::new(entries))
            })
            .collect();

        IndexSnapshot {
            version: 0,
            shards,
            shard_mask: self.shard_mask,
            metas,
            live,
            hashes,
            shards_of_mapping,
            values,
        }
    }
}

/// Insert one mapping's (already-normalized) pairs into per-shard
/// entry maps: `route` names the map a value belongs in, or `None` to
/// skip it. The one insertion path — [`SnapshotBuilder::build`] routes
/// every value to its shard, [`IndexSnapshot::apply_delta`] only the
/// values of the shard it rebuilds — so a delta-built shard is
/// structurally identical to a fresh full build over the same
/// mappings.
fn insert_mapping_pairs<'a>(
    shards: &mut [HashMap<String, Entry>],
    mi: u32,
    pairs: impl Iterator<Item = (&'a str, &'a str)>,
    mut route: impl FnMut(&str) -> Option<usize>,
) {
    for (l, r) in pairs {
        if let Some(si) = route(l) {
            let le = shards[si].entry(l.to_string()).or_default();
            push_posting(&mut le.postings, mi);
            if le.forward.last().map(|(m, _)| *m) != Some(mi) {
                // first winner per (mapping, left)
                le.forward.push((mi, r.to_string()));
            }
        }
        if let Some(si) = route(r) {
            let re = shards[si].entry(r.to_string()).or_default();
            push_posting(&mut re.postings, mi);
            match re.reverse.last_mut() {
                Some((m, ls)) if *m == mi => ls.push(l.to_string()),
                _ => re.reverse.push((mi, vec![l.to_string()])),
            }
        }
    }
}

/// The content identity a delta publish diffs on: normalized pairs in
/// their sorted order plus the provenance stats the ranking uses.
/// **The single implementation** — the builder hashes its stored pair
/// lists and `publish_delta` hashes incoming `SynthesizedMapping`s
/// through this same function, so the two sides can never drift.
fn content_hash<'a>(
    pairs: impl Iterator<Item = (&'a str, &'a str)>,
    domains: usize,
    source_tables: usize,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (l, r) in pairs {
        eat(l.as_bytes());
        eat(&[0]);
        eat(r.as_bytes());
        eat(&[1]);
    }
    eat(&(domains as u64).to_le_bytes());
    eat(&(source_tables as u64).to_le_bytes());
    h
}

/// [`content_hash`] of a synthesized mapping (pairs come pre-sorted
/// from `pair_strs`, matching the order
/// [`SnapshotBuilder::add_synthesized`] stores).
pub(crate) fn mapping_content_hash(m: &SynthesizedMapping) -> u64 {
    content_hash(m.pair_strs(), m.domains, m.source_tables)
}

/// Builder accumulating mappings into an [`IndexSnapshot`].
pub struct SnapshotBuilder {
    shard_count: usize,
    mappings: Vec<(MappingMeta, Vec<(String, String)>)>,
}

impl Default for SnapshotBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotBuilder {
    /// Builder with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Builder with an explicit shard count (rounded up to a power of
    /// two, minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shard_count: shards.max(1).next_power_of_two(),
            mappings: Vec::new(),
        }
    }

    /// Add a mapping from raw string pairs; values are normalized and
    /// empty-normalized pairs dropped.
    pub fn add_raw(&mut self, name: Option<String>, pairs: &[(String, String)]) -> &mut Self {
        let pairs: Vec<(String, String)> = pairs
            .iter()
            .map(|(l, r)| (normalize(l), normalize(r)))
            .filter(|(l, r)| !l.is_empty() && !r.is_empty())
            .collect();
        let meta = MappingMeta {
            name,
            pairs: pairs.len(),
            ..Default::default()
        };
        self.mappings.push((meta, pairs));
        self
    }

    /// Add one synthesized mapping: pairs are already normalized in
    /// the run's value space, so this is a straight copy-out with
    /// provenance metadata attached.
    pub fn add_synthesized(&mut self, m: &SynthesizedMapping) -> &mut Self {
        let pairs: Vec<(String, String)> = m
            .pair_strs()
            .map(|(l, r)| (l.to_string(), r.to_string()))
            .collect();
        let meta = MappingMeta {
            name: None,
            pairs: pairs.len(),
            domains: m.domains,
            source_tables: m.source_tables,
        };
        self.mappings.push((meta, pairs));
        self
    }

    /// Like [`add_synthesized`](Self::add_synthesized), with a label
    /// (e.g. the export filename) carried in the mapping's metadata.
    pub fn add_synthesized_named(
        &mut self,
        name: Option<String>,
        m: &SynthesizedMapping,
    ) -> &mut Self {
        self.add_synthesized(m);
        self.mappings.last_mut().expect("just pushed").0.name = name;
        self
    }

    /// Builder pre-loaded with a whole synthesis run's mappings.
    pub fn from_synthesized(mappings: &[SynthesizedMapping]) -> Self {
        let mut b = Self::new();
        for m in mappings {
            b.add_synthesized(m);
        }
        b
    }

    /// Freeze into a snapshot (version 0 until published through a
    /// [`crate::service::MappingService`]).
    pub fn build(self) -> IndexSnapshot {
        let shard_count = self.shard_count;
        let shard_mask = shard_count - 1;
        // Pass 1: per-shard entry maps, and each mapping's touch set.
        let mut entries: Vec<HashMap<String, Entry>> =
            (0..shard_count).map(|_| HashMap::new()).collect();
        let mut metas = Vec::with_capacity(self.mappings.len());
        let mut hashes = Vec::with_capacity(self.mappings.len());
        let mut shards_of_mapping = Vec::with_capacity(self.mappings.len());
        for (mi, (meta, pairs)) in self.mappings.into_iter().enumerate() {
            let mut of: Vec<u16> = Vec::new();
            let pair_strs = pairs.iter().map(|(l, r)| (l.as_str(), r.as_str()));
            insert_mapping_pairs(&mut entries, mi as u32, pair_strs, |s| {
                let si = shard_index(s, shard_mask);
                of.push(si as u16);
                Some(si)
            });
            of.sort_unstable();
            of.dedup();
            shards_of_mapping.push(of);
            hashes.push(pairs_content_hash(&pairs, &meta));
            metas.push(meta);
        }
        // Pass 2: freeze shards.
        let values = entries.iter().map(HashMap::len).sum();
        let shards: Vec<Arc<Shard>> = entries
            .into_iter()
            .map(|entries| Arc::new(Shard::new(entries)))
            .collect();
        let live = vec![true; metas.len()];
        IndexSnapshot {
            version: 0,
            shards,
            shard_mask,
            metas,
            live,
            hashes,
            shards_of_mapping,
            values,
        }
    }
}

/// [`mapping_content_hash`] over a builder's stored (normalized) pair
/// list — identical to hashing the originating `SynthesizedMapping`
/// when the pairs came through
/// [`SnapshotBuilder::add_synthesized`] (whose pair order is the
/// mapping's sorted `pair_strs` order).
fn pairs_content_hash(pairs: &[(String, String)], meta: &MappingMeta) -> u64 {
    content_hash(
        pairs.iter().map(|(l, r)| (l.as_str(), r.as_str())),
        meta.domains,
        meta.source_tables,
    )
}

/// Append `mi` to an ascending posting list iff not already last.
fn push_posting(postings: &mut Vec<u32>, mi: u32) {
    if postings.last() != Some(&mi) {
        postings.push(mi);
    }
}

/// The shard a normalized value routes to.
fn shard_index(s: &str, shard_mask: usize) -> usize {
    (fnv1a(s) as usize) & shard_mask
}

/// FNV-1a — the shard router. Deterministic across processes (unlike
/// `DefaultHasher`'s unspecified keys) so shard layout is stable.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> IndexSnapshot {
        let mut b = SnapshotBuilder::with_shards(4);
        b.add_raw(
            Some("state->abbr".into()),
            &[
                ("California".into(), "CA".into()),
                ("Washington".into(), "WA".into()),
                ("Oregon".into(), "OR".into()),
            ],
        );
        b.add_raw(
            Some("country->code".into()),
            &[
                ("United States".into(), "USA".into()),
                ("Canada".into(), "CAN".into()),
            ],
        );
        b.build()
    }

    #[test]
    fn lookup_forward_and_reverse() {
        let s = snapshot();
        let hit = s.lookup("California").expect("indexed");
        assert_eq!(hit.mappings(), &[0]);
        assert_eq!(hit.forward(0), Some("ca"));
        assert!(hit.is_left(0) && !hit.is_right(0));
        let hit = s.lookup("CA").expect("indexed");
        assert_eq!(hit.reverse(0), Some(&["california".to_string()][..]));
        assert!(s.lookup("nonsense").is_none());
    }

    #[test]
    fn batch_lookup_aligns_with_input() {
        let s = snapshot();
        let hits = s.lookup_many(&["Canada", "nope", "Oregon"]);
        assert!(hits[0].is_some());
        assert!(hits[1].is_none());
        assert_eq!(hits[2].unwrap().forward(0), Some("or"));
    }

    #[test]
    fn translate_column_picks_best_mapping() {
        let s = snapshot();
        let t = s
            .translate_column(&["California", "Washington", "Canada"])
            .expect("translation found");
        assert_eq!(t.mapping, 0);
        assert_eq!(t.covered, 2);
        assert_eq!(
            t.translated,
            vec![Some("ca".into()), Some("wa".into()), None]
        );
    }

    #[test]
    fn containment_ranking_matches_index_contract() {
        let s = snapshot();
        let ranked = s.rank_by_containment(&["California", "WA", "USA"]);
        assert_eq!(ranked, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn per_mapping_queries_match_snapshot_contents() {
        let s = snapshot();
        assert_eq!(s.mapping_count(), 2);
        assert!(s.contains_left(0, "california"));
        assert!(!s.contains_right(0, "california"));
        assert_eq!(s.forward(0, "washington"), Some("wa"));
        assert_eq!(s.reverse(0, "wa"), &["washington".to_string()][..]);
        assert!(s.reverse(0, "california").is_empty());
        // A value of mapping 0 is no value of mapping 1.
        assert!(!s.contains_left(1, "california"));
        assert_eq!(s.forward(1, "california"), None);
    }

    #[test]
    fn coverage_sides() {
        let s = snapshot();
        let values: Vec<String> = ["california", "wa", "nonsense"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(s.coverage(0, &values), (1, 1, 1));
        assert_eq!(s.coverage(1, &values), (0, 0, 3));
    }

    #[test]
    fn postings_lookup() {
        let s = snapshot();
        assert_eq!(s.lookup_norm("usa").expect("indexed").mappings(), &[1]);
        assert!(s.lookup_norm("absent").is_none());
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let s = snapshot();
        s.lookup("California");
        s.lookup("absent-1");
        s.lookup("absent-2");
        let st = s.stats();
        assert_eq!(st.values, 10);
        assert_eq!(st.mappings, 2);
        assert_eq!((st.hits, st.misses), (1, 2));
        assert_eq!(st.shards.len(), 4);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let mut b = SnapshotBuilder::with_shards(5);
        b.add_raw(None, &[("a".into(), "b".into())]);
        let s = b.build();
        assert_eq!(s.shard_count(), 8);
    }

    #[test]
    fn empty_snapshot_serves_nothing() {
        let s = IndexSnapshot::empty();
        assert!(s.is_empty());
        assert!(s.lookup("anything").is_none());
        assert_eq!(s.version(), 0);
    }
}
