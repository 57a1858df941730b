//! Per-model schedule caching (ISSUE 3 tentpole, core layer).
//!
//! A serving loop schedules the *same* model graphs over and over; only
//! the platform (which GPUs the circuit breakers currently admit)
//! changes.  [`ScheduleCacheKey`] names one such scheduling problem —
//! a structural graph fingerprint plus the alive-GPU mask — and
//! [`ScheduleCache`] is the deterministic map the `hios-serve` anytime
//! ladder keeps its best-known schedules in.
//!
//! The cache is value-generic: the core crate defines *identity* (what
//! makes two scheduling problems the same), callers define what they
//! store under it (the ladder stores schedule + makespan + the rung that
//! produced it).

use hios_cost::CostTable;
use hios_graph::Graph;
use std::collections::HashMap;
use std::hash::Hash;

/// Structural fingerprint of a computation graph: FNV-1a over the
/// operator count, every operator's name and output shape, and the edge
/// list.  Two graphs with the same fingerprint are (with overwhelming
/// probability) the same scheduling problem; the id-ordered sweep makes
/// the fingerprint deterministic across runs and platforms.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    // Serialize into one contiguous buffer first, then hash in a single
    // dense pass: the byte stream (and so every persisted fingerprint)
    // is unchanged, but the FNV loop runs over flat memory instead of
    // interleaving with node-field pointer chasing.
    let mut buf: Vec<u8> = Vec::with_capacity(g.num_ops() * 32);
    buf.extend_from_slice(&(g.num_ops() as u64).to_le_bytes());
    for v in g.op_ids() {
        let node = g.node(v);
        buf.extend_from_slice(node.name.as_bytes());
        buf.push(0);
        let s = &node.output_shape;
        for d in [s.n, s.c, s.h, s.w] {
            buf.extend_from_slice(&d.to_le_bytes());
        }
    }
    for (u, v) in g.edges() {
        buf.extend_from_slice(&(u.index() as u32).to_le_bytes());
        buf.extend_from_slice(&(v.index() as u32).to_le_bytes());
    }
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET;
    for &b in &buf {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Identity of one scheduling problem in a serving loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ScheduleCacheKey {
    /// [`graph_fingerprint`] of the model.
    pub graph_fp: u64,
    /// Bit `i` set ⇔ physical GPU `i` is available (breaker closed or
    /// half-open).  Platforms beyond 64 GPUs need a wider key; the cache
    /// asserts the bound rather than silently aliasing.
    pub alive_mask: u64,
    /// Number of physical GPUs the mask ranges over.
    pub num_gpus: usize,
    /// [`CostTable::platform_fingerprint`] of the cost snapshot: device
    /// classes, topology and every per-class/per-link cost row.  On a
    /// heterogeneous platform the *same* alive mask over a *different*
    /// platform is a different scheduling problem (a schedule tuned for
    /// an NVLink pair is wrong on a PCIe pair), so the platform is part
    /// of the identity.
    pub platform_fp: u64,
}

impl ScheduleCacheKey {
    /// Key for `g` priced by `cost` on the subset of an
    /// `alive.len()`-GPU platform whose breakers currently admit
    /// traffic.
    pub fn for_platform(g: &Graph, alive: &[bool], cost: &CostTable) -> Self {
        Self::from_fingerprints(graph_fingerprint(g), alive, cost.platform_fingerprint())
    }

    /// [`ScheduleCacheKey::for_platform`] from fingerprints the caller
    /// already holds: both are O(model size) to compute and change only
    /// when the graph or the cost snapshot does, so a serving loop takes
    /// them once and builds the per-dispatch key from this.
    pub fn from_fingerprints(graph_fp: u64, alive: &[bool], platform_fp: u64) -> Self {
        assert!(
            alive.len() <= 64,
            "alive mask of {} GPUs exceeds the 64-bit cache key",
            alive.len()
        );
        let mut mask = 0u64;
        for (i, &a) in alive.iter().enumerate() {
            if a {
                mask |= 1 << i;
            }
        }
        ScheduleCacheKey {
            graph_fp,
            alive_mask: mask,
            num_gpus: alive.len(),
            platform_fp,
        }
    }

    /// Number of GPUs the key admits.
    pub fn num_alive(&self) -> usize {
        self.alive_mask.count_ones() as usize
    }
}

/// One cached value plus the logical instant it was last touched.
#[derive(Clone, Debug)]
struct CacheEntry<V> {
    value: V,
    last_used: u64,
}

/// A keyed store of best-known schedules with hit/miss accounting and a
/// bounded footprint: beyond `capacity` entries the least-recently-used
/// entry is evicted.
///
/// Lookups never iterate the map, so the default hasher's nondeterminism
/// cannot leak into results; eviction picks the minimum of a strictly
/// increasing logical clock, which is unique per entry, so the victim is
/// deterministic too and the serving loop stays bit-identical at any
/// thread count.
#[derive(Clone, Debug)]
pub struct ScheduleCache<V> {
    entries: HashMap<ScheduleCacheKey, CacheEntry<V>>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V> Default for ScheduleCache<V> {
    fn default() -> Self {
        ScheduleCache::new()
    }
}

impl<V> ScheduleCache<V> {
    /// An empty, effectively unbounded cache.
    pub fn new() -> Self {
        ScheduleCache::with_capacity(usize::MAX)
    }

    /// An empty cache holding at most `capacity` entries (≥ 1), with
    /// deterministic LRU eviction beyond that.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        ScheduleCache {
            entries: HashMap::new(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn touch(tick: &mut u64) -> u64 {
        *tick += 1;
        *tick
    }

    /// Looks up `key`, counting the hit or miss and refreshing the
    /// entry's recency.
    pub fn get(&mut self, key: &ScheduleCacheKey) -> Option<&V> {
        match self.entries.get_mut(key) {
            Some(e) => {
                e.last_used = Self::touch(&mut self.tick);
                self.hits += 1;
                Some(&e.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Uncounted lookup (for peeking without skewing stats or recency).
    pub fn peek(&self, key: &ScheduleCacheKey) -> Option<&V> {
        self.entries.get(key).map(|e| &e.value)
    }

    /// Inserts `value` under `key` only if `better` says it improves on
    /// the incumbent (ties keep the incumbent, so re-running a rung can
    /// never churn the cache).  A fresh insert beyond capacity evicts
    /// the least-recently-used entry.  Returns whether the entry
    /// changed.
    pub fn insert_if_better<F>(&mut self, key: ScheduleCacheKey, value: V, better: F) -> bool
    where
        F: FnOnce(&V, &V) -> bool,
    {
        match self.entries.get(&key) {
            Some(old) if !better(&value, &old.value) => false,
            _ => {
                let last_used = Self::touch(&mut self.tick);
                self.entries.insert(key, CacheEntry { value, last_used });
                self.evict_to_capacity();
                true
            }
        }
    }

    /// Evicts least-recently-used entries until the cache fits its
    /// capacity.  The logical clock is strictly increasing, so the
    /// minimum is unique and the victim deterministic.
    fn evict_to_capacity(&mut self) {
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty beyond capacity");
            self.entries.remove(&victim);
            self.evictions += 1;
        }
    }

    /// Drops the entry under `key` (e.g. when a breaker transition
    /// changes the platform out from under it).  Returns the evicted
    /// value, if any.
    pub fn invalidate(&mut self, key: &ScheduleCacheKey) -> Option<V> {
        self.entries.remove(key).map(|e| e.value)
    }

    /// Keeps only the entries whose key satisfies `keep`; returns how
    /// many were dropped.  Used by calibration: when a drift alarm
    /// re-prices a platform, every entry planned against the stale
    /// platform fingerprint is purged in one sweep.  Removal is by
    /// predicate, never by iteration order, so the default hasher's
    /// nondeterminism cannot leak into results.  Predicate drops are
    /// invalidations, not LRU evictions, and are counted by the caller.
    pub fn retain<F>(&mut self, mut keep: F) -> usize
    where
        F: FnMut(&ScheduleCacheKey) -> bool,
    {
        let before = self.entries.len();
        self.entries.retain(|k, _| keep(k));
        before - self.entries.len()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// LRU evictions since construction (capacity pressure only;
    /// `invalidate`/`retain` drops are not evictions).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hios_graph::{LayeredDagConfig, generate_layered_dag};

    fn dag(seed: u64) -> Graph {
        generate_layered_dag(&LayeredDagConfig {
            ops: 30,
            layers: 4,
            deps: 60,
            seed,
        })
        .unwrap()
    }

    fn table(g: &Graph) -> CostTable {
        hios_cost::random_cost_table(g, &hios_cost::RandomCostConfig::paper_default(0))
    }

    #[test]
    fn fingerprint_separates_graphs_and_is_stable() {
        let a = dag(1);
        let b = dag(2);
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&a));
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
    }

    #[test]
    fn keys_encode_the_alive_set() {
        let g = dag(3);
        let cost = table(&g);
        let all = ScheduleCacheKey::for_platform(&g, &[true, true, true], &cost);
        let partial = ScheduleCacheKey::for_platform(&g, &[true, false, true], &cost);
        assert_ne!(all, partial);
        assert_eq!(all.num_alive(), 3);
        assert_eq!(partial.num_alive(), 2);
        assert_eq!(partial.alive_mask, 0b101);
        assert_eq!(all.num_gpus, 3);
    }

    #[test]
    fn keys_encode_the_platform() {
        let g = dag(3);
        let cost = table(&g);
        let mut faster = cost.clone();
        faster.device.exec_ms[0][0] *= 0.5;
        let a = ScheduleCacheKey::for_platform(&g, &[true, true], &cost);
        let b = ScheduleCacheKey::for_platform(&g, &[true, true], &faster);
        assert_eq!(a.graph_fp, b.graph_fp);
        assert_eq!(a.alive_mask, b.alive_mask);
        assert_ne!(a, b, "a changed platform must miss the cache");
    }

    #[test]
    fn insert_if_better_keeps_the_best_and_counts() {
        let g = dag(4);
        let key = ScheduleCacheKey::for_platform(&g, &[true, true], &table(&g));
        let mut cache: ScheduleCache<f64> = ScheduleCache::new();
        assert!(cache.get(&key).is_none());
        assert!(cache.insert_if_better(key, 10.0, |new, old| new < old));
        assert!(!cache.insert_if_better(key, 12.0, |new, old| new < old));
        assert!(cache.insert_if_better(key, 8.0, |new, old| new < old));
        assert_eq!(cache.get(&key), Some(&8.0));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.invalidate(&key), Some(8.0));
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_eviction_is_bounded_and_deterministic() {
        let g = dag(6);
        let cost = table(&g);
        let keys: Vec<ScheduleCacheKey> = (0..4)
            .map(|i| {
                let mut alive = [true; 5];
                alive[i] = false;
                ScheduleCacheKey::for_platform(&g, &alive[..], &cost)
            })
            .collect();
        let mut cache: ScheduleCache<u32> = ScheduleCache::with_capacity(2);
        cache.insert_if_better(keys[0], 0, |_, _| true);
        cache.insert_if_better(keys[1], 1, |_, _| true);
        assert_eq!(cache.evictions(), 0);
        // Touch keys[0] so keys[1] is now the LRU victim.
        assert_eq!(cache.get(&keys[0]), Some(&0));
        cache.insert_if_better(keys[2], 2, |_, _| true);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.peek(&keys[1]).is_none(), "LRU entry must be evicted");
        assert!(cache.peek(&keys[0]).is_some());
        // Replacing an existing entry does not evict.
        cache.insert_if_better(keys[2], 3, |_, _| true);
        assert_eq!(cache.evictions(), 1);
        // keys[2] was refreshed by the replacement, so keys[0]
        // (touched earlier) is the next victim.
        cache.insert_if_better(keys[3], 4, |_, _| true);
        assert_eq!(cache.evictions(), 2);
        assert!(cache.peek(&keys[0]).is_none());
        assert!(cache.peek(&keys[2]).is_some());
        assert!(cache.peek(&keys[3]).is_some());
    }

    #[test]
    fn retain_purges_stale_platforms() {
        let g = dag(5);
        let cost = table(&g);
        let mut drifted = cost.clone();
        drifted.device.exec_ms[0][0] *= 3.0;
        let fresh_fp = drifted.platform_fingerprint();
        let stale = ScheduleCacheKey::for_platform(&g, &[true, true], &cost);
        let stale_partial = ScheduleCacheKey::for_platform(&g, &[true, false], &cost);
        let fresh = ScheduleCacheKey::for_platform(&g, &[true, true], &drifted);
        let mut cache: ScheduleCache<u32> = ScheduleCache::new();
        cache.insert_if_better(stale, 1, |_, _| true);
        cache.insert_if_better(stale_partial, 2, |_, _| true);
        cache.insert_if_better(fresh, 3, |_, _| true);
        let dropped = cache.retain(|k| k.platform_fp == fresh_fp);
        assert_eq!(dropped, 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.peek(&fresh).is_some());
        assert!(cache.peek(&stale).is_none());
    }
}
