//! The one bounded table of the serving layer (DESIGN §9.9): the
//! ladder's plan cache and every memo of the serving loop are an [`Lru`].
//!
//! Every table here holds a handful to a few hundred entries and its hot
//! lookups hit at the front, so keys are compared with `PartialEq` by a
//! linear scan in recency order — no hashing, so nothing about the order
//! of entries, and so nothing that is evicted, depends on a hasher.

/// At most `capacity` entries, most recently used first.  Beyond the
/// capacity the least recently used entry is evicted; a capacity of 0
/// remembers nothing.
pub(crate) struct Lru<K, V> {
    /// Most recently used first.
    entries: Vec<(K, V)>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: PartialEq, V> Lru<K, V> {
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            entries: Vec::new(),
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The index of the entry under `key`.  A lookup key may borrow what
    /// an entry's key owns (`K: PartialEq<Q>`), so that a lookup
    /// allocates nothing.
    fn position<Q: ?Sized>(&self, key: &Q) -> Option<usize>
    where
        K: PartialEq<Q>,
    {
        self.entries.iter().position(|(k, _)| k == key)
    }

    /// Looks `key` up, counting a hit or a miss; a hit becomes the most
    /// recently used entry.
    pub(crate) fn get<Q: ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: PartialEq<Q>,
    {
        let Some(i) = self.position(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.entries[..=i].rotate_right(1);
        Some(&mut self.entries[0].1)
    }

    /// [`Lru::get`] on a memo, with the memo's check — the only one in
    /// the serving layer.  A debug build (every `cargo test`) recomputes
    /// each hit with `fresh` and asserts `same(remembered, &fresh)`; a
    /// release build never calls `fresh`.  `fresh` must draw nothing a
    /// run can observe (a counter, a name).  On a miss the caller
    /// computes the entry and inserts it.
    #[track_caller]
    pub(crate) fn recall<Q: ?Sized, F>(
        &mut self,
        key: &Q,
        fresh: impl FnOnce() -> F,
        same: impl FnOnce(&V, &F) -> bool,
    ) -> Option<&mut V>
    where
        K: PartialEq<Q>,
    {
        let hit = self.get(key)?;
        if cfg!(debug_assertions) {
            assert!(
                same(hit, &fresh()),
                "a memo hit diverged from its recomputation"
            );
        }
        Some(hit)
    }

    /// Looks `key` up without counting it or refreshing its recency.
    pub(crate) fn peek<Q: ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: PartialEq<Q>,
    {
        self.position(key).map(|i| &self.entries[i].1)
    }

    /// Puts `value` under `key` as the most recently used entry,
    /// replacing what `key` held.  A new key beyond the capacity evicts
    /// the least recently used entry, which is returned (at capacity 0,
    /// the new entry itself).
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        match self.position(&key) {
            Some(i) => {
                self.entries[..=i].rotate_right(1);
                self.entries[0] = (key, value);
                None
            }
            None => {
                self.entries.insert(0, (key, value));
                if self.entries.len() <= self.capacity {
                    return None;
                }
                self.evictions += 1;
                self.entries.pop()
            }
        }
    }

    /// [`Lru::insert`] unless `key` holds an entry that `better(&value,
    /// held)` does not beat: a tie keeps the incumbent, and does not
    /// refresh it.  Returns whether the entry changed.
    pub(crate) fn insert_if_better(
        &mut self,
        key: K,
        value: V,
        better: impl FnOnce(&V, &V) -> bool,
    ) -> bool {
        if self.peek(&key).is_some_and(|held| !better(&value, held)) {
            return false;
        }
        self.insert(key, value);
        true
    }

    /// Keeps only the entries `keep` accepts, in their order; returns how
    /// many were dropped.  Drops are not evictions.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain_mut(|(k, v)| keep(k, v));
        before - self.entries.len()
    }

    /// The entries, most recently used first.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// `(hits, misses)` of [`Lru::get`] and [`Lru::recall`].
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Entries evicted at the capacity (not [`Lru::retain`] drops).
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hios_core::ScheduleCacheKey;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The key of graph `graph_fp` on `alive`, priced on `platform_fp`.
    fn key(graph_fp: u64, alive: &[bool], platform_fp: u64) -> ScheduleCacheKey {
        ScheduleCacheKey::from_fingerprints(graph_fp, alive, platform_fp)
    }

    #[test]
    fn insert_if_better_keeps_the_best_and_counts() {
        let key = key(4, &[true, true], 7);
        let mut cache: Lru<ScheduleCacheKey, f64> = Lru::new(usize::MAX);
        assert!(cache.get(&key).is_none());
        assert!(cache.insert_if_better(key, 10.0, |new, old| new < old));
        assert!(!cache.insert_if_better(key, 12.0, |new, old| new < old));
        assert!(cache.insert_if_better(key, 8.0, |new, old| new < old));
        assert_eq!(cache.get(&key), Some(&mut 8.0));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.retain(|k, _| *k != key), 1);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn lru_eviction_is_bounded_and_deterministic() {
        let keys: Vec<ScheduleCacheKey> = (0..4)
            .map(|i| {
                let mut alive = [true; 5];
                alive[i] = false;
                key(6, &alive, 7)
            })
            .collect();
        let mut cache: Lru<ScheduleCacheKey, u32> = Lru::new(2);
        cache.insert_if_better(keys[0], 0, |_, _| true);
        cache.insert_if_better(keys[1], 1, |_, _| true);
        assert_eq!(cache.evictions(), 0);
        // Touch keys[0] so keys[1] is now the LRU victim.
        assert_eq!(cache.get(&keys[0]), Some(&mut 0));
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
        let (stale_fp, fresh_fp) = (7, 8);
        let stale = key(5, &[true, true], stale_fp);
        let stale_partial = key(5, &[true, false], stale_fp);
        let fresh = key(5, &[true, true], fresh_fp);
        let mut cache: Lru<ScheduleCacheKey, u32> = Lru::new(usize::MAX);
        cache.insert_if_better(stale, 1, |_, _| true);
        cache.insert_if_better(stale_partial, 2, |_, _| true);
        cache.insert_if_better(fresh, 3, |_, _| true);
        let dropped = cache.retain(|k, _| k.platform_fp == fresh_fp);
        assert_eq!(dropped, 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0, "drops are not evictions");
        assert!(cache.peek(&fresh).is_some());
        assert!(cache.peek(&stale).is_none());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds skip the memo check")]
    #[should_panic(expected = "diverged from its recomputation")]
    fn a_hit_that_recomputes_differently_fails_the_check() {
        let mut memo: Lru<u8, u32> = Lru::new(1);
        memo.insert(1, 10);
        assert_eq!(
            memo.recall(&1, || 10, |held, fresh| held == fresh),
            Some(&mut 10)
        );
        memo.recall(&1, || 11, |held, fresh| held == fresh);
    }

    /// The plan cache this table replaced, as a reference model: every
    /// entry stamped with the logical instant it was last touched, and
    /// the minimum stamp evicted beyond the capacity.
    #[derive(Default)]
    struct Stamped {
        entries: Vec<(u8, u32, u64)>,
        tick: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl Stamped {
        fn touch(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        fn get(&mut self, key: u8) -> Option<u32> {
            let tick = self.touch();
            match self.entries.iter_mut().find(|e| e.0 == key) {
                Some(e) => {
                    e.2 = tick;
                    self.hits += 1;
                    Some(e.1)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: u8, value: u32, capacity: usize) -> Option<(u8, u32)> {
            let tick = self.touch();
            self.entries.retain(|e| e.0 != key);
            self.entries.push((key, value, tick));
            if self.entries.len() <= capacity {
                return None;
            }
            let (victim, _) = self.entries.iter().enumerate().min_by_key(|(_, e)| e.2)?;
            let (k, v, _) = self.entries.remove(victim);
            self.evictions += 1;
            Some((k, v))
        }

        /// Entries most recently touched first.
        fn contents(&self) -> Vec<(u8, u32)> {
            let mut by_recency = self.entries.clone();
            by_recency.sort_by_key(|e| std::cmp::Reverse(e.2));
            by_recency.into_iter().map(|(k, v, _)| (k, v)).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random get / peek / insert / insert-if-better / retain
        /// sequences over six keys at capacities 0–4, against the
        /// tick-stamped model after every step: contents in recency
        /// order, victims, and hit / miss / eviction counts.
        #[test]
        fn recency_order_is_the_tick_order_of_the_stamped_cache(
            (seed, capacity) in (0u64..u64::MAX, 0usize..=4)
        ) {
            let mut rng = TestRng::for_case("lru-vs-stamped", seed);
            let mut lru: Lru<u8, u32> = Lru::new(capacity);
            let mut model = Stamped::default();
            for step in 0..200u32 {
                let key = rng.below(6) as u8;
                let value = rng.below(8) as u32;
                match rng.below(5) {
                    0 => prop_assert_eq!(lru.get(&key).copied(), model.get(key)),
                    1 => {
                        let held = model.entries.iter().find(|e| e.0 == key).map(|e| e.1);
                        prop_assert_eq!(lru.peek(&key).copied(), held);
                    }
                    2 => prop_assert_eq!(lru.insert(key, value), model.insert(key, value, capacity)),
                    3 => {
                        let held = model.entries.iter().find(|e| e.0 == key).map(|e| e.1);
                        let changed = held.is_none_or(|held| value < held);
                        if changed {
                            model.insert(key, value, capacity);
                        }
                        prop_assert_eq!(lru.insert_if_better(key, value, |new, old| new < old), changed);
                    }
                    _ => {
                        let keep = |k: &u8, v: &u32| (u32::from(*k) + v) % 3 != step % 3;
                        let before = model.entries.len();
                        model.entries.retain(|e| keep(&e.0, &e.1));
                        let dropped = before - model.entries.len();
                        prop_assert_eq!(lru.retain(|k, v| keep(k, v)), dropped);
                    }
                }
                let contents: Vec<(u8, u32)> = lru.iter_mut().map(|(&k, &mut v)| (k, v)).collect();
                prop_assert_eq!((step, contents), (step, model.contents()));
                prop_assert_eq!(
                    (step, lru.stats(), lru.evictions()),
                    (step, (model.hits, model.misses), model.evictions)
                );
            }
        }
    }
}
