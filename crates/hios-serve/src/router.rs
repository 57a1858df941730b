//! Deterministic fleet routing: per-tenant rendezvous hashing with
//! power-of-two-choices on queue depth.
//!
//! Each tenant (model) ranks every cluster by a rendezvous
//! (highest-random-weight) hash of `(seed, tenant, cluster)`.  The
//! ranking is a pure function of those three values: it never changes
//! as clusters die or heal, so a tenant's traffic is sticky — warm
//! schedule caches and plan stores keep paying off — and adding the
//! health view back in is just *filtering* the fixed ranking, never
//! re-shuffling it.
//!
//! Two policies share the ranking:
//!
//! * [`RouterPolicy::StaticHash`] — the ablation baseline: top-1 of the
//!   full ranking, health-blind.  Requests keep hashing onto a dead
//!   cluster and die with it.
//! * [`RouterPolicy::Failover`] — the fleet policy: the two
//!   highest-ranked *routable* clusters are the candidates, and
//!   power-of-two-choices picks whichever has the shorter live queue
//!   (ties keep rendezvous order).  The runner-up doubles as the hedge
//!   target for deadline-critical requests.

use crate::request::ServeError;
use hios_core::SchedulerError;

/// How the fleet router places fresh arrivals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Pure consistent hashing, blind to health: the ablation baseline
    /// that loses every request routed to a dead cluster.
    StaticHash,
    /// Health-filtered rendezvous ranking with power-of-two-choices and
    /// failover re-routing.
    Failover,
}

/// Knobs of the fleet router.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouterConfig {
    /// Placement policy.
    pub policy: RouterPolicy,
    /// Seed of the rendezvous hash (fleet-wide; changing it re-shards
    /// every tenant).
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            policy: RouterPolicy::Failover,
            seed: 0xF1EE7,
        }
    }
}

/// The router's verdict for one request: where it goes, and where its
/// hedged twin would go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Choice {
    /// The cluster the request is dispatched to.
    pub primary: usize,
    /// The second-choice cluster (hedge target), when one is routable.
    pub hedge: Option<usize>,
}

/// Largest fleet a [`Router`] places over; a routable set is therefore
/// one `u16` bitmask and a ranking one fixed array.
pub(crate) const MAX_CLUSTERS: usize = 16;

/// Deterministic per-tenant placement over `n` clusters.
#[derive(Clone, Debug)]
pub struct Router {
    cfg: RouterConfig,
    n: usize,
}

/// One tenant's clusters by descending rendezvous weight.  A pure
/// function of `(seed, tenant, n)`, so the fleet computes it once per
/// tenant and every routing decision after that only filters it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ranking {
    order: [u8; MAX_CLUSTERS],
    n: u8,
}

impl Ranking {
    fn clusters(&self) -> impl Iterator<Item = usize> + '_ {
        self.order[..usize::from(self.n)]
            .iter()
            .map(|&c| usize::from(c))
    }

    /// The health-blind top choice.
    pub(crate) fn top(&self) -> usize {
        usize::from(self.order[0])
    }

    /// The failover choice among the clusters whose bit is set in
    /// `routable`: see [`Router::choose`].
    pub(crate) fn choose(&self, routable: u16, depth: impl Fn(usize) -> usize) -> Option<Choice> {
        let mut top2 = self.clusters().filter(|&c| routable & (1 << c) != 0);
        let a = top2.next()?;
        Some(match top2.next() {
            Some(b) if depth(b) < depth(a) => Choice {
                primary: b,
                hedge: Some(a),
            },
            runner_up => Choice {
                primary: a,
                hedge: runner_up,
            },
        })
    }
}

/// splitmix64 finalizer: the same mixer the retry jitter and the
/// workload generator build on.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Router {
    /// A router over `n` clusters.
    pub fn new(cfg: RouterConfig, n: usize) -> Result<Self, ServeError> {
        if n == 0 || n > MAX_CLUSTERS {
            return Err(ServeError::Scheduler(SchedulerError::BadOptions(format!(
                "router: fleet size must be in 1..={MAX_CLUSTERS}, got {n}"
            ))));
        }
        Ok(Router { cfg, n })
    }

    /// The rendezvous weight of `(tenant, cluster)`.
    fn weight(&self, tenant: u64, cluster: usize) -> u64 {
        mix64(mix64(self.cfg.seed ^ tenant).wrapping_add(cluster as u64))
    }

    /// `tenant`'s ranking.  Weights are 64-bit hashes; a collision would
    /// need two of ≤16 clusters to hash identically, so ties break by
    /// index purely for paranoia's sake.
    pub(crate) fn ranking(&self, tenant: u64) -> Ranking {
        let mut weights = [0u64; MAX_CLUSTERS];
        let mut order = [0u8; MAX_CLUSTERS];
        for c in 0..self.n {
            weights[c] = self.weight(tenant, c);
            order[c] = c as u8; // n <= MAX_CLUSTERS
        }
        order[..self.n].sort_unstable_by_key(|&c| (std::cmp::Reverse(weights[usize::from(c)]), c));
        Ranking {
            order,
            n: self.n as u8,
        }
    }

    /// Every cluster, ranked by descending rendezvous weight for
    /// `tenant`.
    pub fn ranked(&self, tenant: u64) -> Vec<usize> {
        self.ranking(tenant).clusters().collect()
    }

    /// The health-blind static-hash target: top-1 of the full ranking.
    pub fn static_target(&self, tenant: u64) -> usize {
        self.ranking(tenant).top()
    }

    /// The failover choice: among the two highest-ranked clusters with
    /// `routable[c]` set, power-of-two-choices takes the one with the
    /// smaller `depth(c)` (ties keep rendezvous order); the other is the
    /// hedge target.  `None` when no cluster is routable.
    pub fn choose(
        &self,
        tenant: u64,
        routable: &[bool],
        depth: impl Fn(usize) -> usize,
    ) -> Option<Choice> {
        let mask = routable
            .iter()
            .take(self.n)
            .enumerate()
            .filter(|&(_, &up)| up)
            .fold(0u16, |mask, (c, _)| mask | 1 << c);
        self.ranking(tenant).choose(mask, depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(n: usize) -> Router {
        Router::new(RouterConfig::default(), n).unwrap()
    }

    #[test]
    fn ranking_is_deterministic_and_a_permutation() {
        let r = router(4);
        for tenant in 0..32u64 {
            let a = r.ranked(tenant);
            let b = r.ranked(tenant);
            assert_eq!(a, b);
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn tenants_spread_across_clusters() {
        let r = router(4);
        let mut hit = [false; 4];
        for tenant in 0..64u64 {
            hit[r.static_target(tenant)] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 tenants must touch all 4");
    }

    #[test]
    fn removing_a_cluster_only_reroutes_its_own_tenants() {
        // The consistent-hashing property: tenants whose top choice
        // survives keep it when another cluster becomes unroutable.
        let r = router(4);
        for tenant in 0..64u64 {
            let full: Vec<bool> = vec![true; 4];
            let all = r.choose(tenant, &full, |_| 0).unwrap();
            let dead = (all.primary + 1) % 4; // kill a non-primary
            let mut routable = full.clone();
            routable[dead] = false;
            let after = r.choose(tenant, &routable, |_| 0).unwrap();
            assert_eq!(after.primary, all.primary, "tenant {tenant}");
        }
    }

    #[test]
    fn p2c_prefers_the_shorter_queue_and_ties_keep_rank() {
        let r = router(4);
        let routable = vec![true; 4];
        let even = r.choose(7, &routable, |_| 3).unwrap();
        // Equal depths: rendezvous order wins, hedge is the runner-up.
        assert_eq!(even.primary, r.ranked(7)[0]);
        assert_eq!(even.hedge, Some(r.ranked(7)[1]));
        // Pile depth onto the rendezvous winner: P2C flips to second.
        let first = r.ranked(7)[0];
        let flipped = r
            .choose(7, &routable, |c| if c == first { 10 } else { 0 })
            .unwrap();
        assert_eq!(flipped.primary, r.ranked(7)[1]);
        assert_eq!(flipped.hedge, Some(first));
    }

    /// `Router::choose` as it stood before rankings were precomputed: a
    /// fresh `Vec` ranking, sorted by re-hashing, scanned for the top two.
    fn choose_by_sorting(
        r: &Router,
        tenant: u64,
        routable: &[bool],
        depth: impl Fn(usize) -> usize,
    ) -> Option<Choice> {
        let mut order: Vec<usize> = (0..r.n).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(r.weight(tenant, c)), c));
        let mut top2 = [None::<usize>; 2];
        for c in order {
            if !routable[c] {
                continue;
            }
            if top2[0].is_none() {
                top2[0] = Some(c);
            } else {
                top2[1] = Some(c);
                break;
            }
        }
        let a = top2[0]?;
        let Some(b) = top2[1] else {
            return Some(Choice {
                primary: a,
                hedge: None,
            });
        };
        if depth(b) < depth(a) {
            Some(Choice {
                primary: b,
                hedge: Some(a),
            })
        } else {
            Some(Choice {
                primary: a,
                hedge: Some(b),
            })
        }
    }

    #[test]
    fn precomputed_ranking_chooses_what_sorting_per_call_chose() {
        let r = router(4);
        let depths: [fn(usize) -> usize; 3] = [|_| 0, |c| c, |c| 3 - c];
        let mut cases = 0;
        for tenant in 0..64u64 {
            let ranking = r.ranking(tenant);
            for mask in 0..16u16 {
                let routable: Vec<bool> = (0..4).map(|c| mask & (1 << c) != 0).collect();
                for depth in depths {
                    let want = choose_by_sorting(&r, tenant, &routable, depth);
                    assert_eq!(ranking.choose(mask, depth), want, "{tenant} {mask:#06b}");
                    assert_eq!(r.choose(tenant, &routable, depth), want);
                    cases += 1;
                }
            }
            assert_eq!(ranking.top(), r.ranked(tenant)[0]);
        }
        assert_eq!(cases, 3_072);
    }

    #[test]
    fn static_target_ignores_health_and_failover_respects_it() {
        let r = router(3);
        for tenant in 0..16u64 {
            let primary = r.static_target(tenant);
            let mut routable = vec![true; 3];
            routable[primary] = false;
            // Static hash still points at the dead cluster...
            assert_eq!(r.static_target(tenant), primary);
            // ...failover never does.
            let c = r.choose(tenant, &routable, |_| 0).unwrap();
            assert_ne!(c.primary, primary);
            // No cluster routable → no choice.
            assert_eq!(r.choose(tenant, &[false, false, false], |_| 0), None);
        }
    }

    #[test]
    fn lone_survivor_has_no_hedge_target() {
        let r = router(2);
        let c = r.choose(3, &[true, false], |_| 0).unwrap();
        assert_eq!(c.primary, 0);
        assert_eq!(c.hedge, None);
    }

    #[test]
    fn bad_fleet_sizes_are_typed_errors() {
        assert!(Router::new(RouterConfig::default(), 0).is_err());
        assert!(Router::new(RouterConfig::default(), 17).is_err());
    }
}
