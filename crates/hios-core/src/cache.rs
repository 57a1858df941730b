//! Identity of a scheduling problem in a serving loop.
//!
//! A serving loop schedules the *same* model graphs over and over; only
//! the platform (which GPUs the circuit breakers currently admit)
//! changes.  [`ScheduleCacheKey`] names one such scheduling problem —
//! a structural graph fingerprint plus the alive-GPU mask and the
//! platform fingerprint.  The core crate defines *identity* (what makes
//! two scheduling problems the same); callers keep what they store under
//! it (the `hios-serve` ladder keeps its best-known plans in a bounded
//! recency-ordered table).

use hios_cost::CostTable;
use hios_graph::Graph;
use hios_graph::hash::Fnv;

/// Structural fingerprint of a computation graph: the identity hash
/// ([`Fnv`], byte-wise) of the operator count, every operator's name and
/// output shape, and the edge list.  Two graphs with the same
/// fingerprint are (with overwhelming probability) the same scheduling
/// problem; the id-ordered sweep makes the fingerprint deterministic
/// across runs and platforms.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(g.num_ops() as u64);
    for v in g.op_ids() {
        let node = g.node(v);
        h.write(node.name.as_bytes());
        h.write(&[0]);
        let s = &node.output_shape;
        for d in [s.n, s.c, s.h, s.w] {
            h.write(&d.to_le_bytes());
        }
    }
    for (u, v) in g.edges() {
        h.write(&(u.index() as u32).to_le_bytes());
        h.write(&(v.index() as u32).to_le_bytes());
    }
    h.finish()
}

/// Identity of one scheduling problem in a serving loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ScheduleCacheKey {
    /// [`graph_fingerprint`] of the model.
    pub graph_fp: u64,
    /// Bit `i` set ⇔ physical GPU `i` is available (breaker closed or
    /// half-open).  Platforms beyond 64 GPUs need a wider key;
    /// [`ScheduleCacheKey::from_fingerprints`] asserts the bound rather
    /// than silently aliasing.
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
        assert_eq!(all.alive_mask, 0b111);
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
}
