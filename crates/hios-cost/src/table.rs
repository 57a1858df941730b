//! The materialized cost snapshot consumed by every scheduler, and the
//! concurrency model behind `t(S)`.

use crate::topology::{NO_LINK, Topology};
use hios_graph::hash::Fnv;
use hios_graph::{Graph, OpId};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Parameters of the concurrent-execution model.
///
/// Each operator carries an SM-utilization fraction `u(v) ∈ (0, 1]`: the
/// share of the GPU's streaming multiprocessors its kernel can keep busy
/// when running alone.  For a stage `S` of independent operators issued on
/// concurrent CUDA streams we model (with `U = Σ u(v)`, `work = Σ t(v)·u(v)`,
/// `tmax = max t(v)`):
///
/// ```text
/// t(S) = max(tmax, work) · contention(U) + stream_overhead_ms · (|S| - 1)
/// contention(U) = 1                                  if U ≤ 1
///               = 1 + contention_alpha · (U - 1)     if U > 1
/// ```
///
/// * `U ≤ 1` — the kernels fit side by side; the stage finishes with the
///   slowest one (under-utilization regime, left of the paper's Fig. 1
///   crossover).
/// * `U > 1` — the SMs are oversubscribed; the machine is work-conserving
///   (`work` bound) but pays a contention/context-switch penalty
///   (`contention_alpha`), so two saturating kernels run *slower* in
///   parallel than back to back — the right side of Fig. 1.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConcurrencyParams {
    /// Relative contention penalty per unit of SM oversubscription.
    /// Fig. 1 measures parallel/sequential ratios of up to ≈1.15 for two
    /// saturating convolutions, i.e. alpha ≈ 0.15.
    pub contention_alpha: f64,
    /// Fixed per-extra-stream cost, ms: kernel launches into different
    /// CUDA streams still serialize on the driver thread, and stages end
    /// with a stream synchronization; ~10 us per extra stream on the A40
    /// testbed.  This is what keeps concurrent-stage gains modest for
    /// very short kernels.
    pub stream_overhead_ms: f64,
}

impl Default for ConcurrencyParams {
    fn default() -> Self {
        ConcurrencyParams {
            contention_alpha: 0.15,
            stream_overhead_ms: 0.01,
        }
    }
}

/// Per-device-class operator costs: row `c` of each matrix holds the
/// per-op values as measured (or modeled) on device class `c`.
///
/// The paper's homogeneous setting is the one-row special case; the
/// accessors on [`CostTable`] degenerate to the same arithmetic on the
/// same values there, which keeps homogeneous schedules bit-identical to
/// the pre-refactor flat vectors.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceCosts {
    /// `exec_ms[class][op]` = `t(v)` alone on one GPU of `class`, ms.
    pub exec_ms: Vec<Vec<f64>>,
    /// `util[class][op]` = SM-utilization fraction of `v` on `class`.
    pub util: Vec<Vec<f64>>,
}

impl DeviceCosts {
    /// One device class — the paper's homogeneous setting.
    pub fn homogeneous(exec_ms: Vec<f64>, util: Vec<f64>) -> Self {
        DeviceCosts {
            exec_ms: vec![exec_ms],
            util: vec![util],
        }
    }

    /// Number of device classes (matrix rows).
    pub(crate) fn num_classes(&self) -> usize {
        self.exec_ms.len()
    }

    /// Number of operators covered (matrix columns).
    pub fn num_ops(&self) -> usize {
        self.exec_ms.first().map_or(0, Vec::len)
    }
}

/// Per-graph cost snapshot: everything the schedulers need, indexed by
/// device class, link class and [`OpId`].
///
/// A `CostTable` is produced by the analytic model, the random simulation
/// model, or deserialized from a profiling JSON file.  `transfer_ms[l][v]`
/// is the transfer time of `v`'s output tensor over link class `l`; both
/// of our sources (and the paper's §V-A setting `t(u,v) = max(0.1 ms,
/// p·t(u))`) make the edge cost a function of the producer and the link,
/// and the [`Topology`] maps a concrete `(src_gpu, dst_gpu)` pair to its
/// link class.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostTable {
    /// Human-readable provenance ("A40 analytic", "random(seed=3)", ...).
    pub source: String,
    /// Per-device-class execution costs.
    pub device: DeviceCosts,
    /// `transfer_ms[link][op]`: transfer time of `op`'s output over each
    /// link class, ms.
    pub transfer_ms: Vec<Vec<f64>>,
    /// Maps GPUs to device classes and GPU pairs to link classes.
    pub topology: Topology,
    /// Concurrency model for `t(S)`.
    pub concurrency: ConcurrencyParams,
    /// Per-kernel launch overhead, ms (used by the discrete-event
    /// simulator to model the CUDA-aware-MPI launch gap of §VI-E).
    pub launch_overhead_ms: f64,
}

impl CostTable {
    /// A homogeneous table — the paper's setting and the mechanical
    /// migration path for every pre-refactor call site: one device class,
    /// one link class, a [`Topology::uniform`] that covers any GPU count.
    pub fn homogeneous(
        source: impl Into<String>,
        exec_ms: Vec<f64>,
        util: Vec<f64>,
        transfer_out_ms: Vec<f64>,
        concurrency: ConcurrencyParams,
        launch_overhead_ms: f64,
    ) -> Self {
        CostTable {
            source: source.into(),
            device: DeviceCosts::homogeneous(exec_ms, util),
            transfer_ms: vec![transfer_out_ms],
            topology: Topology::uniform(),
            concurrency,
            launch_overhead_ms,
        }
    }

    /// A heterogeneous table from explicit matrices and a topology.
    pub fn heterogeneous(
        source: impl Into<String>,
        device: DeviceCosts,
        transfer_ms: Vec<Vec<f64>>,
        topology: Topology,
        concurrency: ConcurrencyParams,
        launch_overhead_ms: f64,
    ) -> Self {
        CostTable {
            source: source.into(),
            device,
            transfer_ms,
            topology,
            concurrency,
            launch_overhead_ms,
        }
    }

    /// Number of operators covered.
    pub fn num_ops(&self) -> usize {
        self.device.num_ops()
    }

    /// `t(v)` in ms on the reference device class (class 0).  Placement-
    /// aware code paths use [`CostTable::exec_on`]; this is the row the
    /// homogeneous setting reads.
    #[inline]
    pub fn exec(&self, v: OpId) -> f64 {
        self.device.exec_ms[0][v.index()]
    }

    /// `t(v)` in ms on the device class of `gpu`.
    #[inline]
    pub fn exec_on(&self, gpu: usize, v: OpId) -> f64 {
        self.device.exec_ms[self.topology.class_of(gpu)][v.index()]
    }

    /// Slowest `t(v)` over all device classes (worst-case path pricing
    /// before a placement is known).  Identity on homogeneous tables.
    #[inline]
    pub fn exec_worst(&self, v: OpId) -> f64 {
        let i = v.index();
        self.device
            .exec_ms
            .iter()
            .map(|row| row[i])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Fastest `t(v)` over all device classes (admissible lower-bound
    /// pricing).  Identity on homogeneous tables.
    #[inline]
    pub fn exec_best(&self, v: OpId) -> f64 {
        let i = v.index();
        self.device
            .exec_ms
            .iter()
            .map(|row| row[i])
            .fold(f64::INFINITY, f64::min)
    }

    /// Smallest SM-work `t(v)·u(v)` over all device classes (admissible
    /// work-bound pricing).  Identity on homogeneous tables.
    #[inline]
    pub fn work_best(&self, v: OpId) -> f64 {
        let i = v.index();
        (0..self.device.num_classes())
            .map(|c| self.device.exec_ms[c][i] * self.device.util[c][i])
            .fold(f64::INFINITY, f64::min)
    }

    /// SM utilization of `v` on the reference device class (class 0).
    #[inline]
    pub fn util_of(&self, v: OpId) -> f64 {
        self.device.util[0][v.index()]
    }

    /// `t(u, src → dst)` in ms: transfer time of `u`'s output when its
    /// consumer sits on a different GPU, priced over the link class the
    /// topology assigns to the ordered pair.  Unconnected pairs price as
    /// `+inf` (same-GPU edges never consult this; the pre-refactor
    /// `transfer(u, _v)` discarded the pair entirely).
    #[inline]
    pub fn transfer(&self, u: OpId, src_gpu: usize, dst_gpu: usize) -> f64 {
        let link = self.topology.link_between(src_gpu, dst_gpu);
        if link == NO_LINK {
            f64::INFINITY
        } else {
            self.transfer_ms[link][u.index()]
        }
    }

    /// Slowest transfer of `u`'s output over any link class (worst-case
    /// path pricing before a placement is known).  Identity on
    /// homogeneous tables.
    #[inline]
    pub fn transfer_worst(&self, u: OpId) -> f64 {
        let i = u.index();
        self.transfer_ms
            .iter()
            .map(|row| row[i])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// `t(S)` on the reference device class (class 0) — what the
    /// homogeneous setting reads; placement-aware code paths use
    /// [`CostTable::concurrent_on`].
    pub fn concurrent(&self, set: &[OpId]) -> f64 {
        self.concurrent_class(0, set)
    }

    /// `t(S)`: duration of a stage of independent operators started
    /// together on `gpu` (see [`ConcurrencyParams`]), priced on that
    /// GPU's device class.
    pub fn concurrent_on(&self, gpu: usize, set: &[OpId]) -> f64 {
        self.concurrent_class(self.topology.class_of(gpu), set)
    }

    fn concurrent_class(&self, class: usize, set: &[OpId]) -> f64 {
        let (exec, util) = (&self.device.exec_ms[class], &self.device.util[class]);
        match set {
            [] => 0.0,
            [v] => exec[v.index()],
            _ => {
                let mut total_util = 0.0;
                let mut work = 0.0;
                let mut tmax = 0.0f64;
                for &v in set {
                    let t = exec[v.index()];
                    let u = util[v.index()];
                    total_util += u;
                    work += t * u;
                    tmax = tmax.max(t);
                }
                let base = tmax.max(work);
                let contention = if total_util > 1.0 {
                    1.0 + self.concurrency.contention_alpha * (total_util - 1.0)
                } else {
                    1.0
                };
                base * contention + self.concurrency.stream_overhead_ms * (set.len() - 1) as f64
            }
        }
    }

    /// Sum of all operator times on GPU 0's device class: the
    /// sequential-schedule latency and an upper bound for every schedule
    /// on one GPU.
    pub fn total_exec(&self) -> f64 {
        self.device.exec_ms[self.topology.class_of(0)].iter().sum()
    }

    /// The slot view over the physical GPUs in `gpu_map`: slot `i` prices
    /// as physical GPU `gpu_map[i]`.  Every slot schedule is planned,
    /// re-priced and run on it.  A table on which every GPU prices alike
    /// is lent out untouched; a heterogeneous one is re-indexed.
    pub fn restrict_gpus(&self, gpu_map: &[usize]) -> Cow<'_, CostTable> {
        if self.topology.is_uniform() {
            return Cow::Borrowed(self);
        }
        Cow::Owned(CostTable {
            topology: self.topology.restrict(gpu_map),
            ..self.clone()
        })
    }

    /// Fingerprint of everything that affects pricing: the topology
    /// mapping and the bit patterns of every cost row, folded a whole
    /// word at a time ([`Fnv::word`]).  Two tables with equal fingerprints
    /// price every schedule identically, so schedule caches key on this
    /// (a cached plan for one platform must not be replayed on another).
    pub fn platform_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.device.num_classes() as u64);
        h.word(self.transfer_ms.len() as u64);
        for &c in &self.topology.device_class {
            h.word(c as u64);
        }
        for &l in &self.topology.link_class {
            h.word(l as u64);
        }
        for row in self.device.exec_ms.iter().chain(self.device.util.iter()) {
            for &x in row {
                h.word(x.to_bits());
            }
        }
        for row in &self.transfer_ms {
            for &x in row {
                h.word(x.to_bits());
            }
        }
        h.word(self.launch_overhead_ms.to_bits());
        h.word(self.concurrency.contention_alpha.to_bits());
        h.word(self.concurrency.stream_overhead_ms.to_bits());
        h.finish()
    }

    /// Validates the table against a graph: one entry per operator in
    /// every class row, strictly positive times, utilizations in
    /// `(0, 1]`, and a topology whose class indices stay inside the
    /// matrices.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        let n = g.num_ops();
        if self.device.exec_ms.is_empty() || self.transfer_ms.is_empty() {
            return Err("cost table has no device or link classes".into());
        }
        if self.device.util.len() != self.device.exec_ms.len() {
            return Err(format!(
                "{} util rows for {} exec rows",
                self.device.util.len(),
                self.device.exec_ms.len()
            ));
        }
        for row in self.device.exec_ms.iter().chain(self.device.util.iter()) {
            if row.len() != n {
                return Err(format!("cost row covers {} ops, graph has {n}", row.len()));
            }
        }
        for row in &self.transfer_ms {
            if row.len() != n {
                return Err(format!(
                    "transfer row covers {} ops, graph has {n}",
                    row.len()
                ));
            }
        }
        if !self.topology.is_uniform() {
            let m = self.topology.num_gpus();
            if self.topology.link_class.len() != m * m {
                return Err(format!(
                    "link matrix has {} entries for {m} GPUs",
                    self.topology.link_class.len()
                ));
            }
            for &c in &self.topology.device_class {
                if c >= self.device.num_classes() {
                    return Err(format!("topology names undefined device class {c}"));
                }
            }
            for &l in &self.topology.link_class {
                if l != NO_LINK && l >= self.transfer_ms.len() {
                    return Err(format!("topology names undefined link class {l}"));
                }
            }
        }
        for v in g.op_ids() {
            for c in 0..self.device.num_classes() {
                let t = self.device.exec_ms[c][v.index()];
                let u = self.device.util[c][v.index()];
                if !(t > 0.0 && t.is_finite()) {
                    return Err(format!("non-positive exec time {t} for {v} on class {c}"));
                }
                if !(u > 0.0 && u <= 1.0) {
                    return Err(format!(
                        "utilization {u} for {v} on class {c} outside (0, 1]"
                    ));
                }
            }
            for (l, row) in self.transfer_ms.iter().enumerate() {
                let x = row[v.index()];
                if !(x >= 0.0 && x.is_finite()) {
                    return Err(format!("bad transfer time {x} for {v} on link {l}"));
                }
            }
        }
        Ok(())
    }

    /// Serializes to pretty JSON (the profile-file interchange format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("cost table serialization is infallible")
    }

    /// Parses a table from JSON produced by [`CostTable::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hios_graph::GraphBuilder;

    fn table(exec: &[f64], util: &[f64]) -> CostTable {
        CostTable::homogeneous(
            "test",
            exec.to_vec(),
            util.to_vec(),
            vec![0.1; exec.len()],
            ConcurrencyParams {
                contention_alpha: 0.15,
                stream_overhead_ms: 0.0,
            },
            0.005,
        )
    }

    /// Two device classes (class 1 is 2× slower), two link classes
    /// (link 1 is 10× slower), three GPUs: 0,1 = class 0 over link 0,
    /// GPU 2 = class 1 behind link 1.
    fn hetero_table(exec: &[f64], util: &[f64]) -> CostTable {
        let slow: Vec<f64> = exec.iter().map(|t| t * 2.0).collect();
        let fast_link = vec![0.1; exec.len()];
        let slow_link = vec![1.0; exec.len()];
        CostTable::heterogeneous(
            "test-hetero",
            DeviceCosts {
                exec_ms: vec![exec.to_vec(), slow],
                util: vec![util.to_vec(), util.to_vec()],
            },
            vec![fast_link, slow_link],
            Topology::hetero(vec![0, 0, 1], vec![0, 0, 1, 0, 0, 1, 1, 1, 0]),
            ConcurrencyParams {
                contention_alpha: 0.15,
                stream_overhead_ms: 0.0,
            },
            0.005,
        )
    }

    #[test]
    fn singleton_stage_equals_exec() {
        let t = table(&[2.0, 3.0], &[0.5, 1.0]);
        assert_eq!(t.concurrent(&[OpId(0)]), 2.0);
        assert_eq!(t.concurrent(&[]), 0.0);
    }

    #[test]
    fn small_ops_parallelize_perfectly() {
        // Two ops at utilization 0.3: fit side by side, stage = max time.
        let t = table(&[2.0, 1.0], &[0.3, 0.3]);
        assert_eq!(t.concurrent(&[OpId(0), OpId(1)]), 2.0);
    }

    #[test]
    fn saturating_ops_contend() {
        // Two identical saturating ops: slower than sequential (Fig. 1
        // right-hand regime).
        let t = table(&[2.0, 2.0], &[1.0, 1.0]);
        let both = t.concurrent(&[OpId(0), OpId(1)]);
        let sequential = 4.0;
        assert!(both > sequential, "{both} must exceed {sequential}");
        assert!((both - 4.0 * 1.15).abs() < 1e-12);
    }

    #[test]
    fn work_conserving_bound() {
        // A saturating op plus a half-utilization op: bounded below by the
        // total SM-work, above by sequential execution.
        let t = table(&[3.0, 1.0], &[1.0, 0.5]);
        let both = t.concurrent(&[OpId(0), OpId(1)]);
        assert!(both >= 3.5);
        assert!(both < 4.0);
    }

    #[test]
    fn stream_overhead_accumulates() {
        let mut t = table(&[1.0, 1.0, 1.0], &[0.2, 0.2, 0.2]);
        t.concurrency.stream_overhead_ms = 0.01;
        let s = t.concurrent(&[OpId(0), OpId(1), OpId(2)]);
        assert!((s - (1.0 + 0.02)).abs() < 1e-12);
    }

    #[test]
    fn stage_never_beats_critical_member() {
        let t = table(&[5.0, 0.1], &[0.9, 0.05]);
        assert!(t.concurrent(&[OpId(0), OpId(1)]) >= 5.0);
    }

    #[test]
    fn per_gpu_accessors_price_device_classes() {
        let t = hetero_table(&[2.0, 3.0], &[0.5, 1.0]);
        // GPUs 0 and 1 are the fast class, GPU 2 is 2× slower.
        assert_eq!(t.exec_on(0, OpId(0)), 2.0);
        assert_eq!(t.exec_on(1, OpId(0)), 2.0);
        assert_eq!(t.exec_on(2, OpId(0)), 4.0);
        assert_eq!(t.exec(OpId(0)), 2.0, "class-0 reference row");
        assert_eq!(t.exec_worst(OpId(1)), 6.0);
        assert_eq!(t.exec_best(OpId(1)), 3.0);
        // Concurrent stages price on the stage's device class.
        let fast = t.concurrent_on(0, &[OpId(0), OpId(1)]);
        let slow = t.concurrent_on(2, &[OpId(0), OpId(1)]);
        assert!((slow - 2.0 * fast).abs() < 1e-9, "{slow} vs {fast}");
    }

    #[test]
    fn transfer_prices_the_pair_not_just_the_producer() {
        // Regression for the pre-refactor `transfer(u, _v)` footgun: the
        // same producer's output must price differently over the NVLink
        // pair (0 → 1) than over the PCIe cross-link (0 → 2).
        let t = hetero_table(&[2.0, 3.0], &[0.5, 1.0]);
        let nvlink_pair = t.transfer(OpId(0), 0, 1);
        let pcie_cross = t.transfer(OpId(0), 0, 2);
        assert_eq!(nvlink_pair, 0.1);
        assert_eq!(pcie_cross, 1.0);
        assert!(pcie_cross > nvlink_pair);
        assert_eq!(t.transfer_worst(OpId(0)), 1.0);
    }

    #[test]
    fn unconnected_pairs_price_as_infinite() {
        let mut t = hetero_table(&[2.0, 3.0], &[0.5, 1.0]);
        t.topology.link_class[2] = crate::topology::NO_LINK; // (0, 2)
        assert!(t.transfer(OpId(0), 0, 2).is_infinite());
        assert!(t.transfer(OpId(0), 2, 0).is_finite());
    }

    #[test]
    fn uniform_tables_cover_any_gpu_count() {
        let t = table(&[2.0, 3.0], &[0.5, 1.0]);
        assert!(t.topology.covers(16));
        assert_eq!(t.exec_on(7, OpId(0)), t.exec(OpId(0)));
        assert_eq!(t.transfer(OpId(0), 3, 11), 0.1);
        assert_eq!(t.exec_worst(OpId(0)), t.exec(OpId(0)));
        assert_eq!(t.exec_best(OpId(0)), t.exec(OpId(0)));
        let hetero = hetero_table(&[2.0, 3.0], &[0.5, 1.0]);
        assert!(hetero.topology.covers(3));
        assert!(!hetero.topology.covers(4));
    }

    #[test]
    fn restrict_gpus_reindexes_slots() {
        let t = hetero_table(&[2.0, 3.0], &[0.5, 1.0]);
        let r = t.restrict_gpus(&[1, 2]);
        // Slot 0 = physical GPU 1 (fast class), slot 1 = physical GPU 2
        // (slow class, behind the slow link).
        assert_eq!(r.exec_on(0, OpId(0)), 2.0);
        assert_eq!(r.exec_on(1, OpId(0)), 4.0);
        assert_eq!(r.transfer(OpId(0), 0, 1), 1.0);
        assert!(r.topology.covers(2) && !r.topology.covers(3));
        // Uniform tables are lent out as they are.
        let u = table(&[2.0, 3.0], &[0.5, 1.0]);
        assert!(matches!(u.restrict_gpus(&[1]), Cow::Borrowed(b) if std::ptr::eq(b, &u)));
    }

    #[test]
    fn fingerprint_tracks_platform_changes() {
        let a = table(&[2.0, 3.0], &[0.5, 1.0]);
        let b = table(&[2.0, 3.0], &[0.5, 1.0]);
        assert_eq!(a.platform_fingerprint(), b.platform_fingerprint());

        let mut faster = table(&[2.0, 3.0], &[0.5, 1.0]);
        faster.device.exec_ms[0][0] = 1.0;
        assert_ne!(a.platform_fingerprint(), faster.platform_fingerprint());

        let hetero = hetero_table(&[2.0, 3.0], &[0.5, 1.0]);
        assert_ne!(a.platform_fingerprint(), hetero.platform_fingerprint());
        let mut relinked = hetero_table(&[2.0, 3.0], &[0.5, 1.0]);
        relinked.topology.link_class[2] = 0;
        assert_ne!(
            hetero.platform_fingerprint(),
            relinked.platform_fingerprint()
        );
    }

    #[test]
    fn validate_catches_mismatches() {
        let mut b = GraphBuilder::new();
        b.add_synthetic("a", &[]);
        b.add_synthetic("b", &[]);
        let g = b.build();
        let good = table(&[1.0, 2.0], &[0.5, 0.5]);
        assert!(good.validate(&g).is_ok());
        assert!(hetero_table(&[1.0, 2.0], &[0.5, 0.5]).validate(&g).is_ok());

        let mut short = good.clone();
        short.device.exec_ms[0].pop();
        assert!(short.validate(&g).is_err());

        let mut neg = good.clone();
        neg.device.exec_ms[0][0] = 0.0;
        assert!(neg.validate(&g).is_err());

        let mut badu = good.clone();
        badu.device.util[0][1] = 1.5;
        assert!(badu.validate(&g).is_err());

        let mut badx = good;
        badx.transfer_ms[0][0] = f64::NAN;
        assert!(badx.validate(&g).is_err());

        let mut badclass = hetero_table(&[1.0, 2.0], &[0.5, 0.5]);
        badclass.topology.device_class[2] = 7;
        assert!(badclass.validate(&g).is_err());

        let mut badslow = hetero_table(&[1.0, 2.0], &[0.5, 0.5]);
        badslow.device.exec_ms[1][1] = -1.0;
        assert!(badslow.validate(&g).is_err());
    }

    #[test]
    fn json_round_trip() {
        for t in [
            table(&[1.0, 2.0], &[0.5, 1.0]),
            hetero_table(&[1.0, 2.0], &[0.5, 1.0]),
        ] {
            assert_eq!(CostTable::from_json(&t.to_json()).unwrap(), t);
        }
    }

    #[test]
    fn total_exec_is_sequential_latency() {
        let t = table(&[1.0, 2.0, 3.5], &[0.5, 0.5, 0.5]);
        assert!((t.total_exec() - 6.5).abs() < 1e-12);
    }
}
