//! Schedule types: the output of every scheduling algorithm.

use hios_graph::hash::Fnv;
use hios_graph::{Graph, OpId};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Current version of the schedule interchange envelope written by
/// [`Schedule::to_value_versioned`].  Bumped when the schedule shape
/// changes incompatibly; readers accept any version up to this one and
/// fail with a typed [`ScheduleCodecError::Incompatible`] beyond it.
pub(crate) const SCHEDULE_FORMAT_VERSION: u32 = 1;

/// Typed failures of the versioned schedule codec.  The load path never
/// panics: malformed input from disk (or from an older/newer build) is
/// always a value of this type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleCodecError {
    /// The envelope was written by a newer build than this reader.
    Incompatible {
        /// Version found in the envelope.
        found: u32,
        /// Highest version this build understands.
        supported: u32,
    },
    /// The input does not decode as a schedule envelope.
    Malformed(String),
}

impl fmt::Display for ScheduleCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleCodecError::Incompatible { found, supported } => write!(
                f,
                "schedule envelope version {found} is newer than supported version {supported}"
            ),
            ScheduleCodecError::Malformed(msg) => write!(f, "malformed schedule envelope: {msg}"),
        }
    }
}

impl std::error::Error for ScheduleCodecError {}

/// A set of independent operators executed concurrently on one GPU
/// (paper §III-A, "Stage").  A stage may hold a single operator — e.g. a
/// large convolution that saturates the whole GPU.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage {
    /// Operators launched together, each on its own CUDA stream.
    pub ops: Vec<OpId>,
}

impl Stage {
    /// Single-operator stage.
    pub fn solo(v: OpId) -> Self {
        Stage { ops: vec![v] }
    }

    /// Multi-operator stage.
    pub fn group(ops: Vec<OpId>) -> Self {
        Stage { ops }
    }
}

/// The ordered stages assigned to one GPU; stages execute sequentially
/// (paper: `Q_i = {S_{i,j}}`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuSchedule {
    /// Stages in execution order.
    pub stages: Vec<Stage>,
}

impl GpuSchedule {
    /// Total operators on this GPU.
    pub fn num_ops(&self) -> usize {
        self.stages.iter().map(|s| s.ops.len()).sum()
    }
}

/// A complete schedule `Q = {Q_i | 1 ≤ i ≤ M}` for a computation graph on
/// `M` GPUs (paper §III-A).  GPUs with no operators keep an empty stage
/// list (`K_i = 0`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// Per-GPU stage sequences; `gpus.len()` is the GPU budget `M`.
    pub gpus: Vec<GpuSchedule>,
}

/// Structural errors detected by [`Schedule::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// An operator appears in no stage.
    MissingOp(OpId),
    /// An operator appears in more than one stage.
    DuplicateOp(OpId),
    /// An operator id outside the graph.
    UnknownOp(OpId),
    /// Two operators in the same stage have a direct dependency.
    DependentOpsInStage(OpId, OpId),
    /// A same-GPU dependency goes to an earlier (or the same) stage.
    OrderViolation(OpId, OpId),
    /// A stage with no operators.
    EmptyStage {
        /// GPU index of the offending stage.
        gpu: usize,
        /// Stage index on that GPU.
        stage: usize,
    },
    /// Cross-GPU stage dependencies form a circular wait (the implicit
    /// loop Alg. 2 line 10 must reject).
    StageCycle,
    /// An operator is placed on a GPU marked as failed.
    DeadGpu {
        /// An operator on the failed GPU.
        op: OpId,
        /// The failed GPU's index.
        gpu: usize,
    },
    /// The schedule uses more GPUs than the platform's topology covers.
    PlatformMismatch {
        /// GPU budget of the schedule.
        schedule_gpus: usize,
        /// GPUs the cost table's topology covers.
        platform_gpus: usize,
    },
    /// A cross-GPU dependency crosses a pair with no interconnect link
    /// (the transfer prices as +∞, so the schedule can never finish).
    UnconnectedPair {
        /// The producing operator.
        op: OpId,
        /// GPU of the producer.
        src_gpu: usize,
        /// GPU of the consumer.
        dst_gpu: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::MissingOp(v) => write!(f, "operator {v} is not scheduled"),
            ScheduleError::DuplicateOp(v) => write!(f, "operator {v} scheduled twice"),
            ScheduleError::UnknownOp(v) => write!(f, "operator {v} is not in the graph"),
            ScheduleError::DependentOpsInStage(u, v) => {
                write!(f, "dependent operators {u} -> {v} share a stage")
            }
            ScheduleError::OrderViolation(u, v) => {
                write!(
                    f,
                    "same-GPU dependency {u} -> {v} goes backwards in stage order"
                )
            }
            ScheduleError::EmptyStage { gpu, stage } => {
                write!(f, "empty stage {stage} on GPU {gpu}")
            }
            ScheduleError::StageCycle => write!(f, "circular wait between stages"),
            ScheduleError::DeadGpu { op, gpu } => {
                write!(f, "operator {op} is placed on failed GPU {gpu}")
            }
            ScheduleError::PlatformMismatch {
                schedule_gpus,
                platform_gpus,
            } => write!(
                f,
                "schedule spans {schedule_gpus} GPUs but the platform topology covers {platform_gpus}"
            ),
            ScheduleError::UnconnectedPair {
                op,
                src_gpu,
                dst_gpu,
            } => write!(
                f,
                "operator {op} feeds GPU {dst_gpu} from GPU {src_gpu} but the pair has no link"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Where an operator sits in a schedule: `(gpu, stage, slot)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpPlacement {
    /// GPU index.
    pub gpu: usize,
    /// Stage index on that GPU.
    pub stage: usize,
    /// Position within the stage.
    pub slot: usize,
}

impl Schedule {
    /// An empty schedule over `m` GPUs.
    pub fn empty(m: usize) -> Self {
        Schedule {
            gpus: vec![GpuSchedule::default(); m],
        }
    }

    /// Builds a schedule of singleton stages from per-GPU operator orders
    /// (the output shape of Alg. 1 and Alg. 3 before `parallelize()`).
    pub fn from_gpu_orders(orders: Vec<Vec<OpId>>) -> Self {
        Schedule {
            gpus: orders
                .into_iter()
                .map(|ops| GpuSchedule {
                    stages: ops.into_iter().map(Stage::solo).collect(),
                })
                .collect(),
        }
    }

    /// Number of GPUs this schedule may use (the budget `M`).
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Number of GPUs that actually received operators (`m ≤ M`).
    pub fn num_gpus_used(&self) -> usize {
        self.gpus.iter().filter(|g| !g.stages.is_empty()).count()
    }

    /// Total operators across all GPUs.
    pub fn num_ops(&self) -> usize {
        self.gpus.iter().map(GpuSchedule::num_ops).sum()
    }

    /// Largest stage cardinality (degree of intra-GPU parallelism used).
    pub fn max_stage_width(&self) -> usize {
        self.gpus
            .iter()
            .flat_map(|g| g.stages.iter())
            .map(|s| s.ops.len())
            .max()
            .unwrap_or(0)
    }

    /// Per-operator placement lookup, `None` for unscheduled ids.
    pub fn placements(&self, num_ops: usize) -> Vec<Option<OpPlacement>> {
        let mut out = vec![None; num_ops];
        for (gi, gpu) in self.gpus.iter().enumerate() {
            for (si, stage) in gpu.stages.iter().enumerate() {
                for (ki, &v) in stage.ops.iter().enumerate() {
                    if v.index() < num_ops {
                        out[v.index()] = Some(OpPlacement {
                            gpu: gi,
                            stage: si,
                            slot: ki,
                        });
                    }
                }
            }
        }
        out
    }

    /// Checks the structural feasibility of the schedule against `g`:
    /// complete coverage, no duplicates, no empty stages, stage members
    /// pairwise non-adjacent, same-GPU dependencies in forward stage order.
    ///
    /// Temporal feasibility across GPUs (absence of circular waits) is
    /// checked by the evaluator's stage-graph topological sort.
    pub fn validate(&self, g: &Graph) -> Result<(), ScheduleError> {
        let mut seen = vec![false; g.num_ops()];
        for (gi, gpu) in self.gpus.iter().enumerate() {
            for (si, stage) in gpu.stages.iter().enumerate() {
                if stage.ops.is_empty() {
                    return Err(ScheduleError::EmptyStage { gpu: gi, stage: si });
                }
                for &v in &stage.ops {
                    if v.index() >= g.num_ops() {
                        return Err(ScheduleError::UnknownOp(v));
                    }
                    if seen[v.index()] {
                        return Err(ScheduleError::DuplicateOp(v));
                    }
                    seen[v.index()] = true;
                }
            }
        }
        if let Some(idx) = seen.iter().position(|&s| !s) {
            return Err(ScheduleError::MissingOp(OpId::from_index(idx)));
        }
        let place = self.placements(g.num_ops());
        for (u, v) in g.edges() {
            let pu = place[u.index()].expect("validated above");
            let pv = place[v.index()].expect("validated above");
            if pu.gpu == pv.gpu {
                if pu.stage == pv.stage {
                    return Err(ScheduleError::DependentOpsInStage(u, v));
                }
                if pu.stage > pv.stage {
                    return Err(ScheduleError::OrderViolation(u, v));
                }
            }
        }
        Ok(())
    }

    /// [`Schedule::validate`] plus the two checks it defers: absence of
    /// circular waits between stages (same-GPU chain edges + cross-GPU
    /// data edges must form a DAG) and, when `alive` is given, that no
    /// operator sits on a GPU marked failed.
    ///
    /// This is the full structural gate a repaired schedule must pass
    /// before it is resumed, and what [`crate::api::run_scheduler`] runs
    /// behind [`crate::api::SchedulerOptions::validate`].
    pub fn validate_full(&self, g: &Graph, alive: Option<&[bool]>) -> Result<(), ScheduleError> {
        self.validate(g)?;
        if let Some(alive) = alive {
            for (gi, gpu) in self.gpus.iter().enumerate() {
                let dead = gi >= alive.len() || !alive[gi];
                if dead && !gpu.stages.is_empty() {
                    return Err(ScheduleError::DeadGpu {
                        op: gpu.stages[0].ops[0],
                        gpu: gi,
                    });
                }
            }
        }

        // Stage graph: flat ids, chain edges, cross-GPU data edges.
        let mut base = Vec::with_capacity(self.gpus.len());
        let mut n_stages = 0usize;
        for gpu in &self.gpus {
            base.push(n_stages);
            n_stages += gpu.stages.len();
        }
        let place = self.placements(g.num_ops());
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n_stages];
        let mut indeg = vec![0u32; n_stages];
        for (gi, gpu) in self.gpus.iter().enumerate() {
            for si in 1..gpu.stages.len() {
                succs[base[gi] + si - 1].push(base[gi] + si);
                indeg[base[gi] + si] += 1;
            }
        }
        for (u, v) in g.edges() {
            let pu = place[u.index()].expect("coverage checked by validate");
            let pv = place[v.index()].expect("coverage checked by validate");
            if pu.gpu != pv.gpu {
                succs[base[pu.gpu] + pu.stage].push(base[pv.gpu] + pv.stage);
                indeg[base[pv.gpu] + pv.stage] += 1;
            }
        }
        let mut work: Vec<usize> = (0..n_stages).filter(|&s| indeg[s] == 0).collect();
        let mut seen = 0usize;
        while let Some(s) = work.pop() {
            seen += 1;
            for &t in &succs[s] {
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    work.push(t);
                }
            }
        }
        if seen != n_stages {
            return Err(ScheduleError::StageCycle);
        }
        Ok(())
    }

    /// [`Schedule::validate_full`] plus platform checks: the schedule
    /// spans no more GPUs than `cost`'s topology covers, and every
    /// cross-GPU dependency crosses a connected pair (an unconnected
    /// pair prices its transfer as +∞, so the schedule can never
    /// finish).  On a uniform topology both checks are vacuous.
    pub fn validate_on_platform(
        &self,
        g: &Graph,
        cost: &hios_cost::CostTable,
    ) -> Result<(), ScheduleError> {
        self.validate_full(g, None)?;
        if !cost.topology.covers(self.num_gpus()) {
            return Err(ScheduleError::PlatformMismatch {
                schedule_gpus: self.num_gpus(),
                platform_gpus: cost.topology.num_gpus(),
            });
        }
        let place = self.placements(g.num_ops());
        for (u, v) in g.edges() {
            let pu = place[u.index()].expect("coverage checked by validate");
            let pv = place[v.index()].expect("coverage checked by validate");
            if pu.gpu != pv.gpu && !cost.transfer(u, pu.gpu, pv.gpu).is_finite() {
                return Err(ScheduleError::UnconnectedPair {
                    op: u,
                    src_gpu: pu.gpu,
                    dst_gpu: pv.gpu,
                });
            }
        }
        Ok(())
    }

    /// Serializes to the JSON interchange format (the paper's scheduler
    /// "generates schedules in JSON for executing inference on multiple
    /// GPUs", §VI-A).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("schedule serialization is infallible")
    }

    /// Parses a schedule from [`Schedule::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Content digest of the schedule: the identity hash ([`Fnv`], over
    /// little-endian words) of the GPU count and every stage's operator
    /// list, in order.  Two schedules digest equal iff they are
    /// structurally identical, so the digest is the identity a
    /// content-addressed plan store verifies plans against — a
    /// reconstructed plan whose digest mismatches its record must never
    /// be served.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.gpus.len() as u64);
        for gpu in &self.gpus {
            h.write_u64(gpu.stages.len() as u64);
            for stage in &gpu.stages {
                h.write_u64(stage.ops.len() as u64);
                for &v in &stage.ops {
                    h.write_u64(v.index() as u64);
                }
            }
        }
        h.finish()
    }

    /// Serializes to the versioned interchange envelope:
    /// `{"v": <version>, "schedule": <schedule>}`.  The envelope is the
    /// durable on-disk shape — persisted plans carry their format
    /// version so a reader can tell "older but loadable" from
    /// "newer than me" without guessing.
    pub fn to_value_versioned(&self) -> Value {
        Value::Object(vec![
            ("v".into(), Value::Num(f64::from(SCHEDULE_FORMAT_VERSION))),
            ("schedule".into(), serde::Serialize::to_value(self)),
        ])
    }

    /// Parses the envelope written by [`Schedule::to_value_versioned`].
    ///
    /// Unknown fields are ignored (a future version may add fields this
    /// build does not know about without breaking it), a version beyond
    /// `SCHEDULE_FORMAT_VERSION` is a typed
    /// [`ScheduleCodecError::Incompatible`], and any shape mismatch is a
    /// typed [`ScheduleCodecError::Malformed`] — nothing in this path
    /// can panic on hostile input.
    pub fn from_value_versioned(v: &Value) -> Result<Self, ScheduleCodecError> {
        let version = v
            .get("v")
            .ok_or_else(|| ScheduleCodecError::Malformed("missing version field `v`".into()))?
            .as_u64()
            .ok_or_else(|| {
                ScheduleCodecError::Malformed("version field `v` is not integral".into())
            })?;
        if version > u64::from(SCHEDULE_FORMAT_VERSION) {
            return Err(ScheduleCodecError::Incompatible {
                found: version.min(u64::from(u32::MAX)) as u32,
                supported: SCHEDULE_FORMAT_VERSION,
            });
        }
        let body = v
            .get("schedule")
            .ok_or_else(|| ScheduleCodecError::Malformed("missing field `schedule`".into()))?;
        <Schedule as serde::Deserialize>::from_value(body)
            .map_err(|e| ScheduleCodecError::Malformed(e.to_string()))
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (gi, gpu) in self.gpus.iter().enumerate() {
            write!(f, "GPU {gi}:")?;
            if gpu.stages.is_empty() {
                writeln!(f, " (idle)")?;
                continue;
            }
            for stage in &gpu.stages {
                write!(f, " {{")?;
                for (i, v) in stage.ops.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hios_graph::GraphBuilder;

    /// a -> b, a -> c, b -> d, c -> d
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_synthetic("a", &[]);
        let x = b.add_synthetic("b", &[a]);
        let y = b.add_synthetic("c", &[a]);
        b.add_synthetic("d", &[x, y]);
        b.build()
    }

    fn ok_schedule() -> Schedule {
        Schedule {
            gpus: vec![
                GpuSchedule {
                    stages: vec![
                        Stage::solo(OpId(0)),
                        Stage::group(vec![OpId(1), OpId(2)]),
                        Stage::solo(OpId(3)),
                    ],
                },
                GpuSchedule::default(),
            ],
        }
    }

    #[test]
    fn valid_schedule_passes() {
        let g = diamond();
        let s = ok_schedule();
        assert!(s.validate(&g).is_ok());
        assert_eq!(s.num_ops(), 4);
        assert_eq!(s.num_gpus(), 2);
        assert_eq!(s.num_gpus_used(), 1);
        assert_eq!(s.max_stage_width(), 2);
    }

    #[test]
    fn placements_are_tracked() {
        let s = ok_schedule();
        let p = s.placements(4);
        assert_eq!(
            p[2],
            Some(OpPlacement {
                gpu: 0,
                stage: 1,
                slot: 1
            })
        );
    }

    #[test]
    fn missing_and_duplicate_ops() {
        let g = diamond();
        let mut s = ok_schedule();
        s.gpus[0].stages.pop();
        assert_eq!(s.validate(&g), Err(ScheduleError::MissingOp(OpId(3))));

        let mut s = ok_schedule();
        s.gpus[1].stages.push(Stage::solo(OpId(0)));
        assert_eq!(s.validate(&g), Err(ScheduleError::DuplicateOp(OpId(0))));
    }

    #[test]
    fn dependent_ops_in_stage_rejected() {
        let g = diamond();
        let s = Schedule {
            gpus: vec![GpuSchedule {
                stages: vec![
                    Stage::group(vec![OpId(0), OpId(1)]),
                    Stage::solo(OpId(2)),
                    Stage::solo(OpId(3)),
                ],
            }],
        };
        assert_eq!(
            s.validate(&g),
            Err(ScheduleError::DependentOpsInStage(OpId(0), OpId(1)))
        );
    }

    #[test]
    fn backward_same_gpu_dependency_rejected() {
        let g = diamond();
        let s = Schedule {
            gpus: vec![GpuSchedule {
                stages: vec![
                    Stage::solo(OpId(1)),
                    Stage::solo(OpId(0)),
                    Stage::group(vec![OpId(2)]),
                    Stage::solo(OpId(3)),
                ],
            }],
        };
        assert_eq!(
            s.validate(&g),
            Err(ScheduleError::OrderViolation(OpId(0), OpId(1)))
        );
    }

    #[test]
    fn unknown_and_empty() {
        let g = diamond();
        let s = Schedule {
            gpus: vec![GpuSchedule {
                stages: vec![Stage::solo(OpId(9))],
            }],
        };
        assert_eq!(s.validate(&g), Err(ScheduleError::UnknownOp(OpId(9))));

        let s = Schedule {
            gpus: vec![GpuSchedule {
                stages: vec![Stage { ops: vec![] }],
            }],
        };
        assert_eq!(
            s.validate(&g),
            Err(ScheduleError::EmptyStage { gpu: 0, stage: 0 })
        );
    }

    #[test]
    fn validate_full_detects_stage_cycles() {
        // a -> b (cross), c -> d (cross); GPU0 runs [d, a], GPU1 runs
        // [b, c]: b waits on a which chains after d which waits on c which
        // chains after b — a circular wait validate() cannot see.
        let mut bld = GraphBuilder::new();
        let a = bld.add_synthetic("a", &[]);
        let _b = bld.add_synthetic("b", &[a]);
        let c = bld.add_synthetic("c", &[]);
        let _d = bld.add_synthetic("d", &[c]);
        let g = bld.build();
        let s = Schedule::from_gpu_orders(vec![vec![OpId(3), OpId(0)], vec![OpId(1), OpId(2)]]);
        assert!(s.validate(&g).is_ok());
        assert_eq!(s.validate_full(&g, None), Err(ScheduleError::StageCycle));
    }

    #[test]
    fn validate_full_rejects_dead_gpu_placement() {
        let g = diamond();
        let s = ok_schedule();
        assert!(s.validate_full(&g, Some(&[true, true])).is_ok());
        // All four ops sit on GPU 0; killing it must be flagged …
        assert_eq!(
            s.validate_full(&g, Some(&[false, true])),
            Err(ScheduleError::DeadGpu {
                op: OpId(0),
                gpu: 0
            })
        );
        // … while killing the idle GPU 1 is fine.
        assert!(s.validate_full(&g, Some(&[true, false])).is_ok());
    }

    #[test]
    fn validate_on_platform_rejects_oversized_and_unconnected() {
        use hios_cost::{ConcurrencyParams, CostTable, DeviceCosts, NO_LINK, Topology};
        let g = diamond();
        let n = g.num_ops();
        // 3 GPUs, one device class; pair {0,2} has no interconnect.
        #[rustfmt::skip]
        let link_class = vec![
            0, 0, NO_LINK,
            0, 0, 0,
            NO_LINK, 0, 0,
        ];
        let cost = CostTable::heterogeneous(
            "test",
            DeviceCosts {
                exec_ms: vec![vec![1.0; n]],
                util: vec![vec![1.0; n]],
            },
            vec![vec![1.0; n]],
            Topology::hetero(vec![0, 0, 0], link_class),
            ConcurrencyParams {
                contention_alpha: 0.15,
                stream_overhead_ms: 0.0,
            },
            0.0,
        );

        // a,b on GPU 0; c on GPU 1; d on GPU 2: b -> d crosses the
        // unconnected pair {0, 2}.
        let s =
            Schedule::from_gpu_orders(vec![vec![OpId(0), OpId(1)], vec![OpId(2)], vec![OpId(3)]]);
        assert!(s.validate_full(&g, None).is_ok());
        assert_eq!(
            s.validate_on_platform(&g, &cost),
            Err(ScheduleError::UnconnectedPair {
                op: OpId(1),
                src_gpu: 0,
                dst_gpu: 2
            })
        );

        // d on GPU 1 instead keeps every cross pair connected.
        let ok =
            Schedule::from_gpu_orders(vec![vec![OpId(0), OpId(1)], vec![OpId(2), OpId(3)], vec![]]);
        assert!(ok.validate_on_platform(&g, &cost).is_ok());

        // A 4-GPU schedule exceeds the 3-GPU topology.
        let wide = Schedule::from_gpu_orders(vec![
            vec![OpId(0)],
            vec![OpId(1)],
            vec![OpId(2)],
            vec![OpId(3)],
        ]);
        assert_eq!(
            wide.validate_on_platform(&g, &cost),
            Err(ScheduleError::PlatformMismatch {
                schedule_gpus: 4,
                platform_gpus: 3
            })
        );
    }

    #[test]
    fn from_gpu_orders_builds_singletons() {
        let s = Schedule::from_gpu_orders(vec![vec![OpId(0), OpId(1)], vec![OpId(2)]]);
        assert_eq!(s.gpus[0].stages.len(), 2);
        assert_eq!(s.gpus[1].stages[0], Stage::solo(OpId(2)));
    }

    #[test]
    fn json_round_trip() {
        let s = ok_schedule();
        let back = Schedule::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn versioned_envelope_round_trips_and_tolerates_unknown_fields() {
        let s = ok_schedule();
        let v = s.to_value_versioned();
        assert_eq!(Schedule::from_value_versioned(&v).unwrap(), s);

        // Unknown fields from a future (minor) writer are ignored.
        let Value::Object(mut fields) = v else {
            panic!("envelope must be an object")
        };
        fields.push(("written_by".into(), Value::Str("hios 9.99".into())));
        let extended = Value::Object(fields);
        assert_eq!(Schedule::from_value_versioned(&extended).unwrap(), s);
    }

    #[test]
    fn versioned_envelope_rejects_newer_and_malformed_input_typed() {
        let s = ok_schedule();
        let Value::Object(fields) = s.to_value_versioned() else {
            panic!("envelope must be an object")
        };
        let bumped = Value::Object(
            fields
                .iter()
                .map(|(k, v)| {
                    if k == "v" {
                        (k.clone(), Value::Num(99.0))
                    } else {
                        (k.clone(), v.clone())
                    }
                })
                .collect(),
        );
        assert_eq!(
            Schedule::from_value_versioned(&bumped),
            Err(ScheduleCodecError::Incompatible {
                found: 99,
                supported: SCHEDULE_FORMAT_VERSION
            })
        );
        for hostile in [
            Value::Null,
            Value::Num(3.0),
            Value::Object(vec![("v".into(), Value::Str("one".into()))]),
            Value::Object(vec![("v".into(), Value::Num(1.0))]),
            Value::Object(vec![
                ("v".into(), Value::Num(1.0)),
                ("schedule".into(), Value::Str("junk".into())),
            ]),
        ] {
            assert!(matches!(
                Schedule::from_value_versioned(&hostile),
                Err(ScheduleCodecError::Malformed(_))
            ));
        }
    }

    #[test]
    fn content_digest_separates_structures() {
        let a = ok_schedule();
        let mut b = a.clone();
        assert_eq!(a.content_digest(), b.content_digest());
        b.gpus[0].stages[1].ops.swap(0, 1);
        assert_ne!(a.content_digest(), b.content_digest());
        // Moving an op across GPUs changes the digest even though the
        // op multiset is unchanged.
        let mut c = a.clone();
        let st = c.gpus[0].stages.pop().unwrap();
        c.gpus[1].stages.push(st);
        assert_ne!(a.content_digest(), c.content_digest());
    }

    #[test]
    fn display_is_compact() {
        let text = ok_schedule().to_string();
        assert!(text.contains("GPU 0: {v0} {v1,v2} {v3}"));
        assert!(text.contains("GPU 1: (idle)"));
    }
}
