//! Requests, typed failure reasons, and per-request dispositions.
//!
//! Every request admitted by the serving loop terminates in exactly one
//! [`Disposition`]; nothing panics, nothing hangs, and every shed or
//! abort carries a typed reason ([`ShedReason`], [`ServeError`]) so
//! callers can distinguish "the platform was too loaded" from "the
//! platform was on fire".

use hios_core::SchedulerError;
use hios_graph::OpId;
use std::fmt;

/// SLO priority class of a request (ISSUE 8).
///
/// Classes order strictly: Gold is never shed by the brownout
/// controller, Bronze goes first.  Deadline multipliers are constants of
/// the workload layer ([`crate::workload::ClassMix`]); the class itself is
/// just the tag the server degrades by.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// Tightest SLO, protected last.
    #[default]
    Gold,
    /// Middle tier: shed only in the deepest brownout level.
    Silver,
    /// Best-effort: first to go under overload.
    Bronze,
}

impl PriorityClass {
    /// All classes, Gold first.
    pub const ALL: [PriorityClass; 3] = [
        PriorityClass::Gold,
        PriorityClass::Silver,
        PriorityClass::Bronze,
    ];

    /// Dense index (Gold 0, Silver 1, Bronze 2) for per-class arrays.
    pub fn index(self) -> usize {
        match self {
            PriorityClass::Gold => 0,
            PriorityClass::Silver => 1,
            PriorityClass::Bronze => 2,
        }
    }

    /// Inverse of [`PriorityClass::index`]; panics on `i >= 3`.
    pub fn from_index(i: usize) -> Self {
        PriorityClass::ALL[i]
    }

    /// Lower-case label for reports and bench tables.
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Gold => "gold",
            PriorityClass::Silver => "silver",
            PriorityClass::Bronze => "bronze",
        }
    }
}

impl fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One inference request against a served model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Trace-unique id (also the retry-jitter seed).
    pub id: u64,
    /// Index into the server's model list.
    pub model: usize,
    /// Arrival instant on the virtual clock, ms.
    pub arrival_ms: f64,
    /// Absolute completion deadline, ms.
    pub deadline_ms: f64,
    /// SLO priority class (Gold when the workload has no class mix).
    pub class: PriorityClass,
}

/// Why the admission controller (or the retry loop) refused a request.
#[derive(Clone, Debug, PartialEq)]
pub enum ShedReason {
    /// The bounded queue was at capacity.
    QueueFull {
        /// Queue capacity at the time of the shed.
        capacity: usize,
    },
    /// Even a provable lower bound on the finish time misses the
    /// deadline, so running the request could only waste GPU time.  The
    /// deadline it misses is the record's own `request.deadline_ms`.
    DeadlineUnmeetable {
        /// The lower bound on completion, ms (absolute).
        bound_finish_ms: f64,
    },
    /// The request was aborted by faults more times than the retry
    /// policy allows.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The error that killed the final attempt (boxed: these sheds
        /// are rare, and an inline error would widen every record).
        last_error: Box<ServeError>,
    },
    /// The brownout controller refused the request's class at the
    /// current degradation level.
    Brownout {
        /// Brownout level at the shed instant
        /// (the brownout controller's level as its index).
        level: u8,
    },
    /// The attempt failed and the retry policy would allow another try,
    /// but the global retry budget was exhausted (retry-storm guard).
    RetryBudgetExhausted {
        /// Attempts made before the budget denied the retry.
        attempts: u32,
        /// The error that killed the final attempt (boxed: these sheds
        /// are rare, and an inline error would widen every record).
        last_error: Box<ServeError>,
    },
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            ShedReason::DeadlineUnmeetable { bound_finish_ms } => write!(
                f,
                "deadline unmeetable: lower bound finishes at {bound_finish_ms:.3} ms"
            ),
            ShedReason::RetriesExhausted {
                attempts,
                last_error,
            } => write!(
                f,
                "retries exhausted after {attempts} attempts ({last_error})"
            ),
            ShedReason::Brownout { level } => {
                write!(f, "shed by brownout controller at level {level}")
            }
            ShedReason::RetryBudgetExhausted {
                attempts,
                last_error,
            } => write!(
                f,
                "retry budget exhausted after {attempts} attempts ({last_error})"
            ),
        }
    }
}

/// A typed runtime failure of one execution attempt.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// A GPU in the serving set failed or slowed mid-flight; the
    /// attempt was aborted at fault-detection time.
    GpuFault {
        /// The physical GPU the fault hit.
        gpu: usize,
    },
    /// An NVLink within the serving set failed or degraded mid-flight.
    LinkFault {
        /// Source GPU of the affected link.
        from: usize,
        /// Destination GPU of the affected link.
        to: usize,
    },
    /// An operator hung and the watchdog converted the hang into a
    /// typed timeout instead of letting the request block forever.
    WatchdogTimeout {
        /// The operator that never finished.
        op: OpId,
        /// Virtual time spent waiting past the expected finish, ms.
        waited_ms: f64,
    },
    /// The scheduling ladder could not produce any schedule.
    Scheduler(SchedulerError),
    /// The durable plan store could not be opened at startup (an
    /// unusable file or an incompatible newer format — corruption never
    /// raises this; recovery absorbs it).
    Store(hios_store::StoreError),
    /// No GPU currently admits traffic (every breaker open).
    NoCapacity,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::GpuFault { gpu } => write!(f, "GPU {gpu} faulted mid-flight"),
            ServeError::LinkFault { from, to } => {
                write!(f, "link {from}->{to} faulted mid-flight")
            }
            ServeError::WatchdogTimeout { op, waited_ms } => {
                write!(
                    f,
                    "watchdog fired: op {} hung for {waited_ms:.3} ms",
                    op.index()
                )
            }
            ServeError::Scheduler(e) => write!(f, "scheduler error: {e}"),
            ServeError::Store(e) => write!(f, "plan store error: {e}"),
            ServeError::NoCapacity => write!(f, "no GPU admits traffic"),
        }
    }
}

impl std::error::Error for ServeError {}

/// How one admitted request ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Disposition {
    /// The request ran to completion (possibly after retries/repairs).
    Completed {
        /// Completion instant, ms.
        finish_ms: f64,
        /// End-to-end latency (finish − arrival), ms.
        latency_ms: f64,
        /// Execution attempts used (1 = no retry).
        attempts: u32,
        /// Whether it finished by its deadline.
        met_deadline: bool,
        /// In-place repairs applied across all attempts.
        repairs: u32,
    },
    /// The request was shed with a typed reason.
    Shed {
        /// When the shed happened, ms.
        at_ms: f64,
        /// Why.
        reason: ShedReason,
    },
}

impl Disposition {
    /// Whether the request completed (regardless of deadline).
    pub fn completed(&self) -> bool {
        matches!(self, Disposition::Completed { .. })
    }

    /// Whether the request completed by its deadline.
    pub fn met_deadline(&self) -> bool {
        matches!(
            self,
            Disposition::Completed {
                met_deadline: true,
                ..
            }
        )
    }
}

/// Full record of one request's journey through the server.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestRecord {
    /// The request as admitted (or refused).
    pub request: Request,
    /// How it ended.
    pub disposition: Disposition,
}

// One record per request is what a run keeps, so a widened field must
// fail the build rather than surface as resident-memory drift.
const _: () = {
    // A tag and one word: a bound, a capacity, or an attempt count
    // beside a boxed error.
    assert!(std::mem::size_of::<ShedReason>() <= 16);
    // A 40-byte request and a 32-byte disposition (a shed's instant and
    // 16-byte reason, or a completion's two instants and three counts).
    assert!(std::mem::size_of::<RequestRecord>() <= 72);
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disposition_helpers() {
        let done = Disposition::Completed {
            finish_ms: 50.0,
            latency_ms: 40.0,
            attempts: 1,
            met_deadline: true,
            repairs: 0,
        };
        assert!(done.completed() && done.met_deadline());
        let shed = Disposition::Shed {
            at_ms: 10.0,
            reason: ShedReason::QueueFull { capacity: 4 },
        };
        assert!(!shed.completed() && !shed.met_deadline());
    }

    #[test]
    fn errors_and_reasons_render() {
        let e = ServeError::WatchdogTimeout {
            op: OpId(3),
            waited_ms: 12.5,
        };
        assert!(e.to_string().contains("op 3"));
        let s = ShedReason::RetriesExhausted {
            attempts: 4,
            last_error: Box::new(e.clone()),
        };
        assert!(s.to_string().contains("4 attempts"));
        let b = ShedReason::Brownout { level: 3 };
        assert!(b.to_string().contains("level 3"));
        let rb = ShedReason::RetryBudgetExhausted {
            attempts: 2,
            last_error: Box::new(e),
        };
        assert!(rb.to_string().contains("retry budget"));
    }

    #[test]
    fn priority_class_round_trips_and_orders() {
        for (i, c) in PriorityClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(PriorityClass::from_index(i), c);
        }
        assert!(PriorityClass::Gold < PriorityClass::Silver);
        assert!(PriorityClass::Silver < PriorityClass::Bronze);
        assert_eq!(PriorityClass::default(), PriorityClass::Gold);
        assert_eq!(PriorityClass::Bronze.to_string(), "bronze");
    }
}
