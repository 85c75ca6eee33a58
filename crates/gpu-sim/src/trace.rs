//! Scheduling event traces.
//!
//! When a [`TraceSink`] is attached to the engine
//! ([`Simulator::with_trace`](crate::engine::Simulator::with_trace)),
//! every scheduling-relevant event is reported as it happens: kernels
//! entering the KMU/KDU, TB dispatches and completions, device launches
//! issued and matured, priority-queue activity inside the TB scheduler,
//! stage-3 steals, and idle-cycle fast-forward jumps. [`VecSink`]
//! collects events for programmatic inspection; each event's `Display`
//! is one line of text; `sim_metrics::perfetto` renders a stream as a
//! Chrome/Perfetto `trace_event` JSON file.
//!
//! With no sink attached the trace path costs nothing: the engine's
//! `emit` is a branch on a `None` option and schedulers only buffer
//! events after [`TbScheduler::set_tracing`] enabled them.
//!
//! [`TbScheduler::set_tracing`]: crate::tb_sched::TbScheduler::set_tracing

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::types::{BatchId, Cycle, Priority, SmxId, TbRef};

/// One scheduling event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A kernel was queued at the KMU (host launch or matured CDP child).
    KernelQueued {
        /// The kernel's batch.
        batch: BatchId,
    },
    /// A kernel moved from the KMU into a KDU entry.
    KernelToKdu {
        /// The kernel's batch.
        batch: BatchId,
        /// The KDU entry index it occupies.
        entry: usize,
    },
    /// A DTBL TB group was coalesced onto an existing KDU entry.
    GroupCoalesced {
        /// The group's batch.
        batch: BatchId,
        /// The entry it attached to.
        entry: usize,
    },
    /// A TB was dispatched to an SMX.
    TbDispatched {
        /// The TB.
        tb: TbRef,
        /// Destination SMX.
        smx: SmxId,
    },
    /// A TB retired.
    TbCompleted {
        /// The TB.
        tb: TbRef,
        /// The SMX it ran on.
        smx: SmxId,
    },
    /// A running TB issued a device-side launch.
    LaunchIssued {
        /// The launching TB.
        by: TbRef,
        /// Number of child TBs requested.
        num_tbs: u32,
    },
    /// A batch entered a scheduler priority-queue set.
    ///
    /// `level == 0` is the shared parent (level-0) queue; levels `1..=L`
    /// are the per-set dynamic queues. `depth` is the set's occupancy
    /// *after* the enqueue (for level 0, the shared queue's occupancy).
    QueueEnqueued {
        /// The enqueued batch.
        batch: BatchId,
        /// Queue set index (SMX/cluster under binding policies).
        set: u16,
        /// Clamped priority level the batch was filed at.
        level: u8,
        /// Set occupancy after the enqueue.
        depth: u32,
    },
    /// A TB was dispatched out of a scheduler queue set.
    ///
    /// Batches hold many TBs and stay queued until exhausted, so one
    /// enqueue can produce many dequeue events — one per TB dispatched
    /// from that queue. `level == 0` means the shared parent queue was
    /// drained (by the SMX of cluster `set` under binding policies).
    /// `depth` is the set's occupancy at dispatch time.
    QueueDequeued {
        /// The batch a TB was dispatched from.
        batch: BatchId,
        /// Queue set index the dispatching SMX consulted.
        set: u16,
        /// Priority level the batch was served from (0 = parent queue).
        level: u8,
        /// Set occupancy at dispatch time.
        depth: u32,
    },
    /// Adaptive-Bind stage 3: an idle SMX dispatched work from another
    /// set's queues.
    Stage3Steal {
        /// The stealing (idle) SMX.
        thief: SmxId,
        /// The queue set the work was taken from.
        victim_set: u16,
        /// The batch a TB was stolen from.
        batch: BatchId,
        /// TBs moved by this steal (one per dispatch in this model).
        tbs_moved: u32,
    },
    /// A dynamic batch was assigned its (possibly clamped) priority
    /// level on entering the scheduler.
    PriorityAssigned {
        /// The batch.
        batch: BatchId,
        /// Raw nesting priority (parent + 1, saturating).
        raw: Priority,
        /// Level actually used after clamping to the scheduler's `L`.
        clamped: Priority,
    },
    /// Adaptive-Bind recorded a (new) backup queue set for a cluster.
    BackupAdopted {
        /// The SMX that adopted the backup.
        smx: SmxId,
        /// The backup queue set it will drain.
        backup_set: u16,
    },
    /// The event engine skipped a provably idle stretch.
    ///
    /// Cycles in `from..to` were never stepped; no event can occur
    /// within the jumped range, so an event-engine trace is identical
    /// to a cycle-stepped one *except* for these markers (asserted by
    /// `tests/determinism.rs`).
    FastForward {
        /// First skipped cycle.
        from: Cycle,
        /// Cycle execution resumed at.
        to: Cycle,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycle the event occurred.
    pub cycle: Cycle,
    /// The event.
    pub event: TraceEvent,
}

/// Receives engine events as they happen.
pub trait TraceSink: Send {
    /// Called once per event, in simulation order.
    fn record(&mut self, cycle: Cycle, event: TraceEvent);
}

impl fmt::Debug for Box<dyn TraceSink> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TraceSink")
    }
}

/// Collects events into a shared vector (clone the handle before passing
/// the sink to the engine, then read after the run).
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the shared buffer, recovering from poisoning: a panic in
    /// another holder (e.g. a harness thread that died mid-run) must not
    /// take the already-collected events down with it. The buffer is a
    /// plain `Vec` of `Copy` records, so every interrupted mutation
    /// leaves it in a valid state.
    fn lock(&self) -> MutexGuard<'_, Vec<TraceRecord>> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A snapshot of the events recorded so far.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.lock().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, cycle: Cycle, event: TraceEvent) {
        self.lock().push(TraceRecord { cycle, event });
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::KernelQueued { batch } => write!(f, "kernel {batch} queued at KMU"),
            TraceEvent::KernelToKdu { batch, entry } => {
                write!(f, "kernel {batch} -> KDU entry {entry}")
            }
            TraceEvent::GroupCoalesced { batch, entry } => {
                write!(f, "group {batch} coalesced onto KDU entry {entry}")
            }
            TraceEvent::TbDispatched { tb, smx } => write!(f, "{tb} dispatched to {smx}"),
            TraceEvent::TbCompleted { tb, smx } => write!(f, "{tb} completed on {smx}"),
            TraceEvent::LaunchIssued { by, num_tbs } => {
                write!(f, "{by} launched {num_tbs} child TBs")
            }
            TraceEvent::QueueEnqueued { batch, set, level, depth } => {
                write!(f, "{batch} enqueued at set {set} level {level} (depth {depth})")
            }
            TraceEvent::QueueDequeued { batch, set, level, depth } => {
                write!(f, "{batch} dequeued from set {set} level {level} (depth {depth})")
            }
            TraceEvent::Stage3Steal { thief, victim_set, batch, tbs_moved } => {
                write!(f, "{thief} stole {tbs_moved} TB of {batch} from set {victim_set}")
            }
            TraceEvent::PriorityAssigned { batch, raw, clamped } => {
                write!(f, "{batch} priority {raw} clamped to {clamped}")
            }
            TraceEvent::BackupAdopted { smx, backup_set } => {
                write!(f, "{smx} adopted backup set {backup_set}")
            }
            TraceEvent::FastForward { from, to } => {
                write!(f, "fast-forward {from} -> {to} ({} idle cycles)", to - from)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn vec_sink_records_in_order() {
        let sink = VecSink::new();
        let mut handle = sink.clone();
        handle.record(5, TraceEvent::KernelQueued { batch: BatchId(0) });
        handle.record(9, TraceEvent::KernelToKdu { batch: BatchId(0), entry: 3 });
        let records = sink.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].cycle, 5);
        assert_eq!(records[1].cycle, 9);
        assert!(!sink.is_empty());
    }

    #[test]
    fn vec_sink_survives_poisoning() {
        // Regression: a panic while the buffer lock is held used to make
        // every later `record`/`records` call panic on the poisoned
        // mutex, killing the surviving run's whole trace.
        let sink = VecSink::new();
        let mut handle = sink.clone();
        handle.record(1, TraceEvent::KernelQueued { batch: BatchId(0) });

        let poisoner = sink.clone();
        let joined = std::thread::spawn(move || {
            let _guard = poisoner.records.lock().unwrap();
            panic!("die while holding the trace lock");
        })
        .join();
        assert!(joined.is_err(), "poisoning thread must have panicked");
        assert!(sink.records.lock().is_err(), "mutex should be poisoned");

        // The sink still records and reads back everything.
        handle.record(2, TraceEvent::FastForward { from: 2, to: 7 });
        let records = sink.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].cycle, 2);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn render_formats_every_event_kind() {
        let tb = TbRef { batch: BatchId(1), index: 2 };
        let events = [
            TraceEvent::KernelQueued { batch: BatchId(0) },
            TraceEvent::KernelToKdu { batch: BatchId(0), entry: 0 },
            TraceEvent::GroupCoalesced { batch: BatchId(2), entry: 0 },
            TraceEvent::TbDispatched { tb, smx: SmxId(3) },
            TraceEvent::TbCompleted { tb, smx: SmxId(3) },
            TraceEvent::LaunchIssued { by: tb, num_tbs: 4 },
            TraceEvent::QueueEnqueued { batch: BatchId(2), set: 1, level: 1, depth: 3 },
            TraceEvent::QueueDequeued { batch: BatchId(2), set: 1, level: 1, depth: 2 },
            TraceEvent::Stage3Steal {
                thief: SmxId(0),
                victim_set: 1,
                batch: BatchId(2),
                tbs_moved: 1,
            },
            TraceEvent::PriorityAssigned {
                batch: BatchId(2),
                raw: Priority(7),
                clamped: Priority(4),
            },
            TraceEvent::BackupAdopted { smx: SmxId(0), backup_set: 1 },
            TraceEvent::FastForward { from: 10, to: 60 },
        ];
        let text: String = events.iter().map(|e| format!("{e}\n")).collect();
        assert_eq!(text.lines().count(), events.len());
        assert!(text.contains("queued at KMU"));
        assert!(text.contains("coalesced"));
        assert!(text.contains("dispatched to SMX3"));
        assert!(text.contains("launched 4 child TBs"));
        assert!(text.contains("enqueued at set 1 level 1 (depth 3)"));
        assert!(text.contains("dequeued from set 1"));
        assert!(text.contains("SMX0 stole 1 TB of B2 from set 1"));
        assert!(text.contains("priority P7 clamped to P4"));
        assert!(text.contains("adopted backup set 1"));
        assert!(text.contains("fast-forward 10 -> 60 (50 idle cycles)"));
    }
}
