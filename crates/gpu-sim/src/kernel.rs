//! Kernel and thread-block batch bookkeeping.
//!
//! The schedulable unit in this simulator is a [`Batch`]: a host kernel, a
//! CDP device kernel, or a DTBL thread-block group. CDP kernels occupy a
//! KDU entry of their own; DTBL groups are coalesced onto the entry of the
//! kernel whose TB launched them (so they are always visible to the SMX
//! scheduler, matching Section IV-C of the paper).

use crate::program::KernelKindId;
use crate::types::{BatchId, Cycle, Priority, SmxId};

/// Per-TB resource requirements, used for SMX occupancy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceReq {
    /// Threads per TB.
    pub threads: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Shared memory per TB in bytes.
    pub smem_bytes: u32,
}

impl ResourceReq {
    /// Creates a resource requirement.
    pub fn new(threads: u32, regs_per_thread: u32, smem_bytes: u32) -> Self {
        ResourceReq { threads, regs_per_thread, smem_bytes }
    }

    /// Total registers one TB consumes.
    pub fn regs_per_tb(&self) -> u32 {
        self.threads * self.regs_per_thread
    }
}

/// Where a dynamically launched batch came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Origin {
    /// The batch whose TB issued the launch.
    pub parent_batch: BatchId,
    /// Index of the launching (direct parent) TB within its batch.
    pub parent_tb: u32,
    /// The SMX the direct parent TB was executing on.
    pub parent_smx: SmxId,
    /// The parent batch's priority at launch time.
    pub parent_priority: Priority,
}

/// How a batch entered the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// Launched from the host; occupies a KDU entry.
    HostKernel,
    /// CDP device kernel; occupies a KDU entry, subject to the
    /// 32-concurrent-kernel limit.
    DeviceKernel,
    /// DTBL TB group; coalesced onto the parent kernel's KDU entry.
    TbGroup,
}

/// Lifecycle of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchState {
    /// Created but not yet visible to the SMX scheduler (waiting in the
    /// KMU or in the launch path).
    Pending,
    /// Visible in the KDU; TBs may be dispatched.
    Schedulable,
    /// All TBs dispatched and retired.
    Complete,
}

/// A schedulable batch of thread blocks.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Unique id, in creation order.
    pub id: BatchId,
    /// Which launch path created this batch.
    pub batch_kind: BatchKind,
    /// Kernel kind (workload-defined function identity).
    pub kind: KernelKindId,
    /// Opaque workload parameter for program generation.
    pub param: u64,
    /// Number of TBs in the batch.
    pub num_tbs: u32,
    /// Per-TB resource requirement.
    pub req: ResourceReq,
    /// Parent information for device-launched batches.
    pub origin: Option<Origin>,
    /// Nesting depth: 0 for host kernels, parent+1 for children
    /// (unclamped; schedulers clamp to their own maximum level).
    pub priority: Priority,
    /// Cycle the launch was issued (host: 0 or launch call time).
    pub created_at: Cycle,
    /// Cycle the launch matured into the scheduling hardware (KMU
    /// enqueue, or direct KDU attach for a coalesced DTBL group).
    pub matured_at: Cycle,
    /// Cycle the batch became schedulable (entered the KDU), if it has.
    pub schedulable_at: Option<Cycle>,
    /// Lifecycle state.
    pub state: BatchState,
    /// Next TB index to dispatch.
    pub next_tb: u32,
    /// Number of retired TBs.
    pub finished_tbs: u32,
    /// KDU entry this batch is attached to while schedulable.
    pub kdu_entry: Option<usize>,
}

impl Batch {
    /// `true` if at least one TB has not yet been dispatched.
    pub fn has_undispatched_tbs(&self) -> bool {
        self.next_tb < self.num_tbs
    }

    /// Number of TBs not yet dispatched.
    pub fn undispatched_tbs(&self) -> u32 {
        self.num_tbs - self.next_tb
    }

    /// `true` once every TB has retired.
    pub fn is_complete(&self) -> bool {
        self.finished_tbs == self.num_tbs
    }

    /// `true` if this batch was launched from the device.
    pub fn is_dynamic(&self) -> bool {
        self.origin.is_some()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn sample_batch() -> Batch {
        Batch {
            id: BatchId(0),
            batch_kind: BatchKind::HostKernel,
            kind: KernelKindId(0),
            param: 0,
            num_tbs: 3,
            req: ResourceReq::new(64, 16, 256),
            origin: None,
            priority: Priority::HOST,
            created_at: 0,
            matured_at: 0,
            schedulable_at: None,
            state: BatchState::Pending,
            next_tb: 0,
            finished_tbs: 0,
            kdu_entry: None,
        }
    }

    #[test]
    fn regs_per_tb_multiplies() {
        assert_eq!(ResourceReq::new(128, 32, 0).regs_per_tb(), 4096);
    }

    #[test]
    fn batch_dispatch_progress() {
        let mut b = sample_batch();
        assert!(b.has_undispatched_tbs());
        assert_eq!(b.undispatched_tbs(), 3);
        b.next_tb = 3;
        assert!(!b.has_undispatched_tbs());
        assert!(!b.is_complete());
        b.finished_tbs = 3;
        assert!(b.is_complete());
    }

    #[test]
    fn host_batch_is_not_dynamic() {
        assert!(!sample_batch().is_dynamic());
    }

    #[test]
    fn device_batch_is_dynamic() {
        let mut b = sample_batch();
        b.origin = Some(Origin {
            parent_batch: BatchId(0),
            parent_tb: 2,
            parent_smx: SmxId(1),
            parent_priority: Priority::HOST,
        });
        assert!(b.is_dynamic());
    }
}
