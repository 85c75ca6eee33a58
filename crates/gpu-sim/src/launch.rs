//! The device-side launch path.
//!
//! When a warp executes a [`TbOp::Launch`](crate::program::TbOp::Launch),
//! the engine hands a [`LaunchRequest`] to the simulation's
//! [`DynamicLaunchModel`]. The model decides *when* the launch matures
//! (launch latency) and *how* it is delivered: as a CDP device kernel
//! (through the KMU, consuming a KDU entry) or as a DTBL TB group
//! (coalesced onto the parent kernel's KDU entry). Concrete models live
//! in the `dynpar` crate; [`ImmediateLaunchModel`] here is a zero-latency
//! CDP-style model for tests.

use std::collections::VecDeque;

use crate::kernel::{Origin, ResourceReq};
use crate::program::KernelKindId;
use crate::types::Cycle;

/// A device-side launch in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchRequest {
    /// Kernel kind of the child.
    pub kind: KernelKindId,
    /// Opaque workload parameter.
    pub param: u64,
    /// Number of child TBs.
    pub num_tbs: u32,
    /// Per-TB resource requirement of the child.
    pub req: ResourceReq,
    /// Who launched it.
    pub origin: Origin,
    /// Cycle the launching warp issued the request.
    pub issued_at: Cycle,
}

/// How a matured launch enters the scheduling hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// A CDP device kernel: enqueued at the KMU, occupies a KDU entry once
    /// dispatched, counted against the concurrent-kernel limit.
    DeviceKernel(LaunchRequest),
    /// A DTBL TB group: coalesced onto the parent kernel's KDU entry,
    /// immediately visible to the SMX scheduler.
    TbGroup(LaunchRequest),
}

impl Delivery {
    /// The underlying request.
    pub fn request(&self) -> &LaunchRequest {
        match self {
            Delivery::DeviceKernel(r) | Delivery::TbGroup(r) => r,
        }
    }
}

/// Models the latency and routing of device-side launches.
pub trait DynamicLaunchModel: Send {
    /// Accepts a launch issued by a running TB.
    fn submit(&mut self, req: LaunchRequest);

    /// Appends every launch that has matured by cycle `now` to `out`.
    ///
    /// The engine passes a reused scratch buffer (cleared by the caller)
    /// so the per-cycle hot path allocates nothing.
    fn drain_ready(&mut self, now: Cycle, out: &mut Vec<Delivery>);

    /// Number of launches still in flight.
    fn in_flight(&self) -> usize;

    /// The earliest cycle at which an in-flight launch matures, or
    /// `None` when nothing is in flight.
    ///
    /// Used by the event engine to schedule its next wake-up; the
    /// conservative default (`Some(0)` whenever anything is in flight)
    /// merely stops it skipping idle cycles while launches are pending.
    fn next_ready(&self) -> Option<Cycle> {
        if self.in_flight() == 0 {
            None
        } else {
            Some(0)
        }
    }

    /// Model-specific counters for reports (e.g. DTBL aggregation-table
    /// overflows). Merged into [`SimStats::launch_counters`].
    ///
    /// [`SimStats::launch_counters`]: crate::stats::SimStats::launch_counters
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Model name for reports.
    fn name(&self) -> &'static str;
}

impl std::fmt::Debug for Box<dyn DynamicLaunchModel> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DynamicLaunchModel({})", self.name())
    }
}

/// A zero-latency CDP-style launch model, mainly for tests: every launch
/// matures on the next [`drain_ready`](DynamicLaunchModel::drain_ready)
/// call as a device kernel.
#[derive(Debug, Default)]
pub struct ImmediateLaunchModel {
    queue: VecDeque<LaunchRequest>,
}

impl ImmediateLaunchModel {
    /// Creates the model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DynamicLaunchModel for ImmediateLaunchModel {
    fn submit(&mut self, req: LaunchRequest) {
        self.queue.push_back(req);
    }

    fn drain_ready(&mut self, _now: Cycle, out: &mut Vec<Delivery>) {
        out.extend(self.queue.drain(..).map(Delivery::DeviceKernel));
    }

    fn in_flight(&self) -> usize {
        self.queue.len()
    }

    fn name(&self) -> &'static str {
        "immediate"
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::types::{BatchId, Priority, SmxId};

    fn request(param: u64) -> LaunchRequest {
        LaunchRequest {
            kind: KernelKindId(1),
            param,
            num_tbs: 2,
            req: ResourceReq::new(32, 8, 0),
            origin: Origin {
                parent_batch: BatchId(0),
                parent_tb: 0,
                parent_smx: SmxId(0),
                parent_priority: Priority::HOST,
            },
            issued_at: 10,
        }
    }

    #[test]
    fn immediate_model_delivers_all() {
        let mut m = ImmediateLaunchModel::new();
        m.submit(request(1));
        m.submit(request(2));
        assert_eq!(m.in_flight(), 2);
        assert_eq!(m.next_ready(), Some(0));
        let mut out = Vec::new();
        m.drain_ready(10, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.next_ready(), None);
        assert!(matches!(out[0], Delivery::DeviceKernel(_)));
        assert_eq!(out[1].request().param, 2);
    }

    #[test]
    fn drain_appends_to_existing_buffer() {
        let mut m = ImmediateLaunchModel::new();
        m.submit(request(1));
        let mut out = vec![Delivery::TbGroup(request(0))];
        m.drain_ready(0, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].request().param, 1);
    }

    #[test]
    fn delivery_request_accessor() {
        let d = Delivery::TbGroup(request(9));
        assert_eq!(d.request().param, 9);
    }
}
