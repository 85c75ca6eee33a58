//! Fundamental identifier and unit types shared across the simulator.

use std::fmt;
use std::hash::Hasher;

/// A simulation cycle count in the SMX clock domain.
pub type Cycle = u64;

/// Identifies a stream multiprocessor (SMX).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SmxId(pub u16);

impl SmxId {
    /// Returns the SMX index as a `usize` for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SmxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SMX{}", self.0)
    }
}

/// Identifies a schedulable batch of thread blocks.
///
/// A batch is either a kernel (host-launched or CDP device-launched) or a
/// DTBL thread-block group coalesced onto an existing kernel. Batches are
/// numbered in creation order, globally across the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatchId(pub u32);

impl BatchId {
    /// Returns the batch index as a `usize` for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Globally identifies a thread block: a batch plus the TB's index within
/// that batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TbRef {
    /// The batch the TB belongs to.
    pub batch: BatchId,
    /// Index of the TB within the batch, in dispatch order.
    pub index: u32,
}

impl fmt::Display for TbRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/TB{}", self.batch, self.index)
    }
}

/// A scheduling priority level.
///
/// Host-launched kernels have priority 0; each nested device launch adds
/// one (schedulers clamp to their maximum level `L`). Higher values are
/// scheduled first under LaPerm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(pub u8);

impl Priority {
    /// The priority of host-launched (top-level) kernels.
    pub const HOST: Priority = Priority(0);

    /// Returns the priority one level higher, saturating.
    pub fn child(self) -> Priority {
        Priority(self.0.saturating_add(1))
    }

    /// Clamps the priority to a maximum nesting level.
    pub fn clamp_to(self, max_level: u8) -> Priority {
        Priority(self.0.min(max_level))
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A byte address in the simulated global memory space.
pub type Addr = u64;

/// A 128-byte cache line address (byte address >> line bits).
pub type LineAddr = u64;

/// Multiply-mix hasher for `u64` line addresses, for maps keyed by line
/// (`HashMap<LineAddr, _, BuildHasherDefault<LineHasher>>`). The MSHR
/// map is probed on every transaction that reaches L2, where SipHash
/// shows up in profiles; a fixed-key mix is plenty for cache-line keys
/// and, unlike `RandomState`, is deterministic across processes.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn priority_child_increments() {
        assert_eq!(Priority::HOST.child(), Priority(1));
        assert_eq!(Priority(3).child(), Priority(4));
    }

    #[test]
    fn priority_child_saturates() {
        assert_eq!(Priority(u8::MAX).child(), Priority(u8::MAX));
    }

    #[test]
    fn priority_clamps_to_max_level() {
        assert_eq!(Priority(5).clamp_to(2), Priority(2));
        assert_eq!(Priority(1).clamp_to(2), Priority(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SmxId(3).to_string(), "SMX3");
        assert_eq!(BatchId(7).to_string(), "B7");
        assert_eq!(TbRef { batch: BatchId(2), index: 9 }.to_string(), "B2/TB9");
        assert_eq!(Priority(1).to_string(), "P1");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(BatchId(1) < BatchId(2));
        assert!(SmxId(0) < SmxId(12));
        assert!(Priority(0) < Priority(1));
    }
}
