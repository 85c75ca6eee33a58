//! Memory access coalescing.
//!
//! A warp memory instruction supplies up to 32 per-thread byte addresses;
//! the coalescer groups them into the minimal set of distinct cache-line
//! transactions, exactly as GPU load/store units do for 128-byte
//! segments.

use crate::types::{Addr, LineAddr};

/// Groups per-thread byte addresses into distinct line transactions.
///
/// Returns the line addresses in first-appearance order (deterministic),
/// deduplicated.
pub fn coalesce(addrs: &[Addr], line_bits: u32) -> Vec<LineAddr> {
    let mut lines: Vec<LineAddr> = Vec::with_capacity(4);
    coalesce_into(addrs, line_bits, &mut lines);
    lines
}

/// [`coalesce`] into a caller-owned buffer (cleared first), so hot paths
/// can reuse one allocation across warp accesses.
pub fn coalesce_into(addrs: &[Addr], line_bits: u32, out: &mut Vec<LineAddr>) {
    out.clear();
    for &a in addrs {
        let line = a >> line_bits;
        if !out.contains(&line) {
            out.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    const LINE_BITS: u32 = 7; // 128-byte lines

    #[test]
    fn fully_coalesced_single_transaction() {
        // 32 consecutive 4-byte words starting at a line boundary fit in
        // one 128-byte line.
        let addrs: Vec<Addr> = (0..32).map(|t| 4096 + t * 4).collect();
        assert_eq!(coalesce(&addrs, LINE_BITS), vec![4096 >> 7]);
    }

    #[test]
    fn misaligned_coalesced_two_transactions() {
        let addrs: Vec<Addr> = (0..32).map(|t| 4096 + 64 + t * 4).collect();
        assert_eq!(coalesce(&addrs, LINE_BITS).len(), 2);
    }

    #[test]
    fn fully_scattered_32_transactions() {
        let addrs: Vec<Addr> = (0..32).map(|t| t * 128 * 17).collect();
        assert_eq!(coalesce(&addrs, LINE_BITS).len(), 32);
    }

    #[test]
    fn broadcast_one_transaction() {
        let addrs = vec![12345u64; 32];
        assert_eq!(coalesce(&addrs, LINE_BITS).len(), 1);
    }

    #[test]
    fn empty_access_no_transactions() {
        assert!(coalesce(&[], LINE_BITS).is_empty());
    }

    #[test]
    fn order_is_first_appearance() {
        let addrs = vec![1000, 0, 1001, 5];
        let lines = coalesce(&addrs, LINE_BITS);
        assert_eq!(lines, vec![1000 >> 7, 0]);
    }

    #[test]
    fn count_never_exceeds_thread_count() {
        let addrs: Vec<Addr> = (0..32).map(|t| t * 999).collect();
        assert!(coalesce(&addrs, LINE_BITS).len() <= 32);
    }
}
