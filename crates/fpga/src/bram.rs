//! A simple BRAM capacity planner.
//!
//! The paper's engine stores everything on chip: per-PE tree memories, the
//! result memory, and input staging. "As the model gets more complex ... the
//! FPGA memory resources becomes the limiting factor." This allocator tracks
//! named regions against the device capacity so model loading fails exactly
//! when the paper says it would.

use serde::{Deserialize, Serialize};

use crate::error::FpgaError;

/// A named BRAM region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BramRegion {
    /// Human-readable purpose ("tree memory", "result memory", ...).
    pub label: String,
    /// Region size in bytes.
    pub bytes: u64,
}

/// Tracks BRAM allocations against a fixed capacity.
///
/// # Example
///
/// ```
/// use mlscore_fpga::BramAllocator;
///
/// let mut bram = BramAllocator::new(1024);
/// bram.alloc("tree memory", 512)?;
/// assert_eq!(bram.free_bytes(), 512);
/// assert!(bram.alloc("result memory", 1024).is_err());
/// # Ok::<(), mlscore_fpga::FpgaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BramAllocator {
    capacity: u64,
    regions: Vec<BramRegion>,
}

impl BramAllocator {
    /// Creates an allocator over `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            regions: Vec::new(),
        }
    }

    /// Reserves a named region.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BramExceeded`] when the region does not fit.
    pub fn alloc(&mut self, label: impl Into<String>, bytes: u64) -> Result<(), FpgaError> {
        let used = self.used_bytes();
        if used + bytes > self.capacity {
            return Err(FpgaError::BramExceeded {
                needed: used + bytes,
                available: self.capacity,
            });
        }
        self.regions.push(BramRegion {
            label: label.into(),
            bytes,
        });
        Ok(())
    }

    /// Total bytes currently reserved.
    pub fn used_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.bytes).sum()
    }

    /// Bytes still available.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used_bytes()
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The reserved regions, in allocation order.
    pub fn regions(&self) -> &[BramRegion] {
        &self.regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_accounting() {
        let mut b = BramAllocator::new(100);
        b.alloc("a", 40).unwrap();
        b.alloc("b", 60).unwrap();
        assert_eq!(b.used_bytes(), 100);
        assert_eq!(b.free_bytes(), 0);
        assert_eq!(b.regions().len(), 2);
        assert_eq!(b.capacity(), 100);
    }

    #[test]
    fn over_allocation_reports_sizes() {
        let mut b = BramAllocator::new(100);
        b.alloc("a", 90).unwrap();
        let err = b.alloc("b", 20).unwrap_err();
        assert_eq!(
            err,
            FpgaError::BramExceeded {
                needed: 110,
                available: 100
            }
        );
        // Failed allocation leaves state unchanged.
        assert_eq!(b.used_bytes(), 90);
    }
}
