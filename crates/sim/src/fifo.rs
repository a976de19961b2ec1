//! FIFO models for the L3 data-addressing path (paper Fig 5: the C
//! FIFO in front of the shift module, the k FIFO and the Reg FIFO
//! behind the parameter buffers) and the array-edge input/output FIFOs
//! of Fig 4.
//!
//! These are occupancy/backpressure models: they carry real values,
//! track high-water marks and refuse pushes when full, so schedules can
//! assert that the paper's buffer sizes (Table V) are actually
//! sufficient for the dataflows.

/// A bounded FIFO with occupancy statistics.
///
/// # Example
///
/// ```
/// use onesa_sim::fifo::Fifo;
///
/// let mut f: Fifo<i16> = Fifo::new(4);
/// assert!(f.push(7).is_ok());
/// assert_eq!(f.pop(), Some(7));
/// assert_eq!(f.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    capacity: usize,
    items: std::collections::VecDeque<T>,
    high_water: usize,
    rejected_pushes: u64,
}

/// Error returned when pushing into a full FIFO (the value is handed
/// back so the producer can retry — hardware backpressure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoFull<T>(pub T);

impl<T> std::fmt::Display for FifoFull<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("fifo is full")
    }
}

impl<T: std::fmt::Debug> std::error::Error for FifoFull<T> {}

impl<T> Fifo<T> {
    /// Creates a FIFO with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be positive");
        Fifo {
            capacity,
            items: std::collections::VecDeque::with_capacity(capacity),
            high_water: 0,
            rejected_pushes: 0,
        }
    }

    /// Whether the FIFO is full (producer must stall).
    pub(crate) fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Pushes an entry.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFull`] with the rejected value when at capacity.
    pub fn push(&mut self, value: T) -> Result<(), FifoFull<T>> {
        if self.is_full() {
            self.rejected_pushes += 1;
            return Err(FifoFull(value));
        }
        self.items.push_back(value);
        self.high_water = self.high_water.max(self.items.len());
        Ok(())
    }

    /// Pops the oldest entry.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Highest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Rejected (backpressured) pushes.
    pub fn rejected_pushes(&self) -> u64 {
        self.rejected_pushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let mut f: Fifo<u32> = Fifo::new(2);
        assert!(f.push(1).is_ok());
        assert!(f.push(2).is_ok());
        assert_eq!(f.push(3), Err(FifoFull(3)));
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), None);
        assert_eq!(f.rejected_pushes(), 1);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut f: Fifo<u32> = Fifo::new(8);
        for i in 0..5 {
            f.push(i).unwrap();
        }
        for _ in 0..5 {
            f.pop();
        }
        assert_eq!(f.high_water(), 5);
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn table5_l3_budget_fits_one_tile_of_parameters() {
        // 0.28 KB L3 ≈ 143 INT16 entries; one 8×8 tile's k stream (64
        // entries) fits with double-buffering headroom.
        let depth = 287 / 2 / 2; // bytes → entries, halved for k/b split
        let mut k_fifo: Fifo<i16> = Fifo::new(depth);
        for i in 0..64 {
            assert!(k_fifo.push(i).is_ok(), "entry {i}");
        }
        assert!(k_fifo.high_water() <= depth);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _: Fifo<u8> = Fifo::new(0);
    }
}
