//! Flat cell memory with a bump allocator and explicit free.
//!
//! Every scalar occupies one cell; aggregates are contiguous cell runs.
//! Cell address 0 is reserved as the null pointer. `sizeof(T)` in the
//! interpreter is measured in cells, so `malloc(sizeof(struct Node))`
//! allocates exactly the flattened field count.

use crate::error::{ExecError, Trap};
use crate::value::Value;

/// Most cells a run may allocate in total: 4 Mi cells (128 MiB of 32-byte
/// cells). Freed cells are not reused, so they still count. The paper
/// subjects stay below 1% of it, fuzzing included; going over traps with
/// [`Trap::CellBudgetExhausted`] on both engines instead of exhausting the
/// host.
pub const MAX_CELLS: usize = 1 << 22;

/// Flat memory: a growable vector of cells.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    cells: Vec<Value>,
    /// Peak number of live allocated cells (profiling input for array
    /// finitization).
    peak: usize,
    live: usize,
}

impl Memory {
    /// Creates an empty memory (address 0 reserved).
    pub fn new() -> Memory {
        Memory {
            cells: vec![Value::Unit],
            peak: 0,
            live: 0,
        }
    }

    /// Allocates `n` contiguous cells initialized to zero ints and returns
    /// the base address.
    ///
    /// # Errors
    ///
    /// Traps with [`Trap::CellBudgetExhausted`], allocating nothing, when
    /// the cells would take the total past [`MAX_CELLS`].
    pub fn alloc(&mut self, n: usize) -> Result<usize, ExecError> {
        if n > MAX_CELLS.saturating_sub(self.total_cells()) {
            return Err(ExecError::trap(Trap::CellBudgetExhausted));
        }
        let base = self.cells.len();
        self.cells
            .extend(std::iter::repeat_with(|| Value::int(0)).take(n));
        self.live += n;
        self.peak = self.peak.max(self.live);
        Ok(base)
    }

    /// Marks `n` cells as freed (storage is not reused; the interpreter only
    /// tracks live-size for profiling).
    pub fn free(&mut self, n: usize) {
        self.live = self.live.saturating_sub(n);
    }

    /// Reads a cell.
    pub fn load(&self, addr: usize) -> Result<&Value, ExecError> {
        if addr == 0 {
            return Err(ExecError::trap(Trap::NullDeref));
        }
        self.cells
            .get(addr)
            .ok_or_else(|| ExecError::trap(Trap::OutOfBounds { addr }))
    }

    /// Writes a cell.
    pub fn store(&mut self, addr: usize, v: Value) -> Result<(), ExecError> {
        if addr == 0 {
            return Err(ExecError::trap(Trap::NullDeref));
        }
        match self.cells.get_mut(addr) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(ExecError::trap(Trap::OutOfBounds { addr })),
        }
    }

    /// Reads `n` cells starting at `addr`.
    pub fn load_run(&self, addr: usize, n: usize) -> Result<Vec<Value>, ExecError> {
        (0..n).map(|i| self.load(addr + i).cloned()).collect()
    }

    /// Peak live allocation in cells.
    pub fn peak_cells(&self) -> usize {
        self.peak
    }

    /// Total cells ever allocated (excluding the null sentinel).
    pub fn total_cells(&self) -> usize {
        self.cells.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_distinct_regions() {
        let mut m = Memory::new();
        let a = m.alloc(4).unwrap();
        let b = m.alloc(2).unwrap();
        assert!(a >= 1);
        assert_eq!(b, a + 4);
    }

    #[test]
    fn load_store_round_trip() {
        let mut m = Memory::new();
        let a = m.alloc(2).unwrap();
        m.store(a + 1, Value::int(42)).unwrap();
        assert_eq!(m.load(a + 1).unwrap().as_int(), 42);
    }

    #[test]
    fn null_access_traps() {
        let mut m = Memory::new();
        assert!(m.load(0).is_err());
        assert!(m.store(0, Value::int(1)).is_err());
    }

    #[test]
    fn oob_access_traps() {
        let m = Memory::new();
        assert!(m.load(999).is_err());
    }

    #[test]
    fn peak_tracks_live_allocation() {
        let mut m = Memory::new();
        m.alloc(10).unwrap();
        m.free(10);
        m.alloc(5).unwrap();
        assert_eq!(m.peak_cells(), 10);
    }

    #[test]
    fn budget_traps_without_allocating() {
        let mut m = Memory::new();
        assert_eq!(
            m.alloc(MAX_CELLS + 1).unwrap_err(),
            ExecError::trap(Trap::CellBudgetExhausted)
        );
        assert_eq!(m.total_cells(), 0);
        m.alloc(6).unwrap();
        assert!(m.alloc(MAX_CELLS - 5).is_err());
        assert!(m.alloc(usize::MAX).is_err());
        assert_eq!(m.total_cells(), 6);
        m.alloc(2).unwrap();
    }
}
