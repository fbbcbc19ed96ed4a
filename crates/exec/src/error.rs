//! Execution errors and traps.

use std::error::Error;
use std::fmt;

/// A runtime trap: the machine-level reason an execution aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Dereference of the null pointer.
    NullDeref,
    /// Access outside allocated memory.
    OutOfBounds {
        /// The offending cell address.
        addr: usize,
    },
    /// Static-array index outside the declared extent (trapping policy).
    ArrayIndexOutOfBounds {
        /// The offending index.
        index: i128,
        /// The declared extent.
        len: u64,
    },
    /// The op budget was exhausted (probable non-termination).
    FuelExhausted,
    /// Call depth exceeded the configured limit.
    StackOverflow,
    /// Read from an empty stream.
    StreamUnderflow,
    /// Division or remainder by zero.
    DivisionByZero,
    /// An allocation would take the run past its cell budget
    /// ([`crate::memory::MAX_CELLS`]).
    CellBudgetExhausted,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::NullDeref => write!(f, "null pointer dereference"),
            Trap::OutOfBounds { addr } => write!(f, "memory access out of bounds at {addr}"),
            Trap::ArrayIndexOutOfBounds { index, len } => {
                write!(f, "array index {index} out of bounds for length {len}")
            }
            Trap::FuelExhausted => write!(f, "execution fuel exhausted"),
            Trap::StackOverflow => write!(f, "call stack overflow"),
            Trap::StreamUnderflow => write!(f, "read from empty stream"),
            Trap::DivisionByZero => write!(f, "division by zero"),
            Trap::CellBudgetExhausted => write!(f, "memory cell budget exhausted"),
        }
    }
}

/// An execution failure: either a runtime trap or a structural problem in
/// the program (missing function, bad argument shape, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A runtime trap.
    Trap(Trap),
    /// A malformed program or call (not a trap — the setup itself is wrong).
    Setup(String),
    /// A type whose cell size cannot be determined (unresolved array
    /// extent, undefined struct/union). Split from [`ExecError::Setup`] so
    /// layout failures in the interpreter hot paths surface as themselves
    /// instead of being papered over with a fallback size.
    UnknownSize {
        /// Description of the unsizable type.
        ty: String,
    },
}

impl ExecError {
    /// Wraps a trap.
    pub fn trap(t: Trap) -> ExecError {
        ExecError::Trap(t)
    }

    /// Creates a setup error.
    pub fn setup(msg: impl Into<String>) -> ExecError {
        ExecError::Setup(msg.into())
    }

    /// Creates an unknown-size error for a type description.
    pub fn unknown_size(ty: impl Into<String>) -> ExecError {
        ExecError::UnknownSize { ty: ty.into() }
    }

    /// The trap, if this is one.
    pub fn as_trap(&self) -> Option<&Trap> {
        match self {
            ExecError::Trap(t) => Some(t),
            ExecError::Setup(_) | ExecError::UnknownSize { .. } => None,
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Trap(t) => write!(f, "trap: {t}"),
            ExecError::Setup(m) => write!(f, "setup error: {m}"),
            ExecError::UnknownSize { ty } => write!(f, "cannot determine size of {ty}"),
        }
    }
}

impl Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of each `Trap` variant, for exhaustive-ish round-trip checks.
    fn all_traps() -> Vec<Trap> {
        vec![
            Trap::NullDeref,
            Trap::OutOfBounds { addr: 42 },
            Trap::ArrayIndexOutOfBounds { index: -1, len: 4 },
            Trap::FuelExhausted,
            Trap::StackOverflow,
            Trap::StreamUnderflow,
            Trap::DivisionByZero,
            Trap::CellBudgetExhausted,
        ]
    }

    #[test]
    fn every_trap_displays_distinctly() {
        let rendered: Vec<String> = all_traps().iter().map(Trap::to_string).collect();
        for (i, a) in rendered.iter().enumerate() {
            assert!(!a.is_empty());
            for b in &rendered[i + 1..] {
                assert_ne!(a, b, "trap messages must be distinguishable");
            }
        }
    }

    #[test]
    fn exec_error_round_trips_through_std_error() {
        for trap in all_traps() {
            let e = ExecError::trap(trap.clone());
            assert_eq!(e.as_trap(), Some(&trap));
            // Through the `std::error::Error` object the message survives.
            let boxed: Box<dyn Error> = Box::new(e.clone());
            assert_eq!(boxed.to_string(), e.to_string());
            assert_eq!(e.to_string(), format!("trap: {trap}"));
        }
        let setup = ExecError::setup("bad call");
        assert_eq!(setup.to_string(), "setup error: bad call");
        assert_eq!(setup.as_trap(), None);
        let unsized_ = ExecError::unknown_size("struct `node`");
        assert_eq!(
            unsized_.to_string(),
            "cannot determine size of struct `node`"
        );
        assert_eq!(unsized_.as_trap(), None);
        assert_ne!(setup, unsized_);
    }
}
