//! Simulator error type.

use std::error::Error;
use std::fmt;
use supersym_isa::{FuncId, IsaError};

/// Errors raised while executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The program failed static validation.
    InvalidProgram(IsaError),
    /// A memory access fell outside the simulated memory.
    MemoryOutOfBounds {
        /// The faulting word address.
        addr: i64,
        /// Size of the simulated memory, in words.
        memory_words: usize,
    },
    /// The call stack exceeded its depth limit.
    CallStackOverflow {
        /// The depth limit that was exceeded.
        limit: usize,
    },
    /// Execution ran past the end of a function without `ret` or `halt`.
    FellOffFunction(FuncId),
    /// Execution exceeded the configured step limit (runaway program).
    StepLimitExceeded {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// A `call` targeted a function id outside the program. Unreachable
    /// after [`supersym_isa::Program::validate`], but the executor must not
    /// trust that coupling: torture-mutated programs reach `step` however
    /// they can.
    UnknownFunction(FuncId),
    /// A branch or jump named a label with no slot in its function's table.
    /// Like [`SimError::UnknownFunction`], a typed backstop behind the
    /// static validator.
    DanglingLabel {
        /// The function the branch executed in.
        func: FuncId,
        /// The offending label slot.
        slot: u32,
    },
    /// A program handed to [`Recording::replay`](crate::Recording::replay)
    /// is not a region permutation of the recorded program under the slot
    /// map it came with.
    NotARecordedPermutation,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            SimError::MemoryOutOfBounds { addr, memory_words } => {
                write!(f, "memory access at word {addr} outside 0..{memory_words}")
            }
            SimError::CallStackOverflow { limit } => {
                write!(f, "call stack exceeded {limit} frames")
            }
            SimError::FellOffFunction(id) => {
                write!(f, "execution fell off the end of function {id}")
            }
            SimError::StepLimitExceeded { limit } => {
                write!(f, "execution exceeded the step limit of {limit}")
            }
            SimError::UnknownFunction(id) => {
                write!(f, "call to unknown function {id}")
            }
            SimError::DanglingLabel { func, slot } => {
                write!(f, "branch in {func} to label slot {slot} with no target")
            }
            SimError::NotARecordedPermutation => {
                f.write_str("program is not a region permutation of the recorded program")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::InvalidProgram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IsaError> for SimError {
    fn from(e: IsaError) -> Self {
        SimError::InvalidProgram(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SimError::MemoryOutOfBounds {
            addr: -1,
            memory_words: 100,
        };
        assert_eq!(e.to_string(), "memory access at word -1 outside 0..100");
        assert!(e.source().is_none());

        let inner = IsaError::MissingEntry;
        let e = SimError::from(inner);
        assert!(e.source().is_some());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
