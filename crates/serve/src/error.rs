//! The serving crate's error type.
//!
//! A malformed workload is *load*, not a bug: a serving endpoint must
//! refuse it with a description instead of panicking. Everything the
//! engine can reject at run time funnels through [`ServeError`].

use std::error::Error;
use std::fmt;

use mlscore_backend::BackendError;

/// Errors a serving run (or a coalesced functional pass) can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The workload specification cannot be served as written (for
    /// example, a non-positive Poisson rate).
    InvalidWorkload {
        /// What is wrong with the specification.
        reason: String,
    },
    /// A coalesced pass was handed zero frames to merge.
    EmptyBatch,
    /// A functional scoring call inside the serving path failed.
    Backend(BackendError),
}

impl ServeError {
    /// Convenience constructor for [`ServeError::InvalidWorkload`].
    pub fn workload(reason: impl Into<String>) -> Self {
        ServeError::InvalidWorkload {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidWorkload { reason } => {
                write!(f, "invalid workload: {reason}")
            }
            ServeError::EmptyBatch => write!(f, "a merged pass needs at least one frame"),
            ServeError::Backend(e) => write!(f, "scoring failed: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BackendError> for ServeError {
    fn from(e: BackendError) -> Self {
        ServeError::Backend(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServeError::workload("Poisson rate must be positive");
        assert!(format!("{e}").contains("Poisson rate"));
        assert!(e.source().is_none());
        let e: ServeError = BackendError::unsupported("FPGA", "too deep").into();
        assert!(e.source().is_some());
        assert_eq!(e, e.clone());
        assert!(format!("{}", ServeError::EmptyBatch).contains("at least one frame"));
    }
}
