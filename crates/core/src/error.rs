use std::fmt;

use reds_ooc::OocError;
use reds_stream::StreamError;

/// Errors of the REDS pipeline, for every pool backing.
#[derive(Debug)]
pub enum RedsError {
    /// Training data is empty — no metamodel can be fitted.
    EmptyTrainingData,
    /// The requested pseudo-label sample size is zero, or the given
    /// pool is empty.
    ZeroNewPoints,
    /// The given unlabeled pool has the wrong width.
    PoolShapeMismatch {
        /// Width implied by the pool buffer.
        pool_len: usize,
        /// Expected number of columns.
        m: usize,
    },
    /// A point handed to the pipeline contains NaN (datasets reject
    /// NaN input coordinates).
    NanInPoints {
        /// Row of the offending coordinate.
        row: usize,
        /// Column of the offending coordinate.
        column: usize,
    },
    /// A failure of the streaming machinery (spill I/O, corrupt runs,
    /// an unstreamable sampling design, …).
    Stream(StreamError),
    /// A failure of the out-of-core store (artifact verification,
    /// paged I/O).
    OutOfCore(OocError),
    /// The subgroup algorithm (or its configuration — e.g. PRIM with
    /// pasting) has no out-of-core code path.
    NoPagedPath {
        /// `SubgroupDiscovery::name` of the algorithm.
        algorithm: &'static str,
    },
}

impl fmt::Display for RedsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyTrainingData => write!(f, "cannot run REDS on empty training data"),
            Self::ZeroNewPoints => write!(f, "REDS needs L > 0 new points"),
            Self::PoolShapeMismatch { pool_len, m } => write!(
                f,
                "unlabeled pool of {pool_len} values is not a multiple of m = {m}"
            ),
            Self::NanInPoints { row, column } => {
                write!(f, "NaN input coordinate at row {row}, column {column}")
            }
            Self::Stream(e) => e.fmt(f),
            Self::OutOfCore(e) => e.fmt(f),
            Self::NoPagedPath { algorithm } => {
                write!(f, "algorithm {algorithm} has no out-of-core code path")
            }
        }
    }
}

impl std::error::Error for RedsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Stream(e) => Some(e),
            Self::OutOfCore(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StreamError> for RedsError {
    fn from(e: StreamError) -> Self {
        Self::Stream(e)
    }
}

impl From<OocError> for RedsError {
    fn from(e: OocError) -> Self {
        Self::OutOfCore(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(RedsError::EmptyTrainingData.to_string().contains("empty"));
        assert!(RedsError::ZeroNewPoints.to_string().contains("L > 0"));
        assert!(RedsError::PoolShapeMismatch { pool_len: 7, m: 2 }
            .to_string()
            .contains("7"));
    }
}
