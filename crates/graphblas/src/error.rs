//! Error types mirroring the GraphBLAS C API error codes.

use std::fmt;

/// Result alias used throughout the crate.
pub type GrbResult<T> = Result<T, GrbError>;

/// Errors reported by GraphBLAS-style operations.
///
/// The variants correspond to the `GrB_Info` error codes of the C API that
/// are reachable from safe Rust (out-of-memory and panic-related codes are
/// handled by the Rust runtime instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrbError {
    /// A row or column index is outside the matrix dimensions.
    IndexOutOfBounds {
        /// The offending index.
        index: u64,
        /// The dimension it was compared against.
        dim: u64,
    },
    /// Two objects have incompatible dimensions for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// An operation received an empty object where a non-empty one is required.
    EmptyObject(&'static str),
    /// A domain error: the value cannot be represented in the output type.
    Domain(String),
    /// The requested entry does not exist (GrB_NO_VALUE).
    NoValue,
    /// An invalid argument value (e.g. zero dimension, malformed cut list).
    InvalidValue(String),
    /// A write could make one structure hold more than `u32::MAX` entries,
    /// the most its 32-bit row pointers address.  Nothing was staged.
    CapacityExceeded {
        /// Entries held before the write.
        held: usize,
        /// Entries the write would add.
        adding: usize,
    },
    /// A supervised engine lost one or more worker threads (panic or
    /// channel closure).  `shards` lists the dead shard indices; `detail`
    /// carries the first captured panic message, if any.
    ShardsLost {
        /// Indices of the lost shards.
        shards: Vec<usize>,
        /// Captured panic message or closure description.
        detail: String,
    },
    /// A bounded wait on an engine component elapsed before completion.
    /// The component may still finish later; the caller's wait is over.
    Timeout {
        /// What was being waited on.
        what: &'static str,
        /// The configured bound, in milliseconds.
        after_ms: u64,
    },
    /// An error injected by the fault-injection harness (the `failpoints`
    /// feature).  Never constructed in production builds.
    Injected(&'static str),
    /// A durable-store failure: on-disk data failed strict validation
    /// (bad magic, checksum mismatch, out-of-bounds section, invariant
    /// violation) or an I/O operation on the store failed.  Parsers return
    /// this instead of panicking, whatever the input bytes.
    Corruption {
        /// What failed validation and where.
        detail: String,
    },
}

impl fmt::Display for GrbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrbError::IndexOutOfBounds { index, dim } => {
                write!(f, "index {index} out of bounds for dimension {dim}")
            }
            GrbError::DimensionMismatch { detail } => {
                write!(f, "dimension mismatch: {detail}")
            }
            GrbError::EmptyObject(what) => write!(f, "empty object: {what}"),
            GrbError::Domain(msg) => write!(f, "domain error: {msg}"),
            GrbError::NoValue => write!(f, "no value stored at the requested position"),
            GrbError::InvalidValue(msg) => write!(f, "invalid value: {msg}"),
            GrbError::CapacityExceeded { held, adding } => {
                write!(f, "{held} entries held plus {adding} could pass u32::MAX")
            }
            GrbError::ShardsLost { shards, detail } => {
                write!(f, "lost shard workers {shards:?}: {detail}")
            }
            GrbError::Timeout { what, after_ms } => {
                write!(f, "timed out waiting on {what} after {after_ms} ms")
            }
            GrbError::Injected(site) => write!(f, "injected fault at failpoint '{site}'"),
            GrbError::Corruption { detail } => {
                write!(f, "durable store corruption: {detail}")
            }
        }
    }
}

impl std::error::Error for GrbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = GrbError::IndexOutOfBounds { index: 10, dim: 4 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('4'));

        let e = GrbError::DimensionMismatch {
            detail: "2x3 vs 4x5".into(),
        };
        assert!(e.to_string().contains("2x3 vs 4x5"));

        let e = GrbError::EmptyObject("cut list");
        assert!(e.to_string().contains("cut list"));

        let e = GrbError::Domain("negative".into());
        assert!(e.to_string().contains("negative"));

        assert!(GrbError::NoValue.to_string().contains("no value"));

        let e = GrbError::InvalidValue("zero dim".into());
        assert!(e.to_string().contains("zero dim"));

        let e = GrbError::CapacityExceeded { held: 7, adding: 9 };
        assert!(e.to_string().contains("7 entries held plus 9"));

        let e = GrbError::ShardsLost {
            shards: vec![2, 5],
            detail: "boom".into(),
        };
        assert!(e.to_string().contains("[2, 5]"));
        assert!(e.to_string().contains("boom"));

        let e = GrbError::Timeout {
            what: "drain barrier",
            after_ms: 750,
        };
        assert!(e.to_string().contains("drain barrier"));
        assert!(e.to_string().contains("750"));

        let e = GrbError::Injected("worker-apply");
        assert!(e.to_string().contains("worker-apply"));

        let e = GrbError::Corruption {
            detail: "level 2: section crc mismatch".into(),
        };
        assert!(e.to_string().contains("corruption"));
        assert!(e.to_string().contains("section crc mismatch"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(GrbError::NoValue, GrbError::NoValue);
        assert_ne!(GrbError::NoValue, GrbError::EmptyObject("x"),);
    }
}
