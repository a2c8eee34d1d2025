//! Error types for fabric operations.
//!
//! The paper stresses that the custom datatype API propagates callback
//! failures through return codes ("Error handling is crucial for
//! serialization libraries that can fail in the case of invalid data").
//! The fabric therefore threads a typed error from every pack/unpack
//! callback invocation back to the request that triggered it.

use std::fmt;

/// Result alias used throughout the fabric.
pub type FabricResult<T> = Result<T, FabricError>;

/// Errors surfaced by fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// A destination or source rank outside the fabric's world.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// World size.
        world: usize,
    },
    /// The posted receive buffer is smaller than the matched message.
    Truncated {
        /// Incoming payload bytes.
        received: usize,
        /// Posted buffer capacity.
        capacity: usize,
    },
    /// A pack callback reported failure (code carried from the application).
    PackFailed(i32),
    /// An unpack callback reported failure.
    UnpackFailed(i32),
    /// A query (packed-size) callback reported failure.
    QueryFailed(i32),
    /// A region callback reported failure.
    RegionFailed(i32),
    /// A pack callback made no forward progress (returned `used == 0` for a
    /// non-empty fragment), which would loop forever.
    PackStalled {
        /// Packed-stream offset at the stall.
        offset: usize,
        /// Bytes still to pack.
        remaining: usize,
    },
    /// A pack callback reported writing more bytes than the fragment it was
    /// handed could hold, so the rest of its count was never written.
    PackOverrun {
        /// Packed-stream offset of the fragment.
        offset: usize,
        /// Bytes the callback claimed to have written.
        used: usize,
        /// Bytes the fragment could hold.
        room: usize,
    },
    /// The iov layouts of sender and receiver disagree in total length.
    IovMismatch {
        /// Total bytes the sender provides.
        send_bytes: usize,
        /// Total bytes the receiver expects.
        recv_bytes: usize,
    },
    /// The request was cancelled before completion.
    Cancelled,
    /// The fabric was shut down while requests were pending.
    ShutDown,
    /// The sender's structural type signature disagrees with the posted
    /// receive's (`MPICD_TYPECHECK=enforce`): the pair would silently
    /// interleave wrong bytes, so the receive fails before unpacking.
    TypeMismatch {
        /// The sender's 64-bit structural signature.
        sent: u64,
        /// The signature of the datatype the receive was posted with.
        expected: u64,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRank { rank, world } => {
                write!(f, "rank {rank} outside world of size {world}")
            }
            Self::Truncated { received, capacity } => write!(
                f,
                "message truncated: {received} bytes arrived for a {capacity}-byte buffer"
            ),
            Self::PackFailed(code) => write!(f, "pack callback failed with code {code}"),
            Self::UnpackFailed(code) => write!(f, "unpack callback failed with code {code}"),
            Self::QueryFailed(code) => write!(f, "query callback failed with code {code}"),
            Self::RegionFailed(code) => write!(f, "region callback failed with code {code}"),
            Self::PackStalled { offset, remaining } => write!(
                f,
                "pack callback stalled at offset {offset} with {remaining} bytes remaining"
            ),
            Self::PackOverrun { offset, used, room } => write!(
                f,
                "pack callback at offset {offset} claimed {used} bytes of a {room}-byte fragment"
            ),
            Self::IovMismatch {
                send_bytes,
                recv_bytes,
            } => write!(
                f,
                "iov length mismatch: sender provides {send_bytes} bytes, receiver expects {recv_bytes}"
            ),
            Self::Cancelled => write!(f, "request cancelled"),
            Self::ShutDown => write!(f, "fabric shut down with pending requests"),
            Self::TypeMismatch { sent, expected } => write!(
                f,
                "datatype signature mismatch: sender packed {sent:#018x}, receive posted {expected:#018x}"
            ),
        }
    }
}

impl FabricError {
    /// Stable numeric code carried in flight-recorder `Error` events
    /// (`aux` word), so dumps identify the failure class without string
    /// parsing. Codes are append-only.
    pub fn flight_code(&self) -> u64 {
        match self {
            Self::InvalidRank { .. } => 1,
            Self::Truncated { .. } => 2,
            Self::PackFailed(_) => 3,
            Self::UnpackFailed(_) => 4,
            Self::QueryFailed(_) => 5,
            Self::RegionFailed(_) => 6,
            Self::PackStalled { .. } => 7,
            Self::IovMismatch { .. } => 8,
            Self::Cancelled => 9,
            Self::ShutDown => 10,
            Self::TypeMismatch { .. } => 11,
            Self::PackOverrun { .. } => 12,
        }
    }
}

impl std::error::Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FabricError::Truncated {
            received: 100,
            capacity: 64,
        };
        let s = e.to_string();
        assert!(s.contains("100"));
        assert!(s.contains("64"));
    }

    #[test]
    fn flight_codes_are_distinct() {
        let all = [
            FabricError::InvalidRank { rank: 9, world: 2 },
            FabricError::Truncated {
                received: 2,
                capacity: 1,
            },
            FabricError::PackFailed(1),
            FabricError::UnpackFailed(1),
            FabricError::QueryFailed(1),
            FabricError::RegionFailed(1),
            FabricError::PackStalled {
                offset: 0,
                remaining: 1,
            },
            FabricError::IovMismatch {
                send_bytes: 1,
                recv_bytes: 2,
            },
            FabricError::Cancelled,
            FabricError::ShutDown,
            FabricError::TypeMismatch {
                sent: 1,
                expected: 2,
            },
            FabricError::PackOverrun {
                offset: 0,
                used: 2,
                room: 1,
            },
        ];
        let mut codes: Vec<u64> = all.iter().map(|e| e.flight_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "flight codes must be unique");
        assert!(codes.iter().all(|&c| c > 0), "0 is reserved for 'no code'");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(FabricError::PackFailed(3), FabricError::PackFailed(3));
        assert_ne!(FabricError::PackFailed(3), FabricError::UnpackFailed(3));
    }
}
