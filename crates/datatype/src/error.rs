//! Datatype engine errors.

use std::fmt;

/// Result alias for datatype operations.
pub type DatatypeResult<T> = Result<T, DatatypeError>;

/// Errors raised while constructing or using derived datatypes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatatypeError {
    /// A typemap block reaches outside the supplied memory region.
    OutOfBounds {
        /// Offending byte offset (relative to the base address).
        offset: isize,
        /// Block length in bytes.
        len: usize,
        /// Size of the supplied region.
        region: usize,
    },
    /// The safe API requires a non-negative lower bound (use the raw API
    /// for types with negative displacements).
    NegativeLowerBound {
        /// The type's lower bound.
        lb: isize,
    },
    /// The destination buffer is too small for the packed representation.
    PackOverflow {
        /// Bytes the packed form needs.
        needed: usize,
        /// Bytes the destination offers.
        available: usize,
    },
    /// The source buffer holds fewer packed bytes than the type expects.
    UnpackUnderflow {
        /// Bytes the type expects.
        needed: usize,
        /// Bytes the source provides.
        available: usize,
    },
    /// `count` elements span, or pack to, more bytes than `usize` holds.
    CountOverflow {
        /// The element count asked for.
        count: usize,
    },
    /// A constructor was given inconsistent arguments.
    InvalidArgument(&'static str),
    /// The type's size, bounds or a displacement does not fit `isize`
    /// (see [`crate::Datatype::layout`]).
    LayoutOverflow,
}

impl fmt::Display for DatatypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OutOfBounds {
                offset,
                len,
                region,
            } => write!(
                f,
                "typemap block [{offset}, {offset}+{len}) outside region of {region} bytes"
            ),
            Self::NegativeLowerBound { lb } => {
                write!(f, "type has negative lower bound {lb}; use the raw API")
            }
            Self::PackOverflow { needed, available } => {
                write!(f, "pack needs {needed} bytes, destination has {available}")
            }
            Self::UnpackUnderflow { needed, available } => {
                write!(f, "unpack needs {needed} bytes, source has {available}")
            }
            Self::CountOverflow { count } => {
                write!(f, "{count} elements exceed the address space")
            }
            Self::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
            Self::LayoutOverflow => write!(f, "datatype layout overflows isize"),
        }
    }
}

impl std::error::Error for DatatypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_numbers() {
        let e = DatatypeError::PackOverflow {
            needed: 10,
            available: 4,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("4"));
    }
}
