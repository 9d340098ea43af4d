//! XDR codec errors.

use std::fmt;

/// Result alias for XDR operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while decoding XDR data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The buffer ended before the requested item was complete.
    UnexpectedEof {
        /// Bytes needed to finish the current item.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A boolean word held something other than 0 or 1.
    InvalidBool(u32),
    /// A string was not valid UTF-8.
    InvalidUtf8,
    /// A variable-length item declared a length beyond the decoder's cap.
    LengthOverLimit {
        /// Declared length.
        declared: u32,
        /// Configured cap.
        limit: u32,
    },
    /// Padding bytes were non-zero (RFC 4506 requires zero fill).
    NonZeroPadding,
    /// An enum/union discriminant had no matching arm.
    InvalidDiscriminant(u32),
    /// A field decoded to a value its type does not allow, such as a
    /// zero chunk size; names the field.
    OutOfRange(&'static str),
    /// Input remained after a complete top-level decode.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of XDR data: need {needed} bytes, {remaining} remain"
            ),
            Error::InvalidBool(v) => write!(f, "invalid XDR boolean word {v}"),
            Error::InvalidUtf8 => write!(f, "XDR string is not valid UTF-8"),
            Error::LengthOverLimit { declared, limit } => write!(
                f,
                "XDR variable-length item declares {declared} bytes, over the {limit} byte cap"
            ),
            Error::NonZeroPadding => write!(f, "XDR padding bytes are not zero"),
            Error::InvalidDiscriminant(d) => {
                write!(f, "XDR union discriminant {d} has no matching arm")
            }
            Error::OutOfRange(field) => write!(f, "XDR field `{field}` is out of range"),
            Error::TrailingBytes { remaining } => {
                write!(f, "{remaining} bytes remain after a complete XDR decode")
            }
        }
    }
}

impl std::error::Error for Error {}
