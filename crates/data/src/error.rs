//! Error types for the data substrate.

use std::fmt;

/// Errors arising while reading or writing transaction data.
#[derive(Debug)]
pub enum DataError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A token that is not a `u32` item id.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A structurally malformed line: the tokens may be fine
    /// individually but the line as a whole is not in the expected
    /// shape (missing `:` separator, pattern with no items, …).
    Format {
        /// 1-based line number.
        line: usize,
        /// What about the line's structure is wrong.
        reason: String,
    },
    /// Compressed-layout sections that break one of the layout's
    /// invariants (see [`crate::CdbLayout::try_from_raw_parts`]).
    Layout(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Io(e) => write!(f, "i/o error: {e}"),
            DataError::Parse { line, token } => {
                write!(f, "line {line}: invalid item id {token:?}")
            }
            DataError::Format { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            DataError::Layout(reason) => write!(f, "invalid compressed layout: {reason}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            DataError::Parse { .. } | DataError::Format { .. } | DataError::Layout(_) => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_io() {
        let e = DataError::from(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn display_parse() {
        let e = DataError::Parse { line: 3, token: "x7".into() };
        let s = e.to_string();
        assert!(s.contains("line 3") && s.contains("x7"));
    }

    #[test]
    fn display_format() {
        let e = DataError::Format { line: 5, reason: "missing ':' separator".into() };
        let s = e.to_string();
        assert!(s.contains("line 5") && s.contains("missing ':'"), "{s}");
    }
}
