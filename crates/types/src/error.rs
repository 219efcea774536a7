//! Error type for trace parsing and serialisation.

use std::fmt;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while parsing or (de)serialising traffic data.
#[derive(Debug)]
pub enum Error {
    /// An IPv4 address, subnet, port or protocol field failed to parse.
    Parse {
        /// What was being parsed (e.g. `"ipv4"`, `"protocol"`).
        what: &'static str,
        /// The offending input, truncated for display.
        input: String,
    },
    /// A CSV line did not have the expected number of fields.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// Explanation of the problem.
        reason: String,
    },
    /// A binary trace buffer was truncated, had trailing bytes or a bad
    /// magic/version.
    BadBinary(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { what, input } => write!(f, "cannot parse {what} from {input:?}"),
            Error::BadRecord { line, reason } => write!(f, "bad record at line {line}: {reason}"),
            Error::BadBinary(msg) => write!(f, "bad binary trace: {msg}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::codec::CodecError> for Error {
    fn from(e: crate::codec::CodecError) -> Self {
        Error::BadBinary(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::Parse {
            what: "ipv4",
            input: "300.1.2.3".into(),
        };
        assert!(e.to_string().contains("ipv4"));
        assert!(e.to_string().contains("300.1.2.3"));
    }

    #[test]
    fn io_error_round_trips_source() {
        let e: Error = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("eof"));
    }
}
