//! The one length-checked reader behind every binary decoder.
//!
//! DKVT traces, DKVC day corpora, DKVE/DKVM models and their service
//! map, cached k′-NN lists and the serve daemon's wire frames all decode
//! through [`Reader`], so three rules live here and nowhere else:
//!
//! * **Truncation.** Every read returns `Result`; no method panics.
//! * **Allocation bound.** A count decoded from the input may size an
//!   allocation only through [`Reader::count`], which fails unless that
//!   many records of their smallest encoding fit in the bytes that
//!   remain. A hostile count therefore cannot ask for more memory than a
//!   small multiple of the input's own length.
//! * **Trailing bytes.** [`Reader::finish`] fails if any byte is left, so
//!   a count corrupted downward does not decode as a shorter value.
//!
//! Each decoder keeps only the rules of its own format: magic and
//! version, caps, index ranges. Encoders need no counterpart: they
//! append `to_le_bytes()` to a `Vec<u8>`.

use std::fmt;

/// Why a [`Reader`] refused the input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ends inside a field, or cannot hold the records a
    /// count promises.
    Truncated,
    /// Bytes remain after the last field.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after the last field"),
        }
    }
}

/// For the decoders whose error type is a message.
impl From<CodecError> for String {
    fn from(e: CodecError) -> String {
        e.to_string()
    }
}

/// Little-endian reads over a borrowed byte slice, each of which fails
/// instead of panicking when the input runs out.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Reader { rest: input }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// Checks a decoded record count before it sizes an allocation: `n`
    /// records of at least `bytes_each` bytes each must fit in what
    /// remains. A `bytes_each` of 0 is taken as 1, so no count goes
    /// unbounded.
    pub fn count(&self, n: impl Into<u64>, bytes_each: usize) -> Result<usize, CodecError> {
        let n = usize::try_from(n.into()).map_err(|_| CodecError::Truncated)?;
        match n.checked_mul(bytes_each.max(1)) {
            Some(total) if total <= self.rest.len() => Ok(n),
            _ => Err(CodecError::Truncated),
        }
    }

    /// Ends the decode: fails if any byte is left.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_width_little_endian() {
        let mut input = vec![7];
        input.extend_from_slice(&0xBEEFu16.to_le_bytes());
        input.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        input.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        input.extend_from_slice(&1.25f32.to_le_bytes());
        input.extend_from_slice(b"tail");
        let mut r = Reader::new(&input);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(0x0123_4567_89AB_CDEF));
        assert_eq!(r.f32(), Ok(1.25));
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.bytes(4), Ok(&b"tail"[..]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn a_short_read_fails_and_consumes_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(CodecError::Truncated));
        assert_eq!(r.bytes(4), Err(CodecError::Truncated));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(r.u16(), Err(CodecError::Truncated));
        assert_eq!(r.u8(), Ok(3));
        assert_eq!(r.u8(), Err(CodecError::Truncated));
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        assert_eq!(r.f32(), Err(CodecError::Truncated));
        assert_eq!(r.bytes(0), Ok(&[][..]));
    }

    #[test]
    fn count_must_fit_in_what_remains() {
        let r = Reader::new(&[0; 12]);
        assert_eq!(r.count(3u32, 4), Ok(3));
        assert_eq!(r.count(4u32, 3), Ok(4));
        assert_eq!(r.count(4u32, 4), Err(CodecError::Truncated));
        assert_eq!(r.count(0u8, usize::MAX), Ok(0));
        // A zero record size still bounds the count by the bytes left.
        assert_eq!(r.count(12u16, 0), Ok(12));
        assert_eq!(r.count(13u16, 0), Err(CodecError::Truncated));
        // The multiply is checked, not wrapped.
        assert_eq!(r.count(u64::MAX, 16), Err(CodecError::Truncated));
        assert_eq!(r.count(1u64 << 62, 4), Err(CodecError::Truncated));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes));
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn errors_read_as_messages() {
        assert_eq!(String::from(CodecError::Truncated), "truncated input");
        assert!(CodecError::TrailingBytes.to_string().contains("trailing"));
    }
}
