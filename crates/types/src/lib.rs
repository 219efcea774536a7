//! # darkvec-types
//!
//! Traffic substrate types shared by the whole DarkVec workspace.
//!
//! A darknet packet is described by the three dimensions the paper analyses
//! (§1): the **service** it targets (destination port + transport protocol),
//! the **space** it comes from (source IPv4 address) and the **time** it
//! arrives. This crate provides:
//!
//! * [`Ipv4`] / [`Subnet`] — compact IPv4 addresses and CIDR prefixes with
//!   the /24 and /16 groupings the paper uses for cluster inspection;
//! * [`Protocol`] / [`PortKey`] — transport protocols and (port, protocol)
//!   service keys;
//! * [`Packet`] / [`Trace`] — a single darknet observation and a
//!   time-ordered collection of them, with the filtering and windowing
//!   operations DarkVec needs (active-sender filter, ΔT windows, per-day
//!   slicing);
//! * [`stats`] — ECDFs, top-k counters and ranking helpers used by the
//!   dataset-overview figures;
//! * [`io`] — CSV and length-prefixed binary trace serialisation;
//! * [`codec`] — the length-checked [`codec::Reader`] every binary
//!   decoder in the workspace reads through;
//! * [`anonymize`] — prefix-preserving (Crypto-PAn style) source-address
//!   anonymisation for dataset release, as the paper does for its
//!   published traces.

pub mod anonymize;
pub mod codec;
pub mod error;
pub mod io;
pub mod ip;
pub mod packet;
pub mod port;
pub mod stats;
pub mod time;
pub mod trace;

pub use anonymize::Anonymizer;
pub use error::{Error, Result};
pub use ip::{Ipv4, Subnet};
pub use packet::{Fingerprint, Packet};
pub use port::{PortKey, Protocol};
pub use time::{Timestamp, WindowIter, DAY, HOUR, MINUTE};
pub use trace::{Trace, TraceStats};
