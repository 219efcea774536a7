//! A single darknet observation.
//!
//! Darknets host no services, so every received packet is unsolicited and
//! fully described — for DarkVec's purposes — by *when* it arrived, *who*
//! sent it and *which service* it targeted (§1). We additionally carry the
//! application-layer fingerprint bit the paper uses for ground-truth
//! labelling: Mirai-like senders are recognised because the Mirai scanner
//! sets the TCP sequence number equal to the destination address (§3.2).

use crate::ip::Ipv4;
use crate::port::{PortKey, Protocol};
use crate::time::Timestamp;

/// Application-layer fingerprint carried by a packet, when recognisable.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Fingerprint {
    /// No recognised fingerprint.
    #[default]
    None,
    /// Mirai-style probe (TCP sequence number == destination IP).
    Mirai,
}

/// One packet received by the darknet.
///
/// The struct is `Copy` and 16 bytes, so traces of tens of millions of
/// packets stay cheap to generate, sort and scan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Arrival time.
    pub ts: Timestamp,
    /// Source (sender) address — the "word" of DarkVec's language.
    pub src: Ipv4,
    /// Destination port (0 for ICMP).
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Protocol,
    /// Recognised application fingerprint, if any.
    pub fingerprint: Fingerprint,
}

impl Packet {
    /// Builds a packet with no fingerprint.
    pub const fn new(ts: Timestamp, src: Ipv4, dst_port: u16, proto: Protocol) -> Self {
        Packet {
            ts,
            src,
            dst_port,
            proto,
            fingerprint: Fingerprint::None,
        }
    }

    /// Builds a TCP packet carrying the Mirai fingerprint.
    pub const fn mirai(ts: Timestamp, src: Ipv4, dst_port: u16) -> Self {
        Packet {
            ts,
            src,
            dst_port,
            proto: Protocol::Tcp,
            fingerprint: Fingerprint::Mirai,
        }
    }

    /// The (port, protocol) service key this packet targets.
    pub const fn port_key(&self) -> PortKey {
        PortKey {
            port: self.dst_port,
            proto: self.proto,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_is_compact() {
        // Trace memory footprint matters at 10^7-packet scale; keep the
        // record within a couple of words.
        assert!(std::mem::size_of::<Packet>() <= 24);
    }

    #[test]
    fn port_key_of_icmp_is_canonical() {
        let p = Packet::new(Timestamp(0), Ipv4::new(1, 2, 3, 4), 0, Protocol::Icmp);
        assert_eq!(p.port_key(), PortKey::icmp());
    }

    #[test]
    fn mirai_constructor_sets_fingerprint_and_tcp() {
        let p = Packet::mirai(Timestamp(9), Ipv4::new(5, 6, 7, 8), 23);
        assert_eq!(p.fingerprint, Fingerprint::Mirai);
        assert_eq!(p.proto, Protocol::Tcp);
        assert_eq!(p.port_key(), PortKey::tcp(23));
    }
}
