//! Transport protocols and (port, protocol) service keys.
//!
//! The paper identifies the target *service* of a packet "coarsely
//! represented by the used transport protocol and destination port" (§1).
//! [`PortKey`] is that pair; it is the unit the service-definition maps of
//! `darkvec::services` (Table 7) are written in.

use crate::error::{Error, Result};
use std::fmt;
use std::str::FromStr;

/// Transport protocol of a darknet packet.
///
/// ICMP carries no port; by convention packets with [`Protocol::Icmp`] use
/// port 0 and the Ipip ground-truth class is the only heavy ICMP sender
/// (Table 2, GT7).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Protocol {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
    /// Internet Control Message Protocol (portless).
    Icmp,
}

impl Protocol {
    /// All protocol variants, for exhaustive iteration in tests and stats.
    pub const ALL: [Protocol; 3] = [Protocol::Tcp, Protocol::Udp, Protocol::Icmp];

    /// Short lowercase name, matching the paper's `23/tcp` notation.
    pub const fn name(self) -> &'static str {
        match self {
            Protocol::Tcp => "tcp",
            Protocol::Udp => "udp",
            Protocol::Icmp => "icmp",
        }
    }

    /// Compact numeric tag used by the binary trace format.
    pub const fn tag(self) -> u8 {
        match self {
            Protocol::Tcp => 0,
            Protocol::Udp => 1,
            Protocol::Icmp => 2,
        }
    }

    /// Inverse of [`Protocol::tag`].
    pub fn from_tag(tag: u8) -> Option<Protocol> {
        match tag {
            0 => Some(Protocol::Tcp),
            1 => Some(Protocol::Udp),
            2 => Some(Protocol::Icmp),
            _ => None,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Protocol {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "tcp" | "TCP" => Ok(Protocol::Tcp),
            "udp" | "UDP" => Ok(Protocol::Udp),
            "icmp" | "ICMP" => Ok(Protocol::Icmp),
            _ => Err(Error::Parse {
                what: "protocol",
                input: s.to_string(),
            }),
        }
    }
}

/// A (destination port, protocol) pair — the paper's notion of the raw
/// service a packet targets, e.g. `23/tcp` or `53/udp`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortKey {
    /// Destination port; 0 for ICMP.
    pub port: u16,
    /// Transport protocol.
    pub proto: Protocol,
}

impl PortKey {
    /// A TCP port key.
    pub const fn tcp(port: u16) -> Self {
        PortKey {
            port,
            proto: Protocol::Tcp,
        }
    }

    /// A UDP port key.
    pub const fn udp(port: u16) -> Self {
        PortKey {
            port,
            proto: Protocol::Udp,
        }
    }

    /// The ICMP pseudo-key (port 0).
    pub const fn icmp() -> Self {
        PortKey {
            port: 0,
            proto: Protocol::Icmp,
        }
    }
}

impl fmt::Display for PortKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.proto == Protocol::Icmp {
            write!(f, "icmp")
        } else {
            write!(f, "{}/{}", self.port, self.proto)
        }
    }
}

impl FromStr for PortKey {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        if s.eq_ignore_ascii_case("icmp") {
            return Ok(PortKey::icmp());
        }
        let err = || Error::Parse {
            what: "port key",
            input: s.to_string(),
        };
        let (port, proto) = s.split_once('/').ok_or_else(err)?;
        let port: u16 = port.parse().map_err(|_| err())?;
        let proto: Protocol = proto.parse()?;
        Ok(PortKey { port, proto })
    }
}

/// IANA port-range classification used by Table 7's three catch-all
/// services ("Unknown System" / "Unknown User" / "Unknown Ephemeral").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortRange {
    /// Well-known / system ports, `0..=1023`.
    System,
    /// Registered / user ports, `1024..=49151`.
    User,
    /// Dynamic / ephemeral ports, `49152..=65535`.
    Ephemeral,
}

impl PortRange {
    /// Classifies a port number into its IANA range.
    pub const fn of(port: u16) -> PortRange {
        if port <= 1023 {
            PortRange::System
        } else if port <= 49151 {
            PortRange::User
        } else {
            PortRange::Ephemeral
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_names_and_tags_round_trip() {
        for p in Protocol::ALL {
            assert_eq!(p.name().parse::<Protocol>().unwrap(), p);
            assert_eq!(Protocol::from_tag(p.tag()), Some(p));
        }
        assert_eq!(Protocol::from_tag(9), None);
    }

    #[test]
    fn port_key_display_matches_paper_notation() {
        assert_eq!(PortKey::tcp(23).to_string(), "23/tcp");
        assert_eq!(PortKey::udp(53).to_string(), "53/udp");
        assert_eq!(PortKey::icmp().to_string(), "icmp");
    }

    #[test]
    fn port_key_parse_round_trip() {
        for k in [
            PortKey::tcp(445),
            PortKey::udp(123),
            PortKey::icmp(),
            PortKey::tcp(0),
        ] {
            assert_eq!(k.to_string().parse::<PortKey>().unwrap(), k);
        }
    }

    #[test]
    fn port_key_parse_invalid() {
        for bad in ["", "23", "23/", "/tcp", "23/tls", "70000/tcp"] {
            assert!(bad.parse::<PortKey>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn port_key_parse_case_insensitive() {
        assert_eq!("23/TCP".parse::<PortKey>().unwrap(), PortKey::tcp(23));
        assert_eq!("ICMP".parse::<PortKey>().unwrap(), PortKey::icmp());
    }

    #[test]
    fn iana_ranges() {
        assert_eq!(PortRange::of(0), PortRange::System);
        assert_eq!(PortRange::of(1023), PortRange::System);
        assert_eq!(PortRange::of(1024), PortRange::User);
        assert_eq!(PortRange::of(49151), PortRange::User);
        assert_eq!(PortRange::of(49152), PortRange::Ephemeral);
        assert_eq!(PortRange::of(u16::MAX), PortRange::Ephemeral);
    }

    #[test]
    fn ordering_groups_by_port_then_proto() {
        let mut keys = vec![PortKey::udp(53), PortKey::tcp(53), PortKey::tcp(22)];
        keys.sort();
        assert_eq!(
            keys,
            vec![PortKey::tcp(22), PortKey::tcp(53), PortKey::udp(53)]
        );
    }
}
