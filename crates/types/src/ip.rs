//! IPv4 addresses and CIDR subnets.
//!
//! Senders are identified by their source IPv4 address (§5.2: "We consider
//! each source IP address associated to an incoming packet to be a word").
//! Cluster inspection (§7.3) repeatedly groups senders by /24 and /16
//! prefixes, so [`Ipv4`] is a thin wrapper over the numeric address that
//! makes prefix arithmetic cheap.

use crate::error::{Error, Result};
use std::fmt;
use std::str::FromStr;

/// An IPv4 address stored as its 32-bit big-endian numeric value.
///
/// Ordering and hashing follow the numeric value, so sorting a sender list
/// groups addresses of the same subnet together.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// Builds an address from its four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// The /24 subnet containing this address.
    pub const fn slash24(self) -> Subnet {
        Subnet {
            base: Ipv4(self.0 & 0xFFFF_FF00),
            prefix: 24,
        }
    }

    /// The /16 subnet containing this address.
    pub const fn slash16(self) -> Subnet {
        Subnet {
            base: Ipv4(self.0 & 0xFFFF_0000),
            prefix: 16,
        }
    }

    /// The subnet of the given prefix length containing this address.
    ///
    /// # Panics
    /// Panics if `prefix > 32`.
    pub fn subnet(self, prefix: u8) -> Subnet {
        assert!(prefix <= 32, "prefix {prefix} out of range");
        Subnet {
            base: Ipv4(self.0 & Subnet::mask(prefix)),
            prefix,
        }
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ipv4({self})")
    }
}

impl FromStr for Ipv4 {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        let err = || Error::Parse {
            what: "ipv4",
            input: s.to_string(),
        };
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts.next().ok_or_else(err)?;
            // Reject empty / oversized / non-digit parts explicitly; u8::parse
            // already rejects values > 255 and signs.
            if part.is_empty() || part.len() > 3 {
                return Err(err());
            }
            *slot = part.parse().map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(Ipv4::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

impl From<std::net::Ipv4Addr> for Ipv4 {
    fn from(a: std::net::Ipv4Addr) -> Self {
        Ipv4(u32::from(a))
    }
}

impl From<Ipv4> for std::net::Ipv4Addr {
    fn from(a: Ipv4) -> Self {
        std::net::Ipv4Addr::from(a.0)
    }
}

/// A CIDR subnet: a base address and a prefix length.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Subnet {
    /// Base address; host bits are always zero.
    pub base: Ipv4,
    /// Prefix length in bits, `0..=32`.
    pub prefix: u8,
}

impl Subnet {
    /// Builds a subnet, zeroing any host bits in `base`.
    ///
    /// # Panics
    /// Panics if `prefix > 32`.
    pub fn new(base: Ipv4, prefix: u8) -> Self {
        base.subnet(prefix)
    }

    /// The netmask for a prefix length.
    pub const fn mask(prefix: u8) -> u32 {
        if prefix == 0 {
            0
        } else {
            u32::MAX << (32 - prefix)
        }
    }

    /// Whether `addr` falls inside this subnet.
    pub const fn contains(&self, addr: Ipv4) -> bool {
        addr.0 & Self::mask(self.prefix) == self.base.0
    }

    /// Number of addresses in the subnet (2^(32-prefix)).
    pub const fn size(&self) -> u64 {
        1u64 << (32 - self.prefix)
    }

    /// The `i`-th host address of the subnet.
    ///
    /// # Panics
    /// Panics if `i` is outside the subnet.
    pub fn host(&self, i: u64) -> Ipv4 {
        assert!(i < self.size(), "host index {i} outside /{}", self.prefix);
        Ipv4(self.base.0 + i as u32)
    }

    /// Iterates over every address in the subnet, in numeric order.
    pub fn hosts(&self) -> impl Iterator<Item = Ipv4> + '_ {
        (0..self.size()).map(|i| self.host(i))
    }
}

impl fmt::Display for Subnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base, self.prefix)
    }
}

impl fmt::Debug for Subnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Subnet({self})")
    }
}

impl FromStr for Subnet {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        let err = || Error::Parse {
            what: "subnet",
            input: s.to_string(),
        };
        let (ip, prefix) = s.split_once('/').ok_or_else(err)?;
        let base: Ipv4 = ip.parse()?;
        let prefix: u8 = prefix.parse().map_err(|_| err())?;
        if prefix > 32 {
            return Err(err());
        }
        Ok(Subnet::new(base, prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octet_round_trip() {
        let ip = Ipv4::new(130, 192, 5, 7);
        assert_eq!(ip.octets(), [130, 192, 5, 7]);
        assert_eq!(ip.to_string(), "130.192.5.7");
    }

    #[test]
    fn parse_valid() {
        let ip: Ipv4 = "10.0.0.1".parse().unwrap();
        assert_eq!(ip, Ipv4::new(10, 0, 0, 1));
        assert_eq!("255.255.255.255".parse::<Ipv4>().unwrap(), Ipv4(u32::MAX));
        assert_eq!("0.0.0.0".parse::<Ipv4>().unwrap(), Ipv4(0));
    }

    #[test]
    fn parse_invalid() {
        for bad in [
            "",
            "1.2.3",
            "1.2.3.4.5",
            "256.1.1.1",
            "a.b.c.d",
            "1..2.3",
            "-1.2.3.4",
            "01234.1.1.1",
        ] {
            assert!(bad.parse::<Ipv4>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn slash24_groups_neighbours() {
        let a = Ipv4::new(66, 240, 205, 3);
        let b = Ipv4::new(66, 240, 205, 250);
        let c = Ipv4::new(66, 240, 206, 3);
        assert_eq!(a.slash24(), b.slash24());
        assert_ne!(a.slash24(), c.slash24());
        assert_eq!(a.slash24().to_string(), "66.240.205.0/24");
    }

    #[test]
    fn slash16_groups_wider() {
        let a = Ipv4::new(184, 105, 1, 1);
        let b = Ipv4::new(184, 105, 200, 9);
        assert_eq!(a.slash16(), b.slash16());
        assert_eq!(a.slash16().prefix, 16);
    }

    #[test]
    fn subnet_contains_and_size() {
        let net: Subnet = "192.168.4.0/22".parse().unwrap();
        assert_eq!(net.size(), 1024);
        assert!(net.contains("192.168.7.255".parse().unwrap()));
        assert!(!net.contains("192.168.8.0".parse().unwrap()));
    }

    #[test]
    fn subnet_new_zeroes_host_bits() {
        let net = Subnet::new(Ipv4::new(10, 1, 2, 77), 24);
        assert_eq!(net.base, Ipv4::new(10, 1, 2, 0));
    }

    #[test]
    fn subnet_hosts_enumeration() {
        let net = Subnet::new(Ipv4::new(10, 0, 0, 0), 30);
        let hosts: Vec<_> = net.hosts().collect();
        assert_eq!(hosts.len(), 4);
        assert_eq!(hosts[0], Ipv4::new(10, 0, 0, 0));
        assert_eq!(hosts[3], Ipv4::new(10, 0, 0, 3));
    }

    #[test]
    fn subnet_parse_invalid() {
        for bad in ["10.0.0.0", "10.0.0.0/33", "10.0.0.0/", "/24", "10.0.0/24"] {
            assert!(bad.parse::<Subnet>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn mask_edge_cases() {
        assert_eq!(Subnet::mask(0), 0);
        assert_eq!(Subnet::mask(32), u32::MAX);
        assert_eq!(Subnet::mask(24), 0xFFFF_FF00);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn host_out_of_range_panics() {
        Subnet::new(Ipv4::new(10, 0, 0, 0), 24).host(256);
    }

    #[test]
    fn std_conversion_round_trip() {
        let ip = Ipv4::new(8, 8, 4, 4);
        let std: std::net::Ipv4Addr = ip.into();
        assert_eq!(Ipv4::from(std), ip);
    }
}
