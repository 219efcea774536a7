//! Service definitions (§5.2): the mapping from a packet's (port,
//! protocol) to the sequence it joins.
//!
//! The paper evaluates three alternatives (Figure 7 / Table 4):
//!
//! * **single service** — all ports in one stream; works for Mirai, fails
//!   for minority classes;
//! * **auto-defined** — one service per top-n popular port, plus a
//!   catch-all (n = 10 in the paper);
//! * **domain knowledge** — the hand-curated 15-service map of Table 7
//!   (plus ICMP, which Figure 3 treats as its own service), with the three
//!   IANA ranges as catch-alls.

use darkvec_types::codec::Reader;
use darkvec_types::stats::Counter;
use darkvec_types::{PortKey, Protocol};
use std::collections::HashMap;

/// Dense service identifier (index into [`ServiceMap::names`]).
pub type ServiceId = usize;

/// A total mapping `PortKey -> ServiceId`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceMap {
    names: Vec<String>,
    exact: HashMap<PortKey, ServiceId>,
    fallback: Fallback,
}

/// Where unmapped ports go.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Fallback {
    /// Everything unmapped lands in one service.
    Single(ServiceId),
    /// Unmapped ports split by IANA range (Table 7's three "Unknown"
    /// rows); ICMP gets its own bucket.
    Iana {
        system: ServiceId,
        user: ServiceId,
        ephemeral: ServiceId,
        icmp: ServiceId,
    },
}

impl ServiceMap {
    /// The single-service definition: one stream for the whole darknet.
    pub fn single() -> Self {
        ServiceMap {
            names: vec!["All".to_string()],
            exact: HashMap::new(),
            fallback: Fallback::Single(0),
        }
    }

    /// The auto-defined services: one per top-`n` (port, protocol) key of
    /// the given traffic, plus a catch-all for the rest.
    pub fn auto(ports: &Counter<PortKey>, n: usize) -> Self {
        let top = ports.top(n);
        let mut names = Vec::with_capacity(top.len() + 1);
        let mut exact = HashMap::with_capacity(top.len());
        for (i, (key, _)) in top.into_iter().enumerate() {
            names.push(key.to_string());
            exact.insert(key, i);
        }
        let other = names.len();
        names.push("Other".to_string());
        ServiceMap {
            names,
            exact,
            fallback: Fallback::Single(other),
        }
    }

    /// The domain-knowledge map of Table 7 (15 services + ICMP).
    pub fn domain_knowledge() -> Self {
        let mut names: Vec<String> = Vec::new();
        let mut exact: HashMap<PortKey, ServiceId> = HashMap::new();
        let mut add = |name: &str, keys: &[PortKey]| {
            let id = names.len();
            names.push(name.to_string());
            for &k in keys {
                let prev = exact.insert(k, id);
                assert!(prev.is_none(), "port {k} mapped twice");
            }
            id
        };

        let t = PortKey::tcp;
        let u = PortKey::udp;
        add("Telnet", &[t(23), t(992)]);
        add("SSH", &[t(22)]);
        add(
            "Kerberos",
            &[
                t(88),
                u(88),
                t(543),
                t(544),
                t(749),
                t(7004),
                u(750),
                t(750),
                t(751),
                u(752),
                t(754),
                u(464),
                t(464),
            ],
        );
        add("HTTP", &[t(80), t(443), t(8080)]);
        add("Proxy", &[t(1080), t(6446), t(2121), t(8081), t(57000)]);
        add(
            "Mail",
            &[
                t(25),
                t(143),
                t(174),
                t(209),
                t(465),
                t(587),
                t(110),
                t(995),
                t(993),
            ],
        );
        add(
            "Database",
            &[
                t(210),
                t(5432),
                t(775),
                t(1433),
                u(1433),
                t(1434),
                u(1434),
                t(3306),
                t(27017),
                t(27018),
                t(27019),
                t(3050),
                t(3351),
                t(1583),
            ],
        );
        add("DNS", &[t(853), u(853), u(5353), t(53), u(53)]);
        add("Netbios", &[t(137), u(137), t(138), u(138), t(139), u(139)]);
        add("Netbios-SMB", &[t(445)]);
        add(
            "P2P",
            &[
                t(119),
                t(375),
                t(425),
                t(1214),
                t(412),
                t(1412),
                t(2412),
                t(4662),
                u(12155),
                u(6771),
                u(6881),
                u(6882),
                u(6883),
                u(6884),
                u(6885),
                u(6886),
                u(6887),
                t(6881),
                t(6882),
                t(6883),
                t(6884),
                t(6885),
                t(6886),
                t(6887),
                t(6969),
                t(7000),
                t(9000),
                t(9091),
                t(6346),
                u(6346),
                t(6347),
                u(6347),
            ],
        );
        add(
            "FTP",
            &[
                t(20),
                t(21),
                u(69),
                t(989),
                t(990),
                u(2431),
                u(2433),
                t(2811),
                t(8021),
            ],
        );

        let system = names.len();
        names.push("Unknown System".to_string());
        let user = names.len();
        names.push("Unknown User".to_string());
        let ephemeral = names.len();
        names.push("Unknown Ephemeral".to_string());
        let icmp = names.len();
        names.push("ICMP".to_string());

        ServiceMap {
            names,
            exact,
            fallback: Fallback::Iana {
                system,
                user,
                ephemeral,
                icmp,
            },
        }
    }

    /// Number of services.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the map defines no services (never after construction).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Service display names, indexed by [`ServiceId`].
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The service a packet to `key` belongs to.
    pub fn service_of(&self, key: PortKey) -> ServiceId {
        if let Some(&id) = self.exact.get(&key) {
            return id;
        }
        match self.fallback {
            Fallback::Single(id) => id,
            Fallback::Iana {
                system,
                user,
                ephemeral,
                icmp,
            } => {
                if key.proto == Protocol::Icmp {
                    icmp
                } else if key.port <= 1023 {
                    system
                } else if key.port <= 49151 {
                    user
                } else {
                    ephemeral
                }
            }
        }
    }

    /// The id of a named service, if present.
    pub fn id_of(&self, name: &str) -> Option<ServiceId> {
        self.names.iter().position(|n| n == name)
    }

    /// Serialises the map into a canonical byte form: exact entries are
    /// sorted by `(port, protocol)`, so equal maps always produce equal
    /// bytes — which is what the artifact cache keys hash.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&(self.names.len() as u32).to_le_bytes());
        for name in &self.names {
            buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
        }
        let mut entries: Vec<(&PortKey, &ServiceId)> = self.exact.iter().collect();
        entries.sort_by_key(|(k, _)| (k.port, k.proto.tag()));
        buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (k, &id) in entries {
            buf.extend_from_slice(&k.port.to_le_bytes());
            buf.push(k.proto.tag());
            buf.extend_from_slice(&(id as u32).to_le_bytes());
        }
        match self.fallback {
            Fallback::Single(id) => {
                buf.push(0);
                buf.extend_from_slice(&(id as u32).to_le_bytes());
            }
            Fallback::Iana {
                system,
                user,
                ephemeral,
                icmp,
            } => {
                buf.push(1);
                for id in [system, user, ephemeral, icmp] {
                    buf.extend_from_slice(&(id as u32).to_le_bytes());
                }
            }
        }
        buf
    }

    /// Inverse of [`ServiceMap::to_bytes`]; fails cleanly on truncated or
    /// corrupt input.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(buf);
        // Each name is at least its u16 length.
        let n_names = r.u32()?;
        let mut names = Vec::with_capacity(r.count(n_names, 2)?);
        for _ in 0..n_names {
            let len = r.u16()?;
            let raw = r.bytes(len.into())?;
            let name = std::str::from_utf8(raw).map_err(|e| format!("bad service name: {e}"))?;
            names.push(name.to_string());
        }
        let id = |r: &mut Reader| -> Result<ServiceId, String> {
            let id = r.u32()? as ServiceId;
            if id < names.len() {
                Ok(id)
            } else {
                Err(format!("service id {id} out of range"))
            }
        };
        // Each exact entry is a u16 port, a u8 protocol tag and a u32 id.
        let n_exact = r.u32()?;
        let mut exact = HashMap::with_capacity(r.count(n_exact, 7)?);
        for _ in 0..n_exact {
            let port = r.u16()?;
            let proto = Protocol::from_tag(r.u8()?)
                .ok_or_else(|| "bad protocol tag in service map".to_string())?;
            exact.insert(PortKey { port, proto }, id(&mut r)?);
        }
        let fallback = match r.u8()? {
            0 => Fallback::Single(id(&mut r)?),
            1 => Fallback::Iana {
                system: id(&mut r)?,
                user: id(&mut r)?,
                ephemeral: id(&mut r)?,
                icmp: id(&mut r)?,
            },
            t => return Err(format!("bad fallback tag {t} in service map")),
        };
        r.finish()?;
        Ok(ServiceMap {
            names,
            exact,
            fallback,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_maps_everything_to_one() {
        let m = ServiceMap::single();
        assert_eq!(m.len(), 1);
        assert_eq!(m.service_of(PortKey::tcp(23)), 0);
        assert_eq!(m.service_of(PortKey::udp(53)), 0);
        assert_eq!(m.service_of(PortKey::icmp()), 0);
    }

    #[test]
    fn auto_top_ports_get_own_service() {
        let mut c: Counter<PortKey> = Counter::new();
        c.add_n(PortKey::tcp(23), 100);
        c.add_n(PortKey::tcp(445), 50);
        c.add_n(PortKey::udp(53), 10);
        c.add_n(PortKey::tcp(80), 5);
        let m = ServiceMap::auto(&c, 2);
        assert_eq!(m.len(), 3); // 2 tops + Other
        assert_eq!(m.service_of(PortKey::tcp(23)), 0);
        assert_eq!(m.service_of(PortKey::tcp(445)), 1);
        let other = m.id_of("Other").unwrap();
        assert_eq!(m.service_of(PortKey::udp(53)), other);
        assert_eq!(m.service_of(PortKey::tcp(80)), other);
        assert_eq!(m.names()[0], "23/tcp");
    }

    #[test]
    fn auto_handles_more_n_than_ports() {
        let mut c: Counter<PortKey> = Counter::new();
        c.add(PortKey::tcp(23));
        let m = ServiceMap::auto(&c, 10);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn domain_has_paper_service_count() {
        let m = ServiceMap::domain_knowledge();
        // Table 7's 15 services + the ICMP bucket.
        assert_eq!(m.len(), 16);
        for name in [
            "Telnet",
            "SSH",
            "Kerberos",
            "HTTP",
            "Proxy",
            "Mail",
            "Database",
            "DNS",
            "Netbios",
            "Netbios-SMB",
            "P2P",
            "FTP",
            "Unknown System",
            "Unknown User",
            "Unknown Ephemeral",
            "ICMP",
        ] {
            assert!(m.id_of(name).is_some(), "missing service {name}");
        }
    }

    #[test]
    fn domain_maps_table7_examples() {
        let m = ServiceMap::domain_knowledge();
        let sid = |name: &str| m.id_of(name).unwrap();
        assert_eq!(m.service_of(PortKey::tcp(23)), sid("Telnet"));
        assert_eq!(m.service_of(PortKey::tcp(992)), sid("Telnet"));
        assert_eq!(m.service_of(PortKey::tcp(22)), sid("SSH"));
        assert_eq!(m.service_of(PortKey::tcp(8080)), sid("HTTP"));
        assert_eq!(m.service_of(PortKey::udp(53)), sid("DNS"));
        assert_eq!(m.service_of(PortKey::tcp(445)), sid("Netbios-SMB"));
        assert_eq!(m.service_of(PortKey::udp(137)), sid("Netbios"));
        assert_eq!(m.service_of(PortKey::tcp(5432)), sid("Database"));
        assert_eq!(m.service_of(PortKey::udp(6881)), sid("P2P"));
        assert_eq!(m.service_of(PortKey::tcp(21)), sid("FTP"));
        assert_eq!(m.service_of(PortKey::icmp()), sid("ICMP"));
    }

    #[test]
    fn domain_fallback_splits_by_iana_range() {
        let m = ServiceMap::domain_knowledge();
        let sid = |name: &str| m.id_of(name).unwrap();
        assert_eq!(m.service_of(PortKey::tcp(7)), sid("Unknown System"));
        assert_eq!(m.service_of(PortKey::tcp(5555)), sid("Unknown User"));
        assert_eq!(m.service_of(PortKey::udp(60000)), sid("Unknown Ephemeral"));
    }

    #[test]
    fn domain_distinguishes_protocols() {
        let m = ServiceMap::domain_knowledge();
        // 1433/tcp and 1433/udp are both Database, but 5353/tcp is NOT DNS
        // (only 5353/udp is in Table 7).
        assert_eq!(
            m.service_of(PortKey::tcp(1433)),
            m.service_of(PortKey::udp(1433))
        );
        assert_ne!(m.service_of(PortKey::tcp(5353)), m.id_of("DNS").unwrap());
    }

    #[test]
    fn bytes_round_trip_all_variants() {
        let mut c: Counter<PortKey> = Counter::new();
        c.add_n(PortKey::tcp(23), 100);
        c.add_n(PortKey::udp(53), 10);
        for m in [
            ServiceMap::single(),
            ServiceMap::auto(&c, 2),
            ServiceMap::domain_knowledge(),
        ] {
            let bytes = m.to_bytes();
            let back = ServiceMap::from_bytes(&bytes[..]).unwrap();
            assert_eq!(m, back);
            // Canonical form: re-serialising gives identical bytes.
            assert_eq!(bytes, back.to_bytes());
        }
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let bytes = ServiceMap::domain_knowledge().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                ServiceMap::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn every_port_maps_somewhere() {
        let m = ServiceMap::domain_knowledge();
        for port in [0u16, 1, 1023, 1024, 49151, 49152, 65535] {
            assert!(m.service_of(PortKey::tcp(port)) < m.len());
            assert!(m.service_of(PortKey::udp(port)) < m.len());
        }
    }
}
