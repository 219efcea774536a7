//! Table 7 — the domain-knowledge service map.

use crate::table::TextTable;
use crate::Ctx;
use darkvec::services::ServiceMap;
use darkvec_types::{PortKey, Protocol};

/// Renders Table 7: every service with the ports assigned to it, plus how
/// much of the simulated traffic each service receives.
pub fn table7(ctx: &Ctx) -> String {
    let m = ServiceMap::domain_knowledge();
    let trace = ctx.trace();
    // Traffic share per service at this context's scale.
    let mut pkts = vec![0u64; m.len()];
    for p in trace.packets() {
        pkts[m.service_of(p.port_key())] += 1;
    }
    let total = trace.len().max(1) as f64;

    // Reconstruct the explicit port list per service by probing the whole
    // port space (fast: 2×65536 lookups against the exact map only).
    let mut ports: Vec<Vec<PortKey>> = vec![Vec::new(); m.len()];
    for port in 0..=u16::MAX {
        for proto in [Protocol::Tcp, Protocol::Udp] {
            let key = PortKey { port, proto };
            let sid = m.service_of(key);
            // Only list explicitly mapped ports; the three IANA ranges and
            // ICMP are described textually.
            if !m.names()[sid].starts_with("Unknown") && m.names()[sid] != "ICMP" {
                ports[sid].push(key);
            }
        }
    }

    let mut out = String::from("Table 7: domain-knowledge service definition\n\n");
    let mut t = TextTable::new(vec!["service", "ports", "traffic share"]);
    for (sid, name) in m.names().iter().enumerate() {
        let plist = if name.starts_with("Unknown") {
            match name.as_str() {
                "Unknown System" => "unmapped ports 0-1023".to_string(),
                "Unknown User" => "unmapped ports 1024-49151".to_string(),
                _ => "unmapped ports 49152-65535".to_string(),
            }
        } else if name == "ICMP" {
            "all ICMP".to_string()
        } else {
            let mut s: Vec<String> = ports[sid].iter().map(|k| k.to_string()).collect();
            if s.len() > 12 {
                let extra = s.len() - 12;
                s.truncate(12);
                s.push(format!("... +{extra} more"));
            }
            s.join(", ")
        };
        t.row(vec![
            name.clone(),
            plist,
            format!("{:.2}%", 100.0 * pkts[sid] as f64 / total),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_lists_all_services() {
        let ctx = Ctx::for_tests(96, "table7_lists_all_services");
        let out = table7(&ctx);
        for name in [
            "Telnet",
            "SSH",
            "DNS",
            "Netbios-SMB",
            "P2P",
            "Unknown Ephemeral",
            "ICMP",
        ] {
            assert!(out.contains(name), "missing {name}");
        }
        assert!(out.contains("23/tcp"));
    }
}
