//! Ground-truth class artifacts: Table 2 and Figure 3.

use crate::table::{count, pct, TextTable};
use crate::Ctx;
use darkvec::services::ServiceMap;
use darkvec_gen::GtClass;
use darkvec_types::stats::Counter;
use darkvec_types::{Ipv4, PortKey};
use std::collections::HashMap;

/// Table 2 — ground-truth classes present on the last day: senders,
/// packets, distinct ports, top-5 ports with traffic share.
pub fn table2(ctx: &Ctx) -> String {
    let last = ctx.trace().last_day();
    let labels = ctx.last_day_labels();

    let mut per_class: HashMap<GtClass, Counter<PortKey>> = HashMap::new();
    let mut senders: HashMap<GtClass, std::collections::HashSet<Ipv4>> = HashMap::new();
    for p in last.packets() {
        if let Some(&class) = labels.get(&p.src) {
            per_class
                .entry(class)
                .or_insert_with(Counter::new)
                .add(p.port_key());
            senders.entry(class).or_default().insert(p.src);
        }
    }

    let mut out = String::from("Table 2: ground-truth classes, last day (active senders)\n\n");
    let mut t = TextTable::new(vec![
        "class",
        "senders",
        "packets",
        "ports",
        "top-5 ports (% traffic)",
    ]);
    let mut totals = (0u64, 0u64);
    for class in GtClass::ALL {
        let Some(ports) = per_class.get(&class) else {
            continue;
        };
        let n_senders = senders[&class].len();
        let top = ports
            .top(5)
            .into_iter()
            .map(|(k, c)| format!("{k} ({:.1}%)", 100.0 * c as f64 / ports.total() as f64))
            .collect::<Vec<_>>()
            .join(", ");
        t.row(vec![
            class.name().to_string(),
            count(n_senders as u64),
            count(ports.total()),
            count(ports.distinct() as u64),
            top,
        ]);
        totals.0 += n_senders as u64;
        totals.1 += ports.total();
    }
    t.row(vec![
        "Total".to_string(),
        count(totals.0),
        count(totals.1),
        count(last.port_counter().distinct() as u64),
        String::new(),
    ]);
    out.push_str(&t.render());
    out
}

/// Figure 3 — fraction of daily packets sent to generic services,
/// normalised per class (columns in the paper's heatmap).
pub fn fig3(ctx: &Ctx) -> String {
    let last = ctx.trace().last_day();
    let labels = ctx.last_day_labels();
    let services = ServiceMap::domain_knowledge();

    // counts[class][service]
    let mut counts: HashMap<GtClass, Vec<u64>> = HashMap::new();
    for p in last.packets() {
        if let Some(&class) = labels.get(&p.src) {
            let row = counts
                .entry(class)
                .or_insert_with(|| vec![0; services.len()]);
            row[services.service_of(p.port_key())] += 1;
        }
    }

    let mut out = String::from(
        "Figure 3: fraction of daily packets per (service x class), normalised per class\n\n",
    );
    let mut header = vec!["service".to_string()];
    let classes: Vec<GtClass> = GtClass::ALL
        .iter()
        .copied()
        .filter(|c| counts.contains_key(c))
        .collect();
    header.extend(classes.iter().map(|c| c.name().to_string()));
    let mut t = TextTable::new(header);
    for (sid, sname) in services.names().iter().enumerate() {
        let mut row = vec![sname.clone()];
        for class in &classes {
            let col = &counts[class];
            let total: u64 = col.iter().sum();
            let frac = if total == 0 {
                0.0
            } else {
                col[sid] as f64 / total as f64
            };
            row.push(if frac == 0.0 {
                "-".to_string()
            } else {
                pct(frac)
            });
        }
        t.row(row);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nReading: Engin-umich concentrates on DNS; most other classes scatter across services\n(the paper's argument for needing more than port-based features).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_all_gt_classes() {
        let ctx = Ctx::for_tests(51, "table2_lists_all_gt_classes");
        let out = table2(&ctx);
        for class in [
            GtClass::MiraiLike,
            GtClass::Censys,
            GtClass::EnginUmich,
            GtClass::Unknown,
        ] {
            assert!(out.contains(class.name()), "missing {class} in:\n{out}");
        }
        assert!(out.contains("Total"));
    }

    #[test]
    fn fig3_engin_is_pure_dns() {
        let ctx = Ctx::for_tests(52, "fig3_engin_is_pure_dns");
        let out = fig3(&ctx);
        // Find the DNS row and the Engin-umich column: must be 100%.
        let header_line = out.lines().find(|l| l.starts_with("service")).unwrap();
        let engin_col = header_line.find("Engin-umich").expect("engin column");
        let dns_line = out.lines().find(|l| l.starts_with("DNS")).unwrap();
        let cell: String = dns_line
            .chars()
            .skip(engin_col)
            .take(9)
            .collect::<String>()
            .trim()
            .to_string();
        assert_eq!(cell, "100.0%", "fig3 output:\n{out}");
    }
}
