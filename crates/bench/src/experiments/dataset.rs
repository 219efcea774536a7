//! Dataset-overview artifacts: Table 1 and Figures 1–2.

use crate::table::{count, f, pct, TextTable};
use crate::Ctx;
use darkvec_types::stats::{rank_cumulative, Ecdf};
use darkvec_types::{Trace, TraceStats};

/// Table 1 — single-day and complete dataset statistics.
pub fn table1(ctx: &Ctx) -> String {
    let trace = ctx.trace();
    let full = trace.stats();
    let last = trace.last_day().stats();

    let mut out = String::from("Table 1: dataset statistics (simulated capture)\n\n");
    let mut t = TextTable::new(vec!["source", "days", "sources", "packets", "ports"]);
    t.row(vec![
        "30 days".to_string(),
        full.days.to_string(),
        count(full.sources as u64),
        count(full.packets as u64),
        count(full.ports as u64),
    ]);
    t.row(vec![
        "last day".to_string(),
        "1".to_string(),
        count(last.sources as u64),
        count(last.packets as u64),
        count(last.ports as u64),
    ]);
    out.push_str(&t.render());

    out.push_str("\nTop-3 TCP ports:\n");
    let mut top = TextTable::new(vec!["source", "port", "traffic %", "sources"]);
    let mut add_rows = |label: &str, stats: &TraceStats| {
        for p in &stats.top_tcp {
            top.row(vec![
                label.to_string(),
                p.port.to_string(),
                f(p.traffic_pct, 2),
                count(p.sources as u64),
            ]);
        }
    };
    add_rows("30 days", &full);
    add_rows("last day", &last);
    out.push_str(&top.render());
    out
}

/// Figure 1 — (a) ECDF of packets per port with the top-14 inset,
/// (b) the sender-activity raster (emitted as a per-day summary plus a
/// full CSV artifact).
pub fn fig1(ctx: &Ctx) -> String {
    let trace = ctx.trace();
    let ports = trace.port_counter();

    let mut out = String::from("Figure 1a: port ranking (packets per port)\n\n");
    let ranked = rank_cumulative(&ports);
    // ECDF of per-port packet counts at log-spaced ranks.
    let mut t = TextTable::new(vec!["port rank", "port", "packets", "cum. traffic"]);
    let n = ranked.len();
    let mut marks: Vec<usize> = vec![0, 1, 2, 4, 9, 13];
    let mut m = 20;
    while m < n {
        marks.push(m);
        m *= 3;
    }
    if n > 0 {
        marks.push(n - 1);
    }
    marks.dedup();
    for &r in marks.iter().filter(|&&r| r < n) {
        let (key, pkts, cum) = &ranked[r];
        t.row(vec![
            (r + 1).to_string(),
            key.to_string(),
            count(*pkts),
            pct(*cum),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nTop-14 ports (Figure 1a inset):\n");
    let mut inset = TextTable::new(vec!["rank", "port", "traffic share"]);
    for (i, (key, pkts, _)) in ranked.iter().take(14).enumerate() {
        inset.row(vec![
            (i + 1).to_string(),
            key.to_string(),
            pct(*pkts as f64 / trace.len().max(1) as f64),
        ]);
    }
    out.push_str(&inset.render());

    // Figure 1b: raster summary + artifact.
    out.push_str(&format!(
        "\nFigure 1b: sender activity over time — {} senders; full raster in fig1b_raster.csv\n",
        trace.senders().len()
    ));
    let mut summary = TextTable::new(vec!["day", "packets", "active senders", "new senders"]);
    let mut seen = std::collections::HashSet::new();
    for day in 0..trace.days() {
        let slice = trace.day_slice(day);
        let day_senders: std::collections::HashSet<_> = slice.iter().map(|p| p.src).collect();
        let new = day_senders.iter().filter(|ip| !seen.contains(*ip)).count();
        seen.extend(day_senders.iter().copied());
        summary.row(vec![
            day.to_string(),
            count(slice.len() as u64),
            count(day_senders.len() as u64),
            count(new as u64),
        ]);
    }
    out.push_str(&summary.render());
    ctx.write_artifact("fig1b_raster.csv", &raster_csv(trace));
    out
}

/// Figure 2 — (a) ECDF of packets per sender + the 10-packet filter,
/// (b) cumulative distinct senders over time, unfiltered vs filtered.
pub fn fig2(ctx: &Ctx) -> String {
    let trace = ctx.trace();
    let per_sender = trace.packets_per_sender();
    let ecdf = Ecdf::from_counts(&per_sender.values());

    let mut out = String::from("Figure 2a: ECDF of monthly packets per sender\n\n");
    let mut t = TextTable::new(vec!["packets <=", "fraction of senders"]);
    for x in [1.0, 2.0, 5.0, 9.0, 10.0, 50.0, 100.0, 1_000.0, 10_000.0] {
        t.row(vec![format!("{x:.0}"), f(ecdf.eval(x), 3)]);
    }
    out.push_str(&t.render());

    let singles = per_sender.iter().filter(|&(_, c)| c == 1).count();
    let active = trace.active_senders(10);
    let active_trace = trace.filter_active(10);
    out.push_str(&format!(
        "\nseen exactly once: {} ({}); active (>=10 pkts): {} ({}) carrying {} of traffic\n",
        count(singles as u64),
        pct(singles as f64 / per_sender.distinct().max(1) as f64),
        count(active.len() as u64),
        pct(active.len() as f64 / per_sender.distinct().max(1) as f64),
        pct(active_trace.len() as f64 / trace.len().max(1) as f64),
    ));

    out.push_str("\nFigure 2b: cumulative distinct senders per day\n\n");
    let mut t = TextTable::new(vec!["day", "unfiltered", "filtered (active)"]);
    let unfiltered = trace.cumulative_senders_per_day();
    let filtered = active_trace.cumulative_senders_per_day();
    for (day, cum) in unfiltered.iter().enumerate() {
        t.row(vec![
            day.to_string(),
            count(*cum as u64),
            count(filtered.get(day).copied().unwrap_or(0) as u64),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// The Figure 1b raster as CSV: sender index (by first appearance), day,
/// packets that day.
fn raster_csv(trace: &Trace) -> String {
    use std::collections::HashMap;
    let mut first_seen: HashMap<darkvec_types::Ipv4, usize> = HashMap::new();
    let mut order = 0usize;
    let mut cells: HashMap<(usize, u64), u64> = HashMap::new();
    for p in trace.packets() {
        let idx = *first_seen.entry(p.src).or_insert_with(|| {
            let i = order;
            order += 1;
            i
        });
        *cells.entry((idx, p.ts.day())).or_insert(0) += 1;
    }
    let mut rows: Vec<((usize, u64), u64)> = cells.into_iter().collect();
    rows.sort();
    let mut out = String::from("sender_index,day,packets\n");
    for ((idx, day), pkts) in rows {
        out.push_str(&format!("{idx},{day},{pkts}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reports_both_spans() {
        let ctx = Ctx::for_tests(41, "table1_reports_both_spans");
        let out = table1(&ctx);
        assert!(out.contains("30 days"));
        assert!(out.contains("last day"));
        assert!(out.contains("Top-3 TCP ports"));
        // Telnet must rank among top TCP ports at any scale.
        assert!(out.contains("23"), "{out}");
    }

    #[test]
    fn fig2_reports_filter_effect() {
        let ctx = Ctx::for_tests(42, "fig2_reports_filter_effect");
        let out = fig2(&ctx);
        assert!(out.contains("active (>=10 pkts)"));
        assert!(out.contains("Figure 2b"));
    }

    #[test]
    fn raster_csv_covers_all_senders() {
        let ctx = Ctx::for_tests(43, "raster_csv_covers_all_senders");
        let csv = raster_csv(ctx.trace());
        let senders: std::collections::HashSet<&str> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap())
            .collect();
        assert_eq!(senders.len(), ctx.trace().senders().len());
    }
}
