//! Parameter-sensitivity artifacts: Figures 6, 7 and 8.

use crate::table::{dur, f, pct, TextTable};
use crate::Ctx;
use darkvec::config::ServiceDef;
use darkvec::supervised::Evaluation;
use darkvec_gen::GtClass;

/// Figure 6 — embedding coverage (and accuracy) vs training-window length.
pub fn fig6(ctx: &Ctx) -> String {
    let full_days = ctx.trace().days();
    let windows: Vec<u64> = [1u64, 5, 10, 20, 30]
        .iter()
        .copied()
        .filter(|&d| d <= full_days)
        .collect();
    let eval_labels = ctx.last_day_ml_labels();

    let mut out = String::from("Figure 6: impact of training window length\n\n");
    let mut csv = String::from("training_days,embedded,coverage,accuracy\n");
    let mut t = TextTable::new(vec![
        "training days",
        "embedded senders",
        "coverage",
        "accuracy (k=7)",
    ]);
    for days in windows {
        let trace = ctx.trace().first_days(days);
        let model = darkvec::pipeline::run(&trace, &ctx.default_config());
        let coverage = Evaluation::coverage(&model.embedding, &eval_labels);
        let acc = if model.embedding.is_empty() {
            0.0
        } else {
            Evaluation::prepare(
                &model.embedding,
                &eval_labels,
                10,
                GtClass::Unknown.label(),
                7,
                0,
            )
            .accuracy(7)
        };
        csv.push_str(&format!(
            "{days},{},{coverage:.4},{acc:.4}\n",
            model.embedding.len()
        ));
        t.row(vec![
            days.to_string(),
            model.embedding.len().to_string(),
            pct(coverage),
            f(acc, 3),
        ]);
    }
    ctx.write_artifact("fig6_series.csv", &csv);
    out.push_str(&t.render());
    out.push_str("\nCoverage grows with the window (senders need >=10 packets to be embedded);\naccuracy saturates quickly — the paper's argument for training on the full month.\n");
    out
}

/// Figure 7 — k-NN accuracy vs k for the three service definitions.
pub fn fig7(ctx: &Ctx) -> String {
    let ks = [1usize, 3, 7, 17, 25, 35];
    let eval_labels = ctx.last_day_ml_labels();
    let defs: [(&str, ServiceDef); 3] = [
        ("single service", ServiceDef::Single),
        ("auto-defined", ServiceDef::Auto(10)),
        ("domain knowledge", ServiceDef::DomainKnowledge),
    ];

    let mut out = String::from("Figure 7: impact of k on the k-NN classifier\n\n");
    let mut header = vec!["k".to_string()];
    header.extend(defs.iter().map(|(n, _)| n.to_string()));
    let mut t = TextTable::new(header);

    let mut evals = Vec::new();
    for (_, def) in &defs {
        let mut cfg = ctx.default_config();
        cfg.service = def.clone();
        let model = darkvec::pipeline::run(ctx.trace(), &cfg);
        evals.push(Evaluation::prepare(
            &model.embedding,
            &eval_labels,
            10,
            GtClass::Unknown.label(),
            *ks.last().expect("non-empty"),
            0,
        ));
    }
    let mut csv = String::from("k,single,auto,domain\n");
    for &k in &ks {
        let mut row = vec![k.to_string()];
        let mut csv_row = vec![k.to_string()];
        for ev in &evals {
            let acc = ev.accuracy(k);
            row.push(f(acc, 3));
            csv_row.push(format!("{acc:.4}"));
        }
        t.row(row);
        csv.push_str(&csv_row.join(","));
        csv.push('\n');
    }
    ctx.write_artifact("fig7_series.csv", &csv);
    out.push_str(&t.render());
    out.push_str(
        "\nThe single-service model trails the other two across all k (paper: same ordering).\n",
    );
    out
}

/// Figure 8 — grid search over context window c and dimension V:
/// accuracy (top) and training time (bottom), for auto-defined and
/// domain-knowledge services.
pub fn fig8(ctx: &Ctx) -> String {
    let cs = [5usize, 25, 50, 75];
    let vs = [50usize, 100, 150, 200];
    let eval_labels = ctx.last_day_ml_labels();

    let mut out = String::from("Figure 8: grid search on c and V (k=7)\n");
    for (name, def) in [
        ("auto-defined", ServiceDef::Auto(10)),
        ("domain knowledge", ServiceDef::DomainKnowledge),
    ] {
        out.push_str(&format!("\n--- {name} services ---\n"));
        let mut acc_t = TextTable::new(vec!["V \\ c", "c=5", "c=25", "c=50", "c=75"]);
        let mut time_t = TextTable::new(vec!["V \\ c", "c=5", "c=25", "c=50", "c=75"]);
        for &v in vs.iter().rev() {
            let mut acc_row = vec![format!("V={v}")];
            let mut time_row = vec![format!("V={v}")];
            for &c in &cs {
                let cfg = ctx.config_with(def.clone(), c, v);
                let model = darkvec::pipeline::run(ctx.trace(), &cfg);
                let acc = if model.embedding.is_empty() {
                    0.0
                } else {
                    Evaluation::prepare(
                        &model.embedding,
                        &eval_labels,
                        10,
                        GtClass::Unknown.label(),
                        7,
                        0,
                    )
                    .accuracy(7)
                };
                acc_row.push(f(acc, 2));
                time_row.push(dur(model.train.elapsed));
            }
            acc_t.row(acc_row);
            time_t.row(time_row);
        }
        out.push_str("accuracy:\n");
        out.push_str(&acc_t.render());
        out.push_str("training time:\n");
        out.push_str(&time_t.render());
    }
    out.push_str("\nAccuracy is flat across the grid; time grows with c and V — the paper picks c=25, V=50.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_coverage_grows_with_window() {
        let ctx = Ctx::for_tests(71, "fig6_coverage_grows_with_window");
        let out = fig6(&ctx);
        assert!(out.contains("training days"));
        // Extract coverage column values and check monotonic growth.
        let coverages: Vec<f64> = out
            .lines()
            .filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
            .filter_map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols.get(2)?.trim_end_matches('%').parse().ok()
            })
            .collect();
        assert!(coverages.len() >= 2, "output: {out}");
        assert!(
            coverages.last().unwrap() >= coverages.first().unwrap(),
            "coverage must grow: {coverages:?}"
        );
    }
}
