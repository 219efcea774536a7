//! Table 6 — the §4 port-feature baseline's per-class report.

use crate::table::{f, TextTable};
use crate::Ctx;
use darkvec_baselines::port_features::{baseline_report, PortFeatureConfig};
use darkvec_gen::GtClass;
use darkvec_ml::metrics::ClassReport;

/// Runs the baseline on the last-day labelled senders (k = 7, top-5 ports
/// per class) and renders the Table 6 report.
pub fn table6(ctx: &Ctx) -> String {
    let report = baseline_class_report(ctx, 7);
    let mut out =
        String::from("Table 6: baseline 7-NN classifier on top-port traffic fractions\n\n");
    out.push_str(&render_report(&report));
    out.push_str(&format!(
        "\naccuracy over GT classes: {}\n",
        f(report.accuracy, 4)
    ));
    out
}

/// The baseline report at a given `k` (shared with integration tests).
pub fn baseline_class_report(ctx: &Ctx, k: usize) -> ClassReport {
    let last = ctx.trace().last_day();
    let labels = ctx.last_day_ml_labels();
    baseline_report(
        &last,
        &labels,
        &GtClass::names(),
        GtClass::Unknown.label(),
        &PortFeatureConfig {
            k,
            ..PortFeatureConfig::default()
        },
    )
}

/// Renders a class report in the paper's table shape.
pub fn render_report(report: &ClassReport) -> String {
    let mut t = TextTable::new(vec!["class", "precision", "recall", "f-score", "support"]);
    for row in &report.rows {
        if row.support == 0 {
            continue;
        }
        t.row(vec![
            row.name.clone(),
            f(row.precision, 2),
            f(row.recall, 2),
            f(row.f_score, 2),
            row.support.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_runs_and_reports_all_classes() {
        let ctx = Ctx::for_tests(61, "baseline_runs_and_reports_all_classes");
        let out = table6(&ctx);
        assert!(out.contains("Mirai-like"));
        assert!(out.contains("accuracy over GT classes"));
    }
}
