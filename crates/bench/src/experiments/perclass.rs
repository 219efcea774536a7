//! Table 4 — per-class precision/recall/F-score for the three service
//! definitions, at the paper's per-definition best (c, V).

use crate::experiments::baseline::render_report;
use crate::table::f;
use crate::Ctx;
use darkvec::config::ServiceDef;
use darkvec::supervised::Evaluation;
use darkvec_gen::GtClass;
use darkvec_ml::metrics::ClassReport;

/// Runs the three service definitions with the paper's settings:
/// single (c=75, V=50), auto (c=50, V=50), domain (c=25, V=50), k = 7.
pub fn table4(ctx: &Ctx) -> String {
    let mut out = String::from("Table 4: 7-NN classifier report per service definition\n");
    for (name, def, c) in [
        ("Single service (c=75, V=50)", ServiceDef::Single, 75),
        (
            "Auto-defined services (c=50, V=50)",
            ServiceDef::Auto(10),
            50,
        ),
        (
            "Domain knowledge based (c=25, V=50)",
            ServiceDef::DomainKnowledge,
            25,
        ),
    ] {
        let report = service_report(ctx, def, c, 7);
        out.push_str(&format!("\n--- {name} ---\n"));
        out.push_str(&render_report(&report));
        out.push_str(&format!(
            "accuracy over GT classes: {}\n",
            f(report.accuracy, 4)
        ));
    }
    out.push_str("\nExpected shape: single service fails on minority classes; domain/auto recover them;\nStretchoid recall stays low (irregular pattern); Engin-umich is perfect.\n");
    out
}

/// Trains and evaluates one service definition (shared with tests).
pub fn service_report(ctx: &Ctx, def: ServiceDef, window: usize, k: usize) -> ClassReport {
    let cfg = ctx.config_with(def, window, 50);
    let model = darkvec::pipeline::run(ctx.trace(), &cfg);
    let eval_labels = ctx.last_day_ml_labels();
    let ev = Evaluation::prepare(
        &model.embedding,
        &eval_labels,
        10,
        GtClass::Unknown.label(),
        k,
        0,
    );
    ev.report(k, &GtClass::names())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_report_runs_and_includes_engin() {
        let ctx = Ctx::for_tests(81, "domain_report_runs_and_includes_engin");
        let report = service_report(&ctx, ServiceDef::DomainKnowledge, 10, 7);
        let engin = report.row("Engin-umich").expect("engin row");
        assert!(engin.support > 0);
        assert!(report.accuracy > 0.0);
    }
}
