//! One module per paper artifact. Every experiment takes the shared
//! [`crate::Ctx`] and returns the rendered text artifact (also mirrored to
//! `results/<id>.txt` by the `xp` binary).

pub mod ann;
pub mod baseline;
pub mod classes;
pub mod cluster_ablation;
pub mod clustering;
pub mod comparison;
pub mod dataset;
pub mod gt_extension;
pub mod incremental;
pub mod novelty;
pub mod perclass;
pub mod rasters;
pub mod scale;
pub mod services_xp;
pub mod transfer;
pub mod tuning;

use crate::Ctx;
use darkvec_obs::Json;

/// The host a benchmark number was measured on: its core count and the
/// SIMD path the kernels dispatched to. Every `BENCH_*.json` writer that
/// times neighbour search records it, so numbers from different hosts
/// are never compared blind.
pub(crate) fn host_json() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj()
        .with("cores", cores)
        .with("simd", darkvec_kernels::active_path().name())
}

/// All experiment ids, in the paper's presentation order.
pub const ALL: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "table2",
    "fig3",
    "table6",
    "table3",
    "fig6",
    "fig7",
    "fig8",
    "table4",
    "fig9",
    "fig10",
    "fig11",
    "fig12_15",
    "table5",
    "table7",
    "gt_extend",
    "transfer",
    "cluster_ablation",
    "ann",
    "incremental",
    "novelty",
    "scale",
];

/// Runs one experiment by id; `None` for an unknown id.
pub fn run(ctx: &Ctx, id: &str) -> Option<String> {
    let out = match id {
        "table1" => dataset::table1(ctx),
        "fig1" => dataset::fig1(ctx),
        "fig2" => dataset::fig2(ctx),
        "table2" => classes::table2(ctx),
        "fig3" => classes::fig3(ctx),
        "table6" => baseline::table6(ctx),
        "table3" => comparison::table3(ctx),
        "fig6" => tuning::fig6(ctx),
        "fig7" => tuning::fig7(ctx),
        "fig8" => tuning::fig8(ctx),
        "table4" => perclass::table4(ctx),
        "fig9" => rasters::fig9(ctx),
        "fig10" => clustering::fig10(ctx),
        "fig11" => clustering::fig11(ctx),
        "fig12_15" => rasters::fig12_15(ctx),
        "table5" => clustering::table5(ctx),
        "table7" => services_xp::table7(ctx),
        "gt_extend" => gt_extension::gt_extend(ctx),
        "transfer" => transfer::transfer(ctx),
        "cluster_ablation" => cluster_ablation::cluster_ablation(ctx),
        "ann" => ann::ann(ctx),
        "incremental" => incremental::incremental(ctx),
        "novelty" => novelty::novelty(ctx),
        "scale" => scale::scale(ctx),
        _ => return None,
    };
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_id() {
        let ctx = Ctx::for_tests(90, "registry_covers_every_id");
        // Cheap experiments only — expensive ones have their own tests.
        {
            let id = "table7";
            assert!(run(&ctx, id).is_some(), "{id} failed to run");
        }
        assert!(run(&ctx, "nope").is_none());
        assert_eq!(ALL.len(), 24);
    }
}
