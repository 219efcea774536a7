//! Unsupervised-analysis artifacts: Figures 10 and 11 and Table 5.

use crate::table::{count, f, TextTable};
use crate::Ctx;
use darkvec::inspect::profile_clusters;
use darkvec::unsupervised::{
    cluster_embedding, dominant_labels, k_sweep_with, ClusterConfig, Clustering,
};
use darkvec_gen::CampaignId;
use darkvec_types::Ipv4;
use std::collections::HashMap;

/// Figure 10 — number of clusters and modularity vs k′.
pub fn fig10(ctx: &Ctx) -> String {
    let model = ctx.model();
    let ks: Vec<usize> = (1..=14).collect();
    let points = k_sweep_with(&model.embedding, &ks, ctx.sim_cfg.seed, 0, &ctx.backend);

    let mut out = String::from("Figure 10: impact of k' on cluster detection\n\n");
    let mut t = TextTable::new(vec!["k'", "clusters", "modularity", "graph components"]);
    let mut csv = String::from("k,clusters,modularity,components\n");
    for p in &points {
        csv.push_str(&format!(
            "{},{},{:.6},{}\n",
            p.k, p.clusters, p.modularity, p.components
        ));
        t.row(vec![
            p.k.to_string(),
            p.clusters.to_string(),
            f(p.modularity, 3),
            p.components.to_string(),
        ]);
    }
    ctx.write_artifact("fig10_series.csv", &csv);
    out.push_str(&t.render());
    out.push_str("\nk'=1 fragments the graph into many components/clusters; the elbow sits at small k'\n(the paper picks k'=3), after which modularity declines slowly.\n");
    out
}

/// The default clustering used by fig11/fig12-15/table5.
pub fn default_clustering(ctx: &Ctx) -> Clustering {
    cluster_embedding(
        &ctx.model().embedding,
        &ClusterConfig {
            k: 3,
            seed: ctx.sim_cfg.seed,
            threads: 0,
            backend: ctx.backend.clone(),
        },
    )
}

/// Figure 11 — mean silhouette of each cluster, ranked, with notable
/// clusters annotated by their dominant hidden campaign.
pub fn fig11(ctx: &Ctx) -> String {
    let model = ctx.model();
    let clustering = default_clustering(ctx);
    let truth_map = campaign_map(ctx);
    let dominants = dominant_labels(&clustering, &model.embedding, &truth_map);
    let sizes = clustering.sizes();

    let mut out = format!(
        "Figure 11: average silhouette of the {} clusters (k'=3, modularity {:.3})\n\n",
        clustering.clusters, clustering.modularity
    );
    let mut t = TextTable::new(vec![
        "rank",
        "cluster",
        "size",
        "silhouette",
        "dominant campaign (purity)",
    ]);
    let mut csv = String::from("rank,cluster,size,silhouette\n");
    for (rank, (cid, sil)) in clustering.silhouette_ranking().into_iter().enumerate() {
        csv.push_str(&format!(
            "{},{cid},{},{sil:.6}\n",
            rank + 1,
            sizes[cid as usize]
        ));
        let note = match &dominants[cid as usize] {
            Some((campaign, purity)) => format!("{campaign} ({:.0}%)", purity * 100.0),
            None => "-".to_string(),
        };
        t.row(vec![
            (rank + 1).to_string(),
            format!("C{cid}"),
            sizes[cid as usize].to_string(),
            f(sil, 2),
            note,
        ]);
    }
    ctx.write_artifact("fig11_series.csv", &csv);
    out.push_str(&t.render());
    let good = clustering.silhouettes.iter().filter(|&&s| s > 0.5).count();
    out.push_str(&format!(
        "\n{good}/{} clusters have silhouette > 0.5 (the paper reports more than half).\n",
        clustering.clusters
    ));
    out
}

/// Table 5 — summary of extracted coordinated senders: per notable
/// cluster, member count, ports, silhouette and traffic evidence.
pub fn table5(ctx: &Ctx) -> String {
    let model = ctx.model();
    let clustering = default_clustering(ctx);
    let profiles = profile_clusters(ctx.trace(), &model.embedding, &clustering);
    let truth_map = campaign_map(ctx);
    let dominants = dominant_labels(&clustering, &model.embedding, &truth_map);

    let mut out = String::from("Table 5: summary of extracted coordinated senders (k'=3)\n\n");
    let mut t = TextTable::new(vec![
        "cluster",
        "campaign (purity)",
        "IPs",
        "ports",
        "sil.",
        "/24s",
        "evidence",
    ]);
    // Notable clusters: dominated by a coordinated campaign.
    let mut shown = 0;
    for p in &profiles {
        let Some((campaign, purity)) = &dominants[p.cluster as usize] else {
            continue;
        };
        if !campaign.coordinated() || p.ips < 4 || *purity < 0.5 {
            continue;
        }
        shown += 1;
        let top = p
            .top_ports
            .iter()
            .take(2)
            .map(|(k, share)| format!("{k} {:.0}%", share * 100.0))
            .collect::<Vec<_>>()
            .join(", ");
        let subnet_note = if p.max_in_one_24 == p.ips && p.subnets24 == 1 {
            "single /24".to_string()
        } else if p.subnets16 == 1 {
            format!("{} /24s in one /16", p.subnets24)
        } else {
            format!("{} /24s", p.subnets24)
        };
        let tempo = match p.regularity {
            darkvec::temporal::Regularity::Daily => "; daily pattern",
            darkvec::temporal::Regularity::Hourly => "; hourly regular",
            darkvec::temporal::Regularity::Growing => "; growing (worm-like)",
            darkvec::temporal::Regularity::Irregular => "",
        };
        t.row(vec![
            format!("C{}", p.cluster),
            format!("{campaign} ({:.0}%)", purity * 100.0),
            p.ips.to_string(),
            p.ports.to_string(),
            f(p.silhouette, 2),
            subnet_note,
            format!("{} pkts; top {top}{tempo}", count(p.packets)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\n{shown} coordinated clusters recovered out of {} total clusters.\n",
        clustering.clusters
    ));

    // Recovery scorecard: which hidden coordinated campaigns got a
    // (mostly-pure) cluster?
    let mut recovered: HashMap<CampaignId, usize> = HashMap::new();
    for (p, dom) in profiles.iter().zip(&dominants) {
        if let Some((campaign, purity)) = dom {
            if campaign.coordinated() && *purity >= 0.5 && p.ips >= 4 {
                *recovered.entry(*campaign).or_insert(0) += p.ips;
            }
        }
    }
    out.push_str("\nRecovered coordinated campaigns: ");
    let mut names: Vec<String> = recovered.keys().map(|c| c.to_string()).collect();
    names.sort();
    out.push_str(&names.join(", "));
    out.push('\n');
    out
}

/// Sender → hidden campaign map for annotation.
fn campaign_map(ctx: &Ctx) -> HashMap<Ipv4, CampaignId> {
    let truth = ctx.truth();
    ctx.trace()
        .senders()
        .into_iter()
        .filter_map(|ip| truth.campaign(ip).map(|c| (ip, c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_and_table5_run_end_to_end() {
        let ctx = Ctx::for_tests(95, "fig10_and_table5_run_end_to_end");
        let out10 = fig10(&ctx);
        assert!(out10.contains("modularity"));
        let out5 = table5(&ctx);
        assert!(out5.contains("coordinated clusters recovered"), "{out5}");
    }
}
