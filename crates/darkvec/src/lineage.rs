//! Cluster lineage across sliding windows, and novelty detection.
//!
//! The sliding-window pipeline (§8, [`crate::incremental`]) recomputes
//! clusters per window and forgets their identity; this module is the
//! memory. A [`LineageTracker`] is fed one [`ClusterObservation`] list per
//! window (in window order) and matches clusters against the lineages it
//! already tracks by **member overlap** (Jaccard over sender sets), with
//! **centroid cosine** breaking near-ties. Each lineage record keeps its
//! birth window, per-window growth curve, and event log (continuation,
//! merge, split, death, re-emergence).
//!
//! A **novel** cluster — the DANTE-style monitoring signal — is a
//! coordinated group that (a) has no ancestor among tracked lineages,
//! (b) is not a re-emergence of a recently-dead lineage, (c) is at least
//! [`LineageConfig::min_novel_size`] senders, (d) has no dominant
//! ground-truth label (share ≥ [`LineageConfig::label_purity`]), and
//! (e) is made mostly of **fresh** senders — members not seen in any
//! cluster within the re-emergence horizon
//! ([`LineageConfig::min_fresh_share`]). Freshness is what separates a
//! new campaign from background churn: when the known population merely
//! re-shuffles into differently-cut clusters, every member was just seen
//! somewhere, and the re-cut never alerts. The first
//! [`LineageConfig::baseline_windows`] observed windows are the baseline
//! (burn-in): every cluster is trivially ancestor-free at the start, so
//! none of them alert until the tracker has founded the population's
//! lineages.
//!
//! Matching resolution is deterministic: observations are processed in
//! canonical cluster-id order (see [`crate::unsupervised::canonical_assignment`])
//! and all float comparisons are total. The same membership sequence always
//! produces the same lineage ids and events, independent of member order
//! inside a cluster.

use darkvec_obs::Json;
use darkvec_types::Ipv4;
use std::collections::{HashMap, HashSet};

/// Thresholds for the lineage matcher.
#[derive(Clone, Debug)]
pub struct LineageConfig {
    /// Minimum member-set Jaccard for a cluster to match a lineage.
    pub jaccard_threshold: f64,
    /// Two candidate lineages whose Jaccard scores differ by less than
    /// this margin are a near-tie, resolved by centroid cosine.
    pub tie_margin: f64,
    /// A dead lineage can re-emerge for this many windows after its death;
    /// beyond that an overlapping cluster is a fresh birth.
    pub reemergence_windows: u64,
    /// Smallest cluster that can raise a novelty alert.
    pub min_novel_size: usize,
    /// A dominant label with at least this share makes a cluster "known"
    /// (never novel).
    pub label_purity: f64,
    /// Minimum share of a newborn cluster's members that must be fresh —
    /// unseen in any cluster within the re-emergence horizon — for it to
    /// count as novel. Re-shuffles of the known population stay quiet.
    pub min_fresh_share: f64,
    /// Burn-in: the first windows observed never alert. One window is the
    /// hard minimum (everything is ancestor-free there); monitoring
    /// deployments may want more so slow-growing populations get their
    /// lineages founded before novelty judgments start.
    pub baseline_windows: u64,
}

impl Default for LineageConfig {
    fn default() -> Self {
        LineageConfig {
            jaccard_threshold: 0.3,
            tie_margin: 0.1,
            reemergence_windows: 3,
            min_novel_size: 4,
            label_purity: 0.5,
            min_fresh_share: 0.6,
            baseline_windows: 1,
        }
    }
}

/// One cluster of one window, as the tracker sees it.
#[derive(Clone, Debug)]
pub struct ClusterObservation {
    /// Canonical cluster id within its window.
    pub cluster: u32,
    /// Member senders.
    pub members: Vec<Ipv4>,
    /// Mean embedding vector of the members (any consistent dimension;
    /// may be empty when no embedding is available).
    pub centroid: Vec<f32>,
    /// Dominant ground-truth label and its share, when one is known.
    /// `None` means unlabelled/unknown-dominated.
    pub label: Option<(String, f64)>,
    /// Top targeted ports with traffic shares — `darkvec::inspect`
    /// evidence carried into alerts.
    pub top_ports: Vec<(String, f64)>,
    /// Temporal-regularity judgement (`darkvec::temporal`), e.g. "daily".
    pub regularity: String,
}

/// What happened to a lineage in one window.
#[derive(Clone, Debug, PartialEq)]
pub enum LineageEvent {
    /// First appearance.
    Birth,
    /// Matched one cluster this window.
    Continued {
        /// Member-set Jaccard against the previous window.
        jaccard: f64,
    },
    /// This lineage continued and absorbed the listed lineages.
    Merged {
        /// Lineage ids absorbed into this one.
        absorbed: Vec<u64>,
    },
    /// Born by splitting off an existing lineage (not novel).
    Split {
        /// The ancestor lineage id.
        from: u64,
    },
    /// Matched again after `gap` missed windows.
    ReEmerged {
        /// Windows the lineage was dead for.
        gap: u64,
    },
    /// Not matched by any cluster this window.
    Died,
}

impl LineageEvent {
    /// Stable lowercase tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            LineageEvent::Birth => "birth",
            LineageEvent::Continued { .. } => "continued",
            LineageEvent::Merged { .. } => "merged",
            LineageEvent::Split { .. } => "split",
            LineageEvent::ReEmerged { .. } => "reemerged",
            LineageEvent::Died => "died",
        }
    }
}

/// The tracked history of one cluster lineage.
#[derive(Clone, Debug)]
pub struct LineageRecord {
    /// Stable lineage id (assigned at birth, never reused).
    pub id: u64,
    /// Window `(start_day, end_day)` of the birth.
    pub birth_window: (u64, u64),
    /// Window of the most recent match.
    pub last_window: (u64, u64),
    /// Canonical cluster id at the most recent match.
    pub cluster: u32,
    /// Whether the lineage matched a cluster in the latest window.
    pub alive: bool,
    /// Consecutive windows missed since last seen (0 while alive).
    pub missed: u64,
    /// `(window end_day, member count)` growth curve.
    pub growth: Vec<(u64, usize)>,
    /// `(window end_day, event)` log.
    pub events: Vec<(u64, LineageEvent)>,
    /// Dominant label at the most recent match.
    pub label: Option<(String, f64)>,
    /// Member set at the most recent match.
    pub members: HashSet<Ipv4>,
    /// Centroid at the most recent match.
    pub centroid: Vec<f32>,
}

impl LineageRecord {
    /// Member count at the most recent match.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// A novel coordinated group: ancestor-free, unlabelled, and large enough
/// to matter. Carries `darkvec::inspect` evidence for the analyst.
#[derive(Clone, Debug)]
pub struct NoveltyAlert {
    /// Lineage id assigned to the new group.
    pub lineage: u64,
    /// Window `(start_day, end_day)` the group first appeared in.
    pub window: (u64, u64),
    /// Canonical cluster id within that window.
    pub cluster: u32,
    /// Member count.
    pub size: usize,
    /// Top targeted ports with traffic shares.
    pub top_ports: Vec<(String, f64)>,
    /// Temporal-regularity judgement.
    pub regularity: String,
    /// A few example members (up to 8), sorted.
    pub examples: Vec<Ipv4>,
}

impl NoveltyAlert {
    /// JSON form used by reports, manifests, and log lines.
    pub fn to_json(&self) -> Json {
        let ports: Vec<Json> = self
            .top_ports
            .iter()
            .map(|(p, share)| Json::obj().with("port", p.as_str()).with("share", *share))
            .collect();
        let examples: Vec<Json> = self
            .examples
            .iter()
            .map(|ip| Json::from(ip.to_string()))
            .collect();
        Json::obj()
            .with("lineage", self.lineage)
            .with("window_start", self.window.0)
            .with("window_end", self.window.1)
            .with("cluster", self.cluster as u64)
            .with("size", self.size as u64)
            .with("regularity", self.regularity.as_str())
            .with("top_ports", Json::Arr(ports))
            .with("examples", Json::Arr(examples))
    }
}

/// Member-set Jaccard similarity.
fn jaccard(a: &HashSet<Ipv4>, b: &HashSet<Ipv4>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = a.iter().filter(|ip| b.contains(ip)).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Cosine similarity of two centroids; 0 for mismatched or empty inputs.
fn cosine(a: &[f32], b: &[f32]) -> f64 {
    if a.is_empty() || a.len() != b.len() {
        return 0.0;
    }
    let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// One candidate (lineage, score) pair for an observation.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    record: usize,
    jaccard: f64,
    cosine: f64,
}

/// Matches clusters across consecutive windows and maintains lineage
/// records. Feed windows strictly in order via [`LineageTracker::observe`].
#[derive(Debug, Default)]
pub struct LineageTracker {
    cfg: LineageConfig,
    records: Vec<LineageRecord>,
    next_id: u64,
    windows_seen: u64,
    /// Window index each sender was last observed in (any cluster) —
    /// the freshness ledger behind novelty criterion (e). Holds only
    /// senders seen within the re-emergence horizon.
    last_seen: HashMap<Ipv4, u64>,
}

impl LineageTracker {
    /// A tracker with the given thresholds.
    pub fn new(cfg: LineageConfig) -> Self {
        LineageTracker {
            cfg,
            records: Vec::new(),
            next_id: 0,
            windows_seen: 0,
            last_seen: HashMap::new(),
        }
    }

    /// All lineage records, in birth order.
    pub fn records(&self) -> &[LineageRecord] {
        &self.records
    }

    /// Number of windows observed so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Senders in the freshness ledger: those seen in the last
    /// `reemergence_windows + 1` windows observed.
    pub fn ledger_len(&self) -> usize {
        self.last_seen.len()
    }

    /// Ingests one window's clusters and returns the novelty alerts it
    /// raised. `window` is the `(start_day, end_day)` of the training
    /// window; observations should be in canonical cluster-id order.
    ///
    /// Freshness is judged against cluster members only; when the caller
    /// can enumerate every sender present in the window's raw traffic
    /// (clustered or not), prefer
    /// [`LineageTracker::observe_with_presence`] — it keeps senders that
    /// idle below the activity filter from later looking novel.
    pub fn observe(
        &mut self,
        window: (u64, u64),
        observations: &[ClusterObservation],
    ) -> Vec<NoveltyAlert> {
        self.observe_with_presence(window, observations, &[])
    }

    /// [`LineageTracker::observe`] with the window's full sender presence:
    /// `present` lists every sender seen in the window's raw traffic, and
    /// all of them are stamped into the freshness ledger. A sporadic
    /// sender that trickles packets below the clustering activity filter
    /// is then *seen*, and the cluster it eventually joins does not read
    /// as a fresh campaign.
    pub fn observe_with_presence(
        &mut self,
        window: (u64, u64),
        observations: &[ClusterObservation],
        present: &[Ipv4],
    ) -> Vec<NoveltyAlert> {
        let end_day = window.1;
        let baseline = self.windows_seen < self.cfg.baseline_windows.max(1);
        let member_sets: Vec<HashSet<Ipv4>> = observations
            .iter()
            .map(|o| o.members.iter().copied().collect())
            .collect();

        // 1. Candidate lineages per observation: alive records with
        // Jaccard ≥ threshold, best first (Jaccard, then cosine within the
        // tie margin, then lineage id for total determinism).
        let candidates: Vec<Vec<Candidate>> = member_sets
            .iter()
            .enumerate()
            .map(|(oi, members)| {
                let mut cands: Vec<Candidate> = self
                    .records
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.alive)
                    .filter_map(|(ri, r)| {
                        let j = jaccard(members, &r.members);
                        (j >= self.cfg.jaccard_threshold).then(|| Candidate {
                            record: ri,
                            jaccard: j,
                            cosine: cosine(&observations[oi].centroid, &r.centroid),
                        })
                    })
                    .collect();
                cands.sort_by(|a, b| {
                    b.jaccard
                        .total_cmp(&a.jaccard)
                        .then_with(|| b.cosine.total_cmp(&a.cosine))
                        .then_with(|| self.records[a.record].id.cmp(&self.records[b.record].id))
                });
                // Centroid-cosine tie-break: if the runner-up's Jaccard is
                // within `tie_margin` of the best but its cosine is higher,
                // it wins the top slot.
                if cands.len() >= 2
                    && cands[0].jaccard - cands[1].jaccard < self.cfg.tie_margin
                    && cands[1].cosine > cands[0].cosine
                {
                    cands.swap(0, 1);
                }
                cands
            })
            .collect();

        // 2. Resolve continuation claims per lineage: among observations
        // whose BEST candidate is lineage L, the one with the largest
        // overlap continues L; the rest are split-born.
        let mut claim: HashMap<usize, Vec<usize>> = HashMap::new(); // record -> obs indices
        for (oi, cands) in candidates.iter().enumerate() {
            if let Some(best) = cands.first() {
                claim.entry(best.record).or_default().push(oi);
            }
        }
        let mut continues: Vec<Option<usize>> = vec![None; observations.len()]; // obs -> record
        let mut split_from: Vec<Option<usize>> = vec![None; observations.len()]; // obs -> ancestor record
        let mut claimed: HashSet<usize> = HashSet::new(); // records continued this window
        for (&ri, obs_list) in &claim {
            let winner = obs_list
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    let ja = candidates[a][0].jaccard;
                    let jb = candidates[b][0].jaccard;
                    ja.total_cmp(&jb)
                        .then_with(|| candidates[a][0].cosine.total_cmp(&candidates[b][0].cosine))
                        // Prefer the SMALLER canonical cluster id on exact
                        // ties (max_by keeps the later max, so invert).
                        .then_with(|| observations[b].cluster.cmp(&observations[a].cluster))
                })
                .unwrap_or(obs_list[0]);
            continues[winner] = Some(ri);
            claimed.insert(ri);
            for &oi in obs_list {
                if oi != winner {
                    split_from[oi] = Some(ri);
                }
            }
        }

        // 3. Merge detection: a continuing observation also overlapping
        // other lineages (above threshold) that nobody else continued has
        // absorbed them.
        let mut absorbed_by: HashMap<usize, usize> = HashMap::new(); // record -> obs
        for (oi, cands) in candidates.iter().enumerate() {
            if continues[oi].is_none() {
                continue;
            }
            for c in cands.iter().skip(1) {
                if !claimed.contains(&c.record) && !absorbed_by.contains_key(&c.record) {
                    absorbed_by.insert(c.record, oi);
                }
            }
        }

        // 4. Apply, in canonical observation order.
        let mut alerts = Vec::new();
        let mut revived: HashSet<usize> = HashSet::new();
        for (oi, obs) in observations.iter().enumerate() {
            if let Some(ri) = continues[oi] {
                let j = candidates[oi][0].jaccard;
                let absorbed: Vec<u64> = {
                    let mut ids: Vec<u64> = absorbed_by
                        .iter()
                        .filter(|&(_, &o)| o == oi)
                        .map(|(&r, _)| self.records[r].id)
                        .collect();
                    ids.sort_unstable();
                    ids
                };
                let rec = &mut self.records[ri];
                rec.events.push((
                    end_day,
                    if absorbed.is_empty() {
                        LineageEvent::Continued { jaccard: j }
                    } else {
                        LineageEvent::Merged {
                            absorbed: absorbed.clone(),
                        }
                    },
                ));
                Self::refresh(rec, window, obs, &member_sets[oi]);
                continue;
            }
            if let Some(ri) = split_from[oi] {
                let from = self.records[ri].id;
                self.birth(window, obs, &member_sets[oi], LineageEvent::Split { from });
                continue;
            }
            // Unmatched: try re-emergence against recently-dead lineages.
            let dead_match = self
                .records
                .iter()
                .enumerate()
                .filter(|(ri, r)| {
                    !r.alive
                        && r.missed <= self.cfg.reemergence_windows
                        && !revived.contains(ri)
                        && !absorbed_by.contains_key(ri)
                })
                .map(|(ri, r)| (ri, jaccard(&member_sets[oi], &r.members)))
                .filter(|&(_, j)| j >= self.cfg.jaccard_threshold)
                .max_by(|a, b| {
                    a.1.total_cmp(&b.1)
                        // Prefer the OLDER lineage on ties (max keeps later).
                        .then_with(|| self.records[b.0].id.cmp(&self.records[a.0].id))
                });
            if let Some((ri, _)) = dead_match {
                let gap = self.records[ri].missed;
                revived.insert(ri);
                let rec = &mut self.records[ri];
                rec.alive = true;
                rec.missed = 0;
                rec.events.push((end_day, LineageEvent::ReEmerged { gap }));
                Self::refresh(rec, window, obs, &member_sets[oi]);
                continue;
            }
            // A genuine birth. Novel iff past the baseline window, big
            // enough, with no dominant known label, and made mostly of
            // fresh senders (unseen within the re-emergence horizon) —
            // a re-cut of the known population is churn, not novelty.
            let current = self.windows_seen;
            let fresh = obs
                .members
                .iter()
                .filter(|ip| {
                    self.last_seen
                        .get(ip)
                        .is_none_or(|&w| current - w - 1 > self.cfg.reemergence_windows)
                })
                .count();
            let fresh_enough = fresh as f64 >= self.cfg.min_fresh_share * obs.members.len() as f64;
            let id = self.birth(window, obs, &member_sets[oi], LineageEvent::Birth);
            let unlabelled = match &obs.label {
                None => true,
                Some((_, share)) => *share < self.cfg.label_purity,
            };
            if !baseline
                && unlabelled
                && fresh_enough
                && obs.members.len() >= self.cfg.min_novel_size
            {
                let mut examples: Vec<Ipv4> = obs.members.clone();
                examples.sort_unstable();
                examples.truncate(8);
                alerts.push(NoveltyAlert {
                    lineage: id,
                    window,
                    cluster: obs.cluster,
                    size: obs.members.len(),
                    top_ports: obs.top_ports.clone(),
                    regularity: obs.regularity.clone(),
                    examples,
                });
            }
        }

        // 5. Alive lineages nobody continued or absorbed die; already-dead
        // ones age toward the re-emergence horizon.
        for ri in 0..self.records.len() {
            if revived.contains(&ri) || claimed.contains(&ri) {
                continue;
            }
            if absorbed_by.contains_key(&ri) {
                let rec = &mut self.records[ri];
                rec.alive = false;
                rec.missed = 1;
                rec.events.push((end_day, LineageEvent::Died));
                continue;
            }
            let rec = &mut self.records[ri];
            if rec.alive {
                if rec.last_window.1 != end_day {
                    rec.alive = false;
                    rec.missed = 1;
                    rec.events.push((end_day, LineageEvent::Died));
                }
            } else {
                rec.missed = rec.missed.saturating_add(1);
            }
        }

        // 6. Stamp the freshness ledger *after* the window resolved, so
        // members of this window's clusters never count against their own
        // freshness.
        for members in &member_sets {
            for &ip in members {
                self.last_seen.insert(ip, self.windows_seen);
            }
        }
        for &ip in present {
            self.last_seen.insert(ip, self.windows_seen);
        }
        // Drop the senders the next window would read as fresh anyway:
        // the window index only grows, so they never read as seen again.
        // This bounds the ledger by the horizon instead of by every
        // sender ever seen.
        let (now, horizon) = (self.windows_seen, self.cfg.reemergence_windows);
        self.last_seen.retain(|_, w| now - *w <= horizon);

        self.windows_seen += 1;
        alerts
    }

    /// Updates a continuing/revived record with this window's observation.
    fn refresh(
        rec: &mut LineageRecord,
        window: (u64, u64),
        obs: &ClusterObservation,
        members: &HashSet<Ipv4>,
    ) {
        rec.last_window = window;
        rec.cluster = obs.cluster;
        rec.alive = true;
        rec.missed = 0;
        rec.growth.push((window.1, members.len()));
        rec.label = obs.label.clone();
        rec.members = members.clone();
        rec.centroid = obs.centroid.clone();
    }

    /// Creates a new lineage record; returns its id.
    fn birth(
        &mut self,
        window: (u64, u64),
        obs: &ClusterObservation,
        members: &HashSet<Ipv4>,
        event: LineageEvent,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.records.push(LineageRecord {
            id,
            birth_window: window,
            last_window: window,
            cluster: obs.cluster,
            alive: true,
            missed: 0,
            growth: vec![(window.1, members.len())],
            events: vec![(window.1, event)],
            label: obs.label.clone(),
            members: members.clone(),
            centroid: obs.centroid.clone(),
        });
        id
    }

    /// JSON report: every lineage with its growth curve and event log —
    /// the payload behind `darkvec incremental --lineage-out`.
    pub fn report_json(&self) -> Json {
        let lineages: Vec<Json> = self
            .records
            .iter()
            .map(|r| {
                let growth: Vec<Json> = r
                    .growth
                    .iter()
                    .map(|&(day, size)| Json::obj().with("end_day", day).with("size", size as u64))
                    .collect();
                let events: Vec<Json> = r
                    .events
                    .iter()
                    .map(|(day, e)| {
                        let mut j = Json::obj().with("end_day", *day).with("event", e.tag());
                        match e {
                            LineageEvent::Continued { jaccard } => {
                                j = j.with("jaccard", *jaccard);
                            }
                            LineageEvent::Merged { absorbed } => {
                                j = j.with(
                                    "absorbed",
                                    Json::Arr(absorbed.iter().map(|&a| Json::from(a)).collect()),
                                );
                            }
                            LineageEvent::Split { from } => {
                                j = j.with("from", *from);
                            }
                            LineageEvent::ReEmerged { gap } => {
                                j = j.with("gap", *gap);
                            }
                            LineageEvent::Birth | LineageEvent::Died => {}
                        }
                        j
                    })
                    .collect();
                let mut j = Json::obj()
                    .with("lineage", r.id)
                    .with("birth_start", r.birth_window.0)
                    .with("birth_end", r.birth_window.1)
                    .with("last_start", r.last_window.0)
                    .with("last_end", r.last_window.1)
                    .with("cluster", r.cluster as u64)
                    .with("alive", r.alive)
                    .with("size", r.size() as u64)
                    .with("growth", Json::Arr(growth))
                    .with("events", Json::Arr(events));
                if let Some((label, share)) = &r.label {
                    j = j.with("label", label.as_str()).with("label_share", *share);
                }
                j
            })
            .collect();
        Json::obj()
            .with("windows", self.windows_seen)
            .with("lineages", Json::Arr(lineages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Shorthand: sender #i of group `g`.
    fn ip(g: u8, i: u8) -> Ipv4 {
        Ipv4::new(10, g, 0, i)
    }

    fn group(g: u8, n: u8) -> Vec<Ipv4> {
        (0..n).map(|i| ip(g, i)).collect()
    }

    fn obs(cluster: u32, members: Vec<Ipv4>) -> ClusterObservation {
        ClusterObservation {
            cluster,
            members,
            centroid: Vec::new(),
            label: None,
            top_ports: vec![("23/tcp".into(), 1.0)],
            regularity: "daily".into(),
        }
    }

    fn labelled(cluster: u32, members: Vec<Ipv4>, label: &str) -> ClusterObservation {
        ClusterObservation {
            label: Some((label.to_string(), 1.0)),
            ..obs(cluster, members)
        }
    }

    #[test]
    fn birth_growth_and_death() {
        let mut t = LineageTracker::new(LineageConfig::default());
        // Window 0 (baseline): one group; never alerts.
        let a0 = t.observe((0, 1), &[obs(0, group(1, 6))]);
        assert!(a0.is_empty(), "the baseline window must not alert");
        assert_eq!(t.records().len(), 1);
        assert_eq!(t.records()[0].events, vec![(1, LineageEvent::Birth)]);

        // Window 1: the group grows; no alert (it has an ancestor).
        let a1 = t.observe((0, 2), &[obs(0, group(1, 9))]);
        assert!(a1.is_empty());
        let rec = &t.records()[0];
        assert_eq!(rec.growth, vec![(1, 6), (2, 9)]);
        assert!(matches!(
            rec.events[1].1,
            LineageEvent::Continued { jaccard } if jaccard > 0.6
        ));

        // Window 2: the group vanishes.
        let a2 = t.observe((1, 3), &[]);
        assert!(a2.is_empty());
        let rec = &t.records()[0];
        assert!(!rec.alive);
        assert_eq!(rec.missed, 1);
        assert_eq!(rec.events.last().map(|(_, e)| e.tag()), Some("died"));
    }

    #[test]
    fn novel_cluster_alerts_after_baseline() {
        let mut t = LineageTracker::new(LineageConfig::default());
        t.observe((0, 1), &[obs(0, group(1, 6))]);
        // Window 1: a brand-new unlabelled group of 5 → alert.
        let alerts = t.observe((0, 2), &[obs(0, group(1, 6)), obs(1, group(7, 5))]);
        assert_eq!(alerts.len(), 1);
        let a = &alerts[0];
        assert_eq!(a.size, 5);
        assert_eq!(a.window, (0, 2));
        assert_eq!(a.regularity, "daily");
        assert_eq!(a.top_ports[0].0, "23/tcp");
        assert_eq!(a.examples.len(), 5);

        // A labelled newcomer and a tiny newcomer do NOT alert.
        let alerts = t.observe(
            (1, 3),
            &[
                obs(0, group(1, 6)),
                obs(1, group(7, 5)),
                labelled(2, group(8, 10), "mirai-like"),
                obs(3, group(9, 2)), // below min_novel_size
            ],
        );
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn population_re_cuts_are_churn_not_novelty() {
        let mut t = LineageTracker::new(LineageConfig::default());
        t.observe(
            (0, 1),
            &[
                obs(0, group(1, 6)),
                obs(1, group(2, 6)),
                obs(2, group(3, 6)),
            ],
        );
        // Window 1: the same 18 senders re-cut across the old cluster
        // boundaries — every new cluster overlaps each old one below the
        // Jaccard threshold (2/10 per pair), but no member is fresh.
        let recut = |a: u8, b: u8, c: u8| {
            let mut m: Vec<Ipv4> = (0..2).map(|i| ip(a, i)).collect();
            m.extend((2..4).map(|i| ip(b, i)));
            m.extend((4..6).map(|i| ip(c, i)));
            m
        };
        let alerts = t.observe(
            (0, 2),
            &[
                obs(0, recut(1, 2, 3)),
                obs(1, recut(2, 3, 1)),
                obs(2, recut(3, 1, 2)),
            ],
        );
        assert!(
            alerts.is_empty(),
            "re-shuffled known senders must not alert: {alerts:?}"
        );
        // A genuinely fresh group of the same size still does.
        let alerts = t.observe(
            (1, 3),
            &[
                obs(0, recut(1, 2, 3)),
                obs(1, recut(2, 3, 1)),
                obs(2, recut(3, 1, 2)),
                obs(3, group(9, 6)),
            ],
        );
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].size, 6);
    }

    #[test]
    fn merge_absorbs_the_smaller_lineage() {
        let mut t = LineageTracker::new(LineageConfig::default());
        t.observe((0, 1), &[obs(0, group(1, 8)), obs(1, group(2, 8))]);
        // Both groups fuse into one cluster.
        let mut fused = group(1, 8);
        fused.extend(group(2, 8));
        let alerts = t.observe((0, 2), &[obs(0, fused)]);
        assert!(alerts.is_empty(), "a merge is not novel");
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        let winner = &recs[0];
        let absorbed = &recs[1];
        assert!(winner.alive);
        assert!(matches!(
            &winner.events[1].1,
            LineageEvent::Merged { absorbed } if absorbed == &vec![1u64]
        ));
        assert!(!absorbed.alive);
        assert_eq!(absorbed.events.last().map(|(_, e)| e.tag()), Some("died"));
    }

    #[test]
    fn split_spawns_a_non_novel_descendant() {
        let mut t = LineageTracker::new(LineageConfig::default());
        let mut both = group(1, 8);
        both.extend(group(2, 8));
        t.observe((0, 1), &[obs(0, both)]);
        // The cluster splits into its two halves.
        let alerts = t.observe((0, 2), &[obs(0, group(1, 8)), obs(1, group(2, 8))]);
        assert!(alerts.is_empty(), "a split is not novel: {alerts:?}");
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].alive && recs[1].alive);
        assert!(matches!(
            recs[1].events[0].1,
            LineageEvent::Split { from: 0 }
        ));
    }

    #[test]
    fn reemergence_within_horizon_is_not_a_birth() {
        let mut t = LineageTracker::new(LineageConfig::default());
        t.observe((0, 1), &[obs(0, group(1, 6)), obs(1, group(3, 6))]);
        // The first group goes quiet for two windows.
        t.observe((0, 2), &[obs(0, group(3, 6))]);
        t.observe((1, 3), &[obs(0, group(3, 6))]);
        // ...and comes back: same lineage, no alert.
        let alerts = t.observe((2, 4), &[obs(0, group(1, 6)), obs(1, group(3, 6))]);
        assert!(alerts.is_empty(), "{alerts:?}");
        assert_eq!(t.records().len(), 2, "no new lineage for a re-emergence");
        let rec = &t.records()[0];
        assert!(rec.alive);
        assert!(matches!(
            rec.events.last(),
            Some((4, LineageEvent::ReEmerged { gap: 2 }))
        ));

        // Beyond the horizon the comeback is a fresh (novel) birth.
        let mut t = LineageTracker::new(LineageConfig {
            reemergence_windows: 1,
            ..LineageConfig::default()
        });
        t.observe((0, 1), &[obs(0, group(1, 6)), obs(1, group(3, 6))]);
        for w in 2..5 {
            t.observe((w - 2, w), &[obs(0, group(3, 6))]);
        }
        let alerts = t.observe((3, 5), &[obs(0, group(1, 6)), obs(1, group(3, 6))]);
        assert_eq!(alerts.len(), 1, "past the horizon it's a new group");
        assert_eq!(t.records().len(), 3);
    }

    /// The freshness ledger holds the senders of the last
    /// `reemergence_windows + 1` windows, not every sender ever seen.
    #[test]
    fn freshness_ledger_is_bounded_by_the_horizon() {
        let cfg = LineageConfig::default();
        let (r, n) = (cfg.reemergence_windows, 5u8);
        let mut t = LineageTracker::new(cfg);
        // R + 3 windows, each presenting N senders no other window saw.
        for w in 0..r + 3 {
            t.observe_with_presence((w, w + 1), &[], &group(100 + w as u8, n));
        }
        let bound = (r as usize + 1) * n as usize;
        assert!(t.ledger_len() <= bound, "{} > {bound}", t.ledger_len());
    }

    /// Bounding the ledger changes no freshness call: a sender absent for
    /// R windows still reads as seen, one absent for R + 1 as fresh.
    #[test]
    fn freshness_lapses_one_window_past_the_horizon() {
        let mut t = LineageTracker::new(LineageConfig::default());
        let r = t.cfg.reemergence_windows;
        // Present but never clustered, so no lineage can re-emerge: only
        // the ledger decides freshness.
        t.observe_with_presence((0, 1), &[], &group(2, 6));
        t.observe_with_presence((1, 2), &[], &group(1, 6));
        for w in 2..r + 2 {
            t.observe_with_presence((w, w + 1), &[], &[]);
        }
        // Group 1 was absent R windows, group 2 R + 1: only group 2's
        // cluster is made of fresh senders.
        let alerts = t.observe((r + 2, r + 3), &[obs(0, group(1, 6)), obs(1, group(2, 6))]);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].examples, group(2, 6));
    }

    #[test]
    fn centroid_cosine_breaks_jaccard_near_ties() {
        let mut t = LineageTracker::new(LineageConfig::default());
        let mut a = obs(0, group(1, 8));
        a.centroid = vec![1.0, 0.0];
        let mut b = obs(1, group(2, 8));
        b.centroid = vec![0.0, 1.0];
        t.observe((0, 1), &[a, b]);
        // A cluster overlapping both equally, pointing at b's centroid.
        let mut members = group(1, 4);
        members.extend(group(2, 4));
        let mut c = obs(0, members);
        c.centroid = vec![0.0, 1.0];
        t.observe((0, 2), &[c]);
        let recs = t.records();
        // Lineage 1 (centroid match) continued; lineage 0 died.
        assert!(recs[1].alive, "cosine should have broken the tie toward b");
        assert!(!recs[0].alive);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Matching is invariant under permutation of the member lists:
        /// the same windows in any member order give identical lineage
        /// ids, liveness, and event tags.
        #[test]
        fn matching_is_stable_under_member_permutation(
            sizes in prop::collection::vec(4usize..20, 2..5),
            seed in 0u64..1000,
        ) {
            use rand::rngs::SmallRng;
            use rand::{RngExt, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            // Windows: every group present in window 0, then each group
            // randomly present/absent and randomly resized.
            let groups: Vec<Vec<Ipv4>> = sizes
                .iter()
                .enumerate()
                .map(|(g, &n)| (0..n).map(|i| ip(g as u8, i as u8)).collect())
                .collect();
            let mut windows: Vec<Vec<Vec<Ipv4>>> = vec![groups.clone()];
            for _ in 0..3 {
                let mut w = Vec::new();
                for g in &groups {
                    if rng.random_range(0..4) > 0 {
                        let keep = rng.random_range(2..=g.len());
                        w.push(g[..keep].to_vec());
                    }
                }
                windows.push(w);
            }
            let run = |windows: &[Vec<Vec<Ipv4>>], permute: bool| {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
                let mut t = LineageTracker::new(LineageConfig::default());
                for (wi, w) in windows.iter().enumerate() {
                    let observations: Vec<ClusterObservation> = w
                        .iter()
                        .enumerate()
                        .map(|(ci, members)| {
                            let mut members = members.clone();
                            if permute {
                                // Fisher–Yates with the derived rng.
                                for i in (1..members.len()).rev() {
                                    let j = rng.random_range(0..=i);
                                    members.swap(i, j);
                                }
                            }
                            obs(ci as u32, members)
                        })
                        .collect();
                    t.observe((wi as u64, wi as u64 + 1), &observations);
                }
                let summary: Vec<(u64, bool, Vec<&'static str>)> = t
                    .records()
                    .iter()
                    .map(|r| {
                        (
                            r.id,
                            r.alive,
                            r.events.iter().map(|(_, e)| e.tag()).collect(),
                        )
                    })
                    .collect();
                summary
            };
            prop_assert_eq!(run(&windows, false), run(&windows, true));
        }
    }
}
