//! Ground-truth labels and hidden campaign identities.
//!
//! The simulator carries **two** label layers:
//!
//! * [`GtClass`] — the *observable* ground truth of Table 2, i.e. what the
//!   paper's labelling procedure (§3.2) can recover: the Mirai fingerprint
//!   plus published scanner IP lists. Coordinated groups the paper only
//!   discovers in §7 (Shadowserver, unknown1–8) are `Unknown` here.
//! * [`CampaignId`] — the *hidden* truth: which coordinated campaign
//!   actually generated a sender, including sub-group indices (Censys
//!   sub-clusters, Shadowserver sub-groups). Used to validate the
//!   unsupervised analysis.

use darkvec_types::{Fingerprint, Ipv4, Trace};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The ten observable ground-truth classes (Table 2 + Unknown).
///
/// The discriminant doubles as the dense label id used by `darkvec-ml`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
#[repr(u32)]
pub enum GtClass {
    /// GT1 — senders carrying the Mirai fingerprint.
    MiraiLike = 0,
    /// GT2 — the Censys Internet-scan project.
    Censys = 1,
    /// GT3 — Stretchoid.
    Stretchoid = 2,
    /// GT4 — the Internet Census project.
    InternetCensus = 3,
    /// GT5 — BinaryEdge.
    BinaryEdge = 4,
    /// GT6 — Sharashka.
    Sharashka = 5,
    /// GT7 — Ipip.net.
    Ipip = 6,
    /// GT8 — Shodan.
    Shodan = 7,
    /// GT9 — the Engin-Umich DNS research scanner.
    EnginUmich = 8,
    /// Everything the labelling procedure cannot attribute.
    Unknown = 9,
}

impl GtClass {
    /// All classes, label-id order.
    pub const ALL: [GtClass; 10] = [
        GtClass::MiraiLike,
        GtClass::Censys,
        GtClass::Stretchoid,
        GtClass::InternetCensus,
        GtClass::BinaryEdge,
        GtClass::Sharashka,
        GtClass::Ipip,
        GtClass::Shodan,
        GtClass::EnginUmich,
        GtClass::Unknown,
    ];

    /// Display name as used in the paper's tables.
    pub const fn name(self) -> &'static str {
        match self {
            GtClass::MiraiLike => "Mirai-like",
            GtClass::Censys => "Censys",
            GtClass::Stretchoid => "Stretchoid",
            GtClass::InternetCensus => "Internet-census",
            GtClass::BinaryEdge => "Binaryedge",
            GtClass::Sharashka => "Sharashka",
            GtClass::Ipip => "Ipip",
            GtClass::Shodan => "Shodan",
            GtClass::EnginUmich => "Engin-umich",
            GtClass::Unknown => "Unknown",
        }
    }

    /// Dense label id for `darkvec-ml`.
    pub const fn label(self) -> u32 {
        self as u32
    }

    /// Inverse of [`GtClass::label`].
    pub fn from_label(label: u32) -> Option<GtClass> {
        GtClass::ALL.get(label as usize).copied()
    }

    /// All class display names, label-id order.
    pub fn names() -> Vec<&'static str> {
        GtClass::ALL.iter().map(|c| c.name()).collect()
    }
}

impl fmt::Display for GtClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The hidden campaign that generated a sender.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CampaignId {
    /// The main Mirai-like botnet population.
    MiraiCore,
    /// Censys sub-group `0..7` (Figure 12's seven sub-clusters).
    Censys(u8),
    /// Censys senders with sporadic presence (stay in noisy clusters).
    CensysSporadic,
    /// Stretchoid (irregular).
    Stretchoid,
    /// Internet Census.
    InternetCensus,
    /// BinaryEdge.
    BinaryEdge,
    /// Sharashka.
    Sharashka,
    /// Ipip.net.
    Ipip,
    /// Shodan.
    Shodan,
    /// Engin-Umich.
    EnginUmich,
    /// Shadowserver sub-group `0..3` (§7.3.2; GT-Unknown).
    Shadowserver(u8),
    /// unknown1 — NetBIOS scan from one /24 (§7.3.3).
    U1NetBios,
    /// unknown2 — SMTP scan from one cloud /24.
    U2Smtp,
    /// unknown3 — SMB scan scattered over 23 /24s.
    U3Smb,
    /// unknown4 — the growing ADB worm (Figure 15).
    U4AdbWorm,
    /// unknown5 — Mirai-like extension (71 % fingerprinted).
    U5MiraiExt,
    /// unknown6 — SSH brute-force bots.
    U6Ssh,
    /// unknown7 — horizontal scanner, daily pattern.
    U7Horizontal,
    /// unknown8 — horizontal scanner, hourly pattern.
    U8Horizontal,
    /// Uncoordinated active senders (heterogeneous noise).
    MiscUnknown,
    /// One-shot / low-rate backscatter victims.
    Backscatter,
    /// Test-injected novel group `g` with a known onset day — ground truth
    /// for novelty-detection experiments (never published, never
    /// fingerprinted, so it labels as [`GtClass::Unknown`]).
    Injected(u8),
}

impl CampaignId {
    /// Whether this campaign is a *coordinated* group (should form a
    /// cluster), as opposed to noise.
    pub fn coordinated(self) -> bool {
        !matches!(
            self,
            CampaignId::MiscUnknown | CampaignId::Backscatter | CampaignId::CensysSporadic
        )
    }
}

impl fmt::Display for CampaignId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignId::Censys(g) => write!(f, "censys-{g}"),
            CampaignId::Shadowserver(g) => write!(f, "shadowserver-{g}"),
            CampaignId::Injected(g) => write!(f, "injected-{g}"),
            other => {
                let s = match other {
                    CampaignId::MiraiCore => "mirai-core",
                    CampaignId::CensysSporadic => "censys-sporadic",
                    CampaignId::Stretchoid => "stretchoid",
                    CampaignId::InternetCensus => "internet-census",
                    CampaignId::BinaryEdge => "binaryedge",
                    CampaignId::Sharashka => "sharashka",
                    CampaignId::Ipip => "ipip",
                    CampaignId::Shodan => "shodan",
                    CampaignId::EnginUmich => "engin-umich",
                    CampaignId::U1NetBios => "unknown1-netbios",
                    CampaignId::U2Smtp => "unknown2-smtp",
                    CampaignId::U3Smb => "unknown3-smb",
                    CampaignId::U4AdbWorm => "unknown4-adb-worm",
                    CampaignId::U5MiraiExt => "unknown5-mirai-ext",
                    CampaignId::U6Ssh => "unknown6-ssh",
                    CampaignId::U7Horizontal => "unknown7-horizontal",
                    CampaignId::U8Horizontal => "unknown8-horizontal",
                    CampaignId::MiscUnknown => "misc-unknown",
                    CampaignId::Backscatter => "backscatter",
                    CampaignId::Censys(_)
                    | CampaignId::Shadowserver(_)
                    | CampaignId::Injected(_) => unreachable!(),
                };
                f.write_str(s)
            }
        }
    }
}

/// Both label layers for every simulated sender.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    /// The scanner-project IP lists the labelling procedure "downloads"
    /// (§3.2 labels by published IP sets). Keyed by the class.
    published: HashMap<GtClass, HashSet<Ipv4>>,
    /// Hidden campaign per sender.
    campaigns: HashMap<Ipv4, CampaignId>,
}

impl GroundTruth {
    /// Registers a sender under its campaign; scanners also land in the
    /// corresponding published IP list.
    pub fn register(&mut self, ip: Ipv4, campaign: CampaignId, published_as: Option<GtClass>) {
        self.campaigns.insert(ip, campaign);
        if let Some(class) = published_as {
            self.published.entry(class).or_default().insert(ip);
        }
    }

    /// The hidden campaign of a sender (None for unregistered IPs).
    pub fn campaign(&self, ip: Ipv4) -> Option<CampaignId> {
        self.campaigns.get(&ip).copied()
    }

    /// Number of registered senders.
    pub fn len(&self) -> usize {
        self.campaigns.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.campaigns.is_empty()
    }

    /// All senders of a campaign.
    pub fn members(&self, campaign: CampaignId) -> Vec<Ipv4> {
        let mut v: Vec<Ipv4> = self
            .campaigns
            .iter()
            .filter(|&(_, &c)| c == campaign)
            .map(|(&ip, _)| ip)
            .collect();
        v.sort();
        v
    }

    /// The paper's evaluation set (Table 2 caption: classes "present in
    /// the last day of the collection and active in the 30 day dataset"):
    /// senders that appear on the last day AND sent ≥ `min_packets` over
    /// the whole trace, labelled via [`GroundTruth::label_trace`] on the
    /// full trace (fingerprints may appear on any day).
    pub fn eval_labels(&self, trace: &Trace, min_packets: u64) -> HashMap<Ipv4, GtClass> {
        let active = trace.active_senders(min_packets);
        let last_day_senders = trace.last_day().senders();
        let all = self.label_trace(trace);
        all.into_iter()
            .filter(|(ip, _)| active.contains(ip) && last_day_senders.contains(ip))
            .collect()
    }

    /// Labels every sender of a trace the way the paper does (§3.2):
    /// 1. senders with ≥ 1 Mirai-fingerprinted packet → [`GtClass::MiraiLike`];
    /// 2. senders on a published scanner list → that scanner's class;
    /// 3. everything else → [`GtClass::Unknown`].
    ///
    /// The fingerprint rule runs first, mirroring the paper where Mirai
    /// labelling is traffic-based while scanner labelling is IP-based.
    pub fn label_trace(&self, trace: &Trace) -> HashMap<Ipv4, GtClass> {
        let mut fingerprinted: HashSet<Ipv4> = HashSet::new();
        for p in trace.packets() {
            if p.fingerprint == Fingerprint::Mirai {
                fingerprinted.insert(p.src);
            }
        }
        let mut labels = HashMap::new();
        for ip in trace.senders() {
            let class = if fingerprinted.contains(&ip) {
                GtClass::MiraiLike
            } else {
                self.published
                    .iter()
                    .find(|(_, set)| set.contains(&ip))
                    .map(|(&c, _)| c)
                    .unwrap_or(GtClass::Unknown)
            };
            labels.insert(ip, class);
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkvec_types::{Packet, Protocol, Timestamp};

    fn ip(d: u8) -> Ipv4 {
        Ipv4::new(192, 0, 2, d)
    }

    #[test]
    fn class_labels_are_dense_and_invertible() {
        for (i, c) in GtClass::ALL.iter().enumerate() {
            assert_eq!(c.label() as usize, i);
            assert_eq!(GtClass::from_label(c.label()), Some(*c));
        }
        assert_eq!(GtClass::from_label(10), None);
        assert_eq!(GtClass::names().len(), 10);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(GtClass::MiraiLike.to_string(), "Mirai-like");
        assert_eq!(GtClass::EnginUmich.to_string(), "Engin-umich");
    }

    #[test]
    fn campaign_coordination_flags() {
        assert!(CampaignId::Censys(3).coordinated());
        assert!(CampaignId::U4AdbWorm.coordinated());
        assert!(!CampaignId::MiscUnknown.coordinated());
        assert!(!CampaignId::Backscatter.coordinated());
        assert!(!CampaignId::CensysSporadic.coordinated());
    }

    #[test]
    fn campaign_display_is_unique_per_subgroup() {
        assert_eq!(CampaignId::Censys(2).to_string(), "censys-2");
        assert_ne!(
            CampaignId::Censys(2).to_string(),
            CampaignId::Censys(3).to_string()
        );
        assert_eq!(CampaignId::U1NetBios.to_string(), "unknown1-netbios");
    }

    #[test]
    fn labelling_prefers_fingerprint_over_lists() {
        let mut gt = GroundTruth::default();
        gt.register(ip(1), CampaignId::Censys(0), Some(GtClass::Censys));
        gt.register(ip(2), CampaignId::MiraiCore, None);
        gt.register(ip(3), CampaignId::U1NetBios, None);
        let trace = Trace::new(vec![
            // ip1 is on the Censys list but also fingerprinted: Mirai wins.
            Packet::mirai(Timestamp(0), ip(1), 23),
            Packet::mirai(Timestamp(1), ip(2), 23),
            Packet::new(Timestamp(2), ip(3), 137, Protocol::Udp),
            Packet::new(Timestamp(3), ip(4), 80, Protocol::Tcp),
        ]);
        let labels = gt.label_trace(&trace);
        assert_eq!(labels[&ip(1)], GtClass::MiraiLike);
        assert_eq!(labels[&ip(2)], GtClass::MiraiLike);
        assert_eq!(labels[&ip(3)], GtClass::Unknown);
        assert_eq!(labels[&ip(4)], GtClass::Unknown);
    }

    #[test]
    fn labelling_uses_published_lists() {
        let mut gt = GroundTruth::default();
        gt.register(ip(5), CampaignId::Shodan, Some(GtClass::Shodan));
        let trace = Trace::new(vec![Packet::new(Timestamp(0), ip(5), 443, Protocol::Tcp)]);
        assert_eq!(gt.label_trace(&trace)[&ip(5)], GtClass::Shodan);
    }

    #[test]
    fn members_lookup() {
        let mut gt = GroundTruth::default();
        gt.register(ip(1), CampaignId::U2Smtp, None);
        gt.register(ip(2), CampaignId::U2Smtp, None);
        gt.register(ip(3), CampaignId::U3Smb, None);
        assert_eq!(gt.members(CampaignId::U2Smtp), vec![ip(1), ip(2)]);
        assert_eq!(gt.campaign(ip(3)), Some(CampaignId::U3Smb));
        assert_eq!(gt.campaign(ip(9)), None);
        assert_eq!(gt.len(), 3);
    }
}
