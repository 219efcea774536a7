//! IP2VEC (Ring et al., Appendix A.2.2): a flow-level custom context.
//!
//! IP2VEC embeds *all* flow fields into one space. For every flow it emits
//! (target, context) training pairs over the sender address, destination
//! port and transport protocol, then trains skip-gram with negative
//! sampling on the raw pairs (no sentences). The paper's criticism is
//! that this pair expansion — several pairs per packet — "poses
//! significant scalability problems": on the 30-day dataset, sequence
//! creation alone produced > 200 M pairs and never finished.
//!
//! The original also uses the *receiver* address as a field; a /24 darknet
//! has 256 receivers carrying almost no information, and our traces do not
//! model the receiver, so this implementation emits the remaining pair
//! types (documented substitution, DESIGN.md §1).

use darkvec_types::{Ipv4, PortKey, Protocol, Trace};
use darkvec_w2v::{train, Embedding, TrainConfig};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// A token in IP2VEC's mixed vocabulary.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Token {
    /// A sender address.
    Ip(Ipv4),
    /// A destination port (with protocol).
    Port(PortKey),
    /// A transport protocol.
    Proto(Protocol),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ip(ip) => write!(f, "ip:{ip}"),
            Token::Port(k) => write!(f, "port:{k}"),
            Token::Proto(p) => write!(f, "proto:{p}"),
        }
    }
}

impl FromStr for Token {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (kind, rest) = s.split_once(':').ok_or("missing kind")?;
        match kind {
            "ip" => Ok(Token::Ip(rest.parse().map_err(|_| "bad ip")?)),
            "port" => Ok(Token::Port(rest.parse().map_err(|_| "bad port")?)),
            "proto" => Ok(Token::Proto(rest.parse().map_err(|_| "bad proto")?)),
            _ => Err(format!("unknown token kind {kind}")),
        }
    }
}

/// IP2VEC configuration.
#[derive(Clone, Debug)]
pub struct Ip2VecConfig {
    /// Word2Vec hyper-parameters. The window is forced to 1 internally —
    /// IP2VEC trains on explicit pairs, not sentences.
    pub w2v: TrainConfig,
    /// Abort if pair generation exceeds this count (None = no limit).
    pub pair_budget: Option<u64>,
    /// Activity filter.
    pub min_packets: u64,
}

impl Default for Ip2VecConfig {
    fn default() -> Self {
        Ip2VecConfig {
            w2v: TrainConfig {
                min_count: 1,
                epochs: 10,
                ..TrainConfig::default()
            },
            pair_budget: None,
            min_packets: 10,
        }
    }
}

/// A trained (or aborted) IP2VEC model.
#[derive(Debug)]
pub struct Ip2VecModel {
    /// The mixed-token embedding (None if the budget was exceeded).
    pub embedding: Option<Embedding<Token>>,
    /// (target, context) pairs generated — the Table 3 scalability metric.
    pub pairs: u64,
    /// Whether training ran.
    pub completed: bool,
    /// Training wall-clock (zero if aborted).
    pub elapsed: std::time::Duration,
}

/// Emits IP2VEC's per-packet training pairs as 2-token sentences (training
/// them with window 1 is exactly pair-wise SGNS).
pub fn build_pairs(trace: &Trace) -> Vec<Vec<Token>> {
    let mut corpus = Vec::with_capacity(trace.len() * 3);
    for p in trace.packets() {
        let ip = Token::Ip(p.src);
        let port = Token::Port(p.port_key());
        let proto = Token::Proto(p.proto);
        corpus.push(vec![ip, port]);
        corpus.push(vec![ip, proto]);
        corpus.push(vec![port, proto]);
    }
    corpus
}

/// Runs IP2VEC end to end.
pub fn run(trace: &Trace, cfg: &Ip2VecConfig) -> Ip2VecModel {
    let _span = darkvec_obs::span!("ip2vec.run");
    let filtered = trace.filter_active(cfg.min_packets);
    let corpus = build_pairs(&filtered);
    let pairs = corpus.len() as u64;
    if let Some(budget) = cfg.pair_budget {
        if pairs > budget {
            return Ip2VecModel {
                embedding: None,
                pairs,
                completed: false,
                elapsed: std::time::Duration::ZERO,
            };
        }
    }
    let w2v = TrainConfig {
        window: 1,
        ..cfg.w2v.clone()
    };
    let (embedding, stats) = train(&corpus, &w2v);
    Ip2VecModel {
        embedding: Some(embedding),
        pairs,
        completed: true,
        elapsed: stats.elapsed,
    }
}

/// Extracts the sender sub-embedding as per-IP vectors, for kNN evaluation
/// with the same machinery as DarkVec.
pub fn sender_vectors(model: &Ip2VecModel) -> HashMap<Ipv4, Vec<f32>> {
    let mut out = HashMap::new();
    if let Some(emb) = &model.embedding {
        for id in 0..emb.len() as u32 {
            if let Token::Ip(ip) = emb.vocab().word(id) {
                out.insert(*ip, emb.row(id).to_vec());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkvec_types::{Packet, Timestamp};

    fn ip(d: u8) -> Ipv4 {
        Ipv4::new(10, 0, 0, d)
    }

    fn fixture() -> Trace {
        let mut packets = Vec::new();
        // Two telnet senders, two DNS senders.
        for i in 0..25u64 {
            packets.push(Packet::new(Timestamp(i * 100), ip(1), 23, Protocol::Tcp));
            packets.push(Packet::new(
                Timestamp(i * 100 + 3),
                ip(2),
                23,
                Protocol::Tcp,
            ));
            packets.push(Packet::new(
                Timestamp(i * 100 + 5),
                ip(3),
                53,
                Protocol::Udp,
            ));
            packets.push(Packet::new(
                Timestamp(i * 100 + 7),
                ip(4),
                53,
                Protocol::Udp,
            ));
        }
        Trace::new(packets)
    }

    #[test]
    fn pair_expansion_is_three_per_packet() {
        let trace = fixture();
        let corpus = build_pairs(&trace);
        assert_eq!(corpus.len(), trace.len() * 3);
        assert!(corpus.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn token_display_parse_round_trip() {
        for t in [
            Token::Ip(ip(9)),
            Token::Port(PortKey::udp(53)),
            Token::Proto(Protocol::Icmp),
        ] {
            assert_eq!(t.to_string().parse::<Token>().unwrap(), t);
        }
        assert!("garbage".parse::<Token>().is_err());
        assert!("ip:999.1.1.1".parse::<Token>().is_err());
    }

    #[test]
    fn same_service_senders_embed_nearby() {
        let cfg = Ip2VecConfig {
            w2v: TrainConfig {
                dim: 12,
                epochs: 30,
                min_count: 1,
                subsample: 0.0,
                threads: 1,
                seed: 3,
                ..TrainConfig::default()
            },
            min_packets: 5,
            ..Ip2VecConfig::default()
        };
        let model = run(&fixture(), &cfg);
        assert!(model.completed);
        let emb = model.embedding.as_ref().unwrap();
        let same = emb.cosine(&Token::Ip(ip(1)), &Token::Ip(ip(2))).unwrap();
        let diff = emb.cosine(&Token::Ip(ip(1)), &Token::Ip(ip(3))).unwrap();
        assert!(same > diff, "same-service {same} vs cross-service {diff}");
    }

    #[test]
    fn sender_vectors_extracts_only_ips() {
        let cfg = Ip2VecConfig {
            w2v: TrainConfig {
                dim: 8,
                epochs: 2,
                min_count: 1,
                threads: 1,
                seed: 1,
                ..TrainConfig::default()
            },
            min_packets: 1,
            ..Ip2VecConfig::default()
        };
        let model = run(&fixture(), &cfg);
        let vectors = sender_vectors(&model);
        assert_eq!(vectors.len(), 4);
        assert!(vectors.contains_key(&ip(1)));
    }

    #[test]
    fn budget_aborts() {
        let cfg = Ip2VecConfig {
            pair_budget: Some(5),
            min_packets: 1,
            ..Ip2VecConfig::default()
        };
        let model = run(&fixture(), &cfg);
        assert!(!model.completed);
        assert!(model.embedding.is_none());
        assert!(model.pairs > 5);
    }
}
