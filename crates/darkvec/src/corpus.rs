//! Corpus construction (§5.2): per-service, ΔT-windowed sequences of
//! sender IP addresses.
//!
//! For each service `s` and each non-overlapping window of length ΔT, the
//! time-ordered sequence of source addresses of packets hitting `s` in the
//! window is one sentence `W_s(t)`; the corpus is the union over all
//! windows and services. ΔT defaults to one hour (footnote 5: the value
//! "has marginal impact on performance").

use crate::services::ServiceMap;
use darkvec_types::codec::Reader;
use darkvec_types::{Ipv4, Trace, HOUR};

/// Summary of a built corpus — the "Skip-grams" column of Table 3 comes
/// from [`darkvec_w2v::count_skipgrams`] over these sentences.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusStats {
    /// Number of sentences (non-empty service-window sequences).
    pub sentences: usize,
    /// Total tokens (packet observations of retained senders).
    pub tokens: u64,
    /// Longest sentence.
    pub max_len: usize,
}

/// Builds the DarkVec corpus from a trace.
///
/// The caller is responsible for activity filtering (pass
/// `trace.filter_active(10)` for the paper's pipeline); every packet of the
/// given trace becomes a token.
///
/// # Panics
/// Panics if `dt == 0`.
pub fn build_corpus(trace: &Trace, services: &ServiceMap, dt: u64) -> Vec<Vec<Ipv4>> {
    assert!(dt > 0, "window length must be positive");
    let n_services = services.len();
    let mut corpus: Vec<Vec<Ipv4>> = Vec::new();
    // Reusable per-window buckets, one per service.
    let mut buckets: Vec<Vec<Ipv4>> = vec![Vec::new(); n_services];
    for (_, packets) in trace.windows(dt) {
        for p in packets {
            buckets[services.service_of(p.port_key())].push(p.src);
        }
        for bucket in &mut buckets {
            if !bucket.is_empty() {
                corpus.push(std::mem::take(bucket));
            }
        }
    }
    corpus
}

/// Builds the corpus with the paper's default ΔT of one hour.
pub fn build_corpus_hourly(trace: &Trace, services: &ServiceMap) -> Vec<Vec<Ipv4>> {
    build_corpus(trace, services, HOUR)
}

/// Builds the corpus of one capture day (zero-based, absolute day index) —
/// the shard unit of the incremental pipeline.
///
/// The day's packets go through [`build_corpus`] *unfiltered*: activity
/// filtering is deferred to the trainer's `min_count`, because a per-day
/// shard cannot know which senders are active over the whole sliding
/// window. As long as `dt` divides the day length, concatenating day
/// shards reproduces exactly the sentences [`build_corpus`] emits for the
/// whole span (ΔT windows are aligned to the dt grid, so none straddles a
/// day boundary).
///
/// # Panics
/// Panics if `dt == 0`.
pub fn build_day_corpus(trace: &Trace, day: u64, services: &ServiceMap, dt: u64) -> Vec<Vec<Ipv4>> {
    let day_trace = Trace::from_sorted(trace.day_slice(day).to_vec());
    build_corpus(&day_trace, services, dt)
}

/// Serialises a corpus for the artifact cache ("DKVC" format, version 1).
pub fn corpus_to_bytes(corpus: &[Vec<Ipv4>]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(b"DKVC");
    buf.push(1);
    buf.extend_from_slice(&(corpus.len() as u32).to_le_bytes());
    for sentence in corpus {
        buf.extend_from_slice(&(sentence.len() as u32).to_le_bytes());
        for ip in sentence {
            buf.extend_from_slice(&ip.0.to_le_bytes());
        }
    }
    buf
}

/// Inverse of [`corpus_to_bytes`]; fails cleanly on truncated or corrupt
/// input.
pub fn corpus_from_bytes(buf: &[u8]) -> Result<Vec<Vec<Ipv4>>, String> {
    let mut r = Reader::new(buf);
    if r.bytes(4)? != b"DKVC" {
        return Err("not a DKVC corpus file".to_string());
    }
    let version = r.u8()?;
    if version != 1 {
        return Err(format!("unsupported DKVC version {version}"));
    }
    // Every sentence costs at least its 4-byte length prefix.
    let sentences = r.u32()?;
    let mut corpus = Vec::with_capacity(r.count(sentences, 4)?);
    for _ in 0..sentences {
        let len = r.u32()?;
        let mut sentence = Vec::with_capacity(r.count(len, 4)?);
        for _ in 0..len {
            sentence.push(Ipv4(r.u32()?));
        }
        corpus.push(sentence);
    }
    r.finish()?;
    Ok(corpus)
}

/// Computes summary statistics of a corpus.
pub fn corpus_stats(corpus: &[Vec<Ipv4>]) -> CorpusStats {
    CorpusStats {
        sentences: corpus.len(),
        tokens: corpus.iter().map(|s| s.len() as u64).sum(),
        max_len: corpus.iter().map(|s| s.len()).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkvec_types::{Packet, Protocol, Timestamp};

    fn ip(d: u8) -> Ipv4 {
        Ipv4::new(10, 0, 0, d)
    }

    fn pkt(ts: u64, src: u8, port: u16) -> Packet {
        Packet::new(Timestamp(ts), ip(src), port, Protocol::Tcp)
    }

    #[test]
    fn sentences_split_by_service_and_window() {
        // Two services (telnet via port 23, SSH via 22) across two hours.
        let trace = Trace::new(vec![
            pkt(10, 1, 23),
            pkt(20, 2, 23),
            pkt(30, 3, 22),
            pkt(HOUR + 5, 4, 23),
        ]);
        let m = ServiceMap::domain_knowledge();
        let corpus = build_corpus_hourly(&trace, &m);
        // Window 0: telnet [1,2], ssh [3]; window 1: telnet [4].
        assert_eq!(corpus.len(), 3);
        assert!(corpus.contains(&vec![ip(1), ip(2)]));
        assert!(corpus.contains(&vec![ip(3)]));
        assert!(corpus.contains(&vec![ip(4)]));
    }

    #[test]
    fn single_service_concatenates_everything_per_window() {
        let trace = Trace::new(vec![pkt(10, 1, 23), pkt(20, 2, 22), pkt(30, 3, 80)]);
        let corpus = build_corpus_hourly(&trace, &ServiceMap::single());
        assert_eq!(corpus, vec![vec![ip(1), ip(2), ip(3)]]);
    }

    #[test]
    fn sentences_preserve_arrival_order() {
        let trace = Trace::new(vec![pkt(30, 3, 23), pkt(10, 1, 23), pkt(20, 2, 23)]);
        let corpus = build_corpus_hourly(&trace, &ServiceMap::single());
        assert_eq!(corpus[0], vec![ip(1), ip(2), ip(3)]);
    }

    #[test]
    fn repeated_senders_repeat_in_sentence() {
        // §5.2 Figure 5: "the same sender IP address may appear in
        // different services" and multiple times in one sequence.
        let trace = Trace::new(vec![pkt(10, 1, 23), pkt(20, 1, 23), pkt(25, 1, 22)]);
        let m = ServiceMap::domain_knowledge();
        let corpus = build_corpus_hourly(&trace, &m);
        assert!(corpus.contains(&vec![ip(1), ip(1)]));
        assert!(corpus.contains(&vec![ip(1)]));
    }

    #[test]
    fn tokens_equal_packets() {
        let trace = Trace::new(
            (0..100)
                .map(|i| pkt(i * 70, (i % 7) as u8, 23 + (i % 3) as u16))
                .collect(),
        );
        for m in [ServiceMap::single(), ServiceMap::domain_knowledge()] {
            let corpus = build_corpus_hourly(&trace, &m);
            let stats = corpus_stats(&corpus);
            assert_eq!(stats.tokens, 100, "every packet is exactly one token");
            assert!(stats.max_len <= 100);
            assert!(stats.sentences > 0);
        }
    }

    #[test]
    fn smaller_dt_gives_more_shorter_sentences() {
        let trace = Trace::new(
            (0..200u64)
                .map(|i| pkt(i * 60, (i % 11) as u8, 23))
                .collect(),
        );
        let m = ServiceMap::single();
        let hourly = corpus_stats(&build_corpus(&trace, &m, HOUR));
        let minutely = corpus_stats(&build_corpus(&trace, &m, 60));
        assert!(minutely.sentences > hourly.sentences);
        assert!(minutely.max_len < hourly.max_len);
        assert_eq!(minutely.tokens, hourly.tokens);
    }

    #[test]
    fn day_shards_concatenate_to_full_corpus() {
        use darkvec_types::DAY;
        // Three days of traffic; dt = 1h divides the day, so no window
        // straddles a day boundary and shards concatenate exactly.
        let trace = Trace::new(
            (0..500u64)
                .map(|i| pkt(i * 511 % (3 * DAY), (i % 13) as u8, 23 + (i % 4) as u16))
                .collect(),
        );
        let m = ServiceMap::domain_knowledge();
        let full = build_corpus(&trace, &m, HOUR);
        let mut sharded = Vec::new();
        for day in 0..trace.days() {
            sharded.extend(build_day_corpus(&trace, day, &m, HOUR));
        }
        assert_eq!(full, sharded);
    }

    #[test]
    fn corpus_bytes_round_trip() {
        let corpus = vec![vec![ip(1), ip(2)], vec![], vec![ip(3)]];
        let bytes = corpus_to_bytes(&corpus);
        assert_eq!(corpus_from_bytes(&bytes[..]).unwrap(), corpus);
        // Empty corpus too.
        let empty: Vec<Vec<Ipv4>> = Vec::new();
        let bytes = corpus_to_bytes(&empty);
        assert_eq!(corpus_from_bytes(&bytes[..]).unwrap(), empty);
    }

    #[test]
    fn corpus_from_bytes_rejects_truncation_and_corruption() {
        let corpus = vec![vec![ip(1), ip(2)], vec![ip(3)]];
        let bytes = corpus_to_bytes(&corpus);
        for cut in 0..bytes.len() {
            assert!(
                corpus_from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(corpus_from_bytes(&bad[..]).is_err());
        // A header promising far more sentences than the buffer holds must
        // fail without allocating for them.
        let mut huge = bytes;
        huge[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(corpus_from_bytes(&huge[..]).is_err());
    }

    #[test]
    fn empty_trace_empty_corpus() {
        let corpus = build_corpus_hourly(&Trace::default(), &ServiceMap::single());
        assert!(corpus.is_empty());
        assert_eq!(
            corpus_stats(&corpus),
            CorpusStats {
                sentences: 0,
                tokens: 0,
                max_len: 0
            }
        );
    }
}
