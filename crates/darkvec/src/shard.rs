//! Parallel shard-merge corpus build.
//!
//! The incremental pipeline and the serve daemon both assemble a window
//! corpus out of per-day shards ([`crate::corpus::build_day_corpus`]); at paper scale
//! (30 days × millions of packets) the serial day loop dominates every
//! cold step. This module fans shard construction across worker threads
//! and merges the results **deterministically**:
//!
//! * each worker builds (or loads from the artifact cache) whole day
//!   shards and counts its tokens locally — no shared mutable state;
//! * the merged corpus is the day-order concatenation of the shard
//!   corpora, which is sentence-for-sentence what the serial loop
//!   produces (ΔT divides a day, so no window straddles a boundary);
//! * per-shard token counts are summed and word-sorted; fed through
//!   [`Vocab::from_counts`] they assign exactly the ids
//!   `Vocab::build` derives from the concatenated corpus, because both
//!   rank by `(count desc, word asc)`.
//!
//! The result is bit-identical to the serial path for **any** thread
//! count (asserted by the tests below and gated in CI by `xp scale`),
//! so `--shard-threads` is pure wall-clock and never enters cache keys.

use darkvec_types::Ipv4;
use darkvec_w2v::Vocab;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// One day's corpus plus its locally-counted vocabulary.
#[derive(Clone, Debug)]
pub struct CorpusShard {
    /// The day's sentences, in [`crate::corpus::build_day_corpus`] order.
    pub corpus: Vec<Vec<Ipv4>>,
    /// Token occurrences within this shard.
    pub counts: HashMap<Ipv4, u64>,
}

/// A window corpus merged from shards, with the summed vocabulary counts.
#[derive(Clone, Debug)]
pub struct MergedCorpus {
    /// Day-order concatenation of the shard corpora.
    pub corpus: Vec<Vec<Ipv4>>,
    /// Summed `(word, count)` pairs, sorted by word — deterministic
    /// regardless of shard or thread scheduling.
    pub counts: Vec<(Ipv4, u64)>,
}

impl MergedCorpus {
    /// The vocabulary the merged counts induce, identical to
    /// `Vocab::build(corpus, min_count)` over the concatenated corpus
    /// (both rank words by `(count desc, word asc)`).
    pub fn vocab(&self, min_count: u64) -> Vocab<Ipv4> {
        let kept: Vec<(Ipv4, u64)> = self
            .counts
            .iter() // MergedCorpus::counts is a word-sorted Vec
            .filter(|&&(_, c)| c >= min_count.max(1))
            .copied()
            .collect();
        Vocab::from_counts(kept).expect("merged counts are deduplicated and positive")
    }
}

/// Counts token occurrences of one corpus.
pub fn count_tokens(corpus: &[Vec<Ipv4>]) -> HashMap<Ipv4, u64> {
    let mut counts = HashMap::new();
    for sentence in corpus {
        for &ip in sentence {
            *counts.entry(ip).or_insert(0) += 1;
        }
    }
    counts
}

/// Resolves a thread-count knob: `0` means one per available core, and
/// the count never exceeds the number of work items.
fn resolve_threads(threads: usize, work: usize) -> usize {
    let t = if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
    };
    t.clamp(1, work.max(1))
}

/// Builds the shards of `days` in parallel, each from `day_corpus(day)`
/// (e.g. [`crate::corpus::build_day_corpus`]), in day order for any
/// `threads`.
pub fn build_shards(
    days: Range<u64>,
    threads: usize,
    day_corpus: impl Fn(u64) -> Vec<Vec<Ipv4>> + Sync,
) -> Vec<CorpusShard> {
    let first_day = days.start;
    let n_days = days.end.saturating_sub(first_day) as usize;
    let _span = darkvec_obs::span!("shard.build");
    let threads = resolve_threads(threads, n_days);

    let mut shards: Vec<Option<CorpusShard>> = vec![None; n_days];
    let chunk = n_days.div_ceil(threads).max(1);
    let ctx = darkvec_obs::span::context();
    let day_corpus = &day_corpus;
    std::thread::scope(|scope| {
        for (c, out) in shards.chunks_mut(chunk).enumerate() {
            let base = c * chunk;
            scope.spawn(move || {
                let _worker = darkvec_obs::span!("shard.build.worker", ctx);
                for (off, slot) in out.iter_mut().enumerate() {
                    let day = first_day + (base + off) as u64;
                    let corpus = day_corpus(day);
                    let counts = count_tokens(&corpus);
                    *slot = Some(CorpusShard { corpus, counts });
                }
            });
        }
    });
    darkvec_obs::metrics::counter("shard.built").add(n_days as u64);
    shards
        .into_iter()
        .map(|s| s.expect("every day slot is filled"))
        .collect()
}

/// Merges built shards: corpora are concatenated in the order given
/// (callers pass day order), counts are summed and word-sorted.
pub fn merge_shards(shards: Vec<CorpusShard>) -> MergedCorpus {
    let _span = darkvec_obs::span!("shard.merge");
    let mut corpus = Vec::with_capacity(shards.iter().map(|s| s.corpus.len()).sum::<usize>());
    let mut summed: BTreeMap<Ipv4, u64> = BTreeMap::new();
    for shard in shards {
        corpus.extend(shard.corpus);
        // lint: nondeterministic-ok(integer sums into a BTreeMap are commutative, and the BTreeMap re-sorts by word)
        for (ip, c) in shard.counts {
            *summed.entry(ip).or_insert(0) += c;
        }
    }
    MergedCorpus {
        corpus,
        counts: summed.into_iter().collect(),
    }
}

/// Merges borrowed shard corpora (the serve trainer's window, whose
/// shards stay alive in the ingest thread): sentences are cloned and
/// counted in parallel per shard, then concatenated in the order given.
pub fn merge_window(shard_corpora: &[&[Vec<Ipv4>]], threads: usize) -> MergedCorpus {
    let _span = darkvec_obs::span!("shard.merge_window");
    let n = shard_corpora.len() as u64;
    merge_shards(build_shards(0..n, threads, |i| {
        shard_corpora[i as usize].to_vec()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{build_corpus, build_day_corpus};
    use crate::services::ServiceMap;
    use darkvec_types::{Packet, Protocol, Timestamp, Trace, DAY, HOUR};

    fn ip(d: u8) -> Ipv4 {
        Ipv4::new(10, 0, 0, d)
    }

    fn multi_day_trace() -> Trace {
        Trace::new(
            (0..800u64)
                .map(|i| {
                    Packet::new(
                        Timestamp(i * 997 % (4 * DAY)),
                        ip((i % 17) as u8),
                        23 + (i % 5) as u16,
                        Protocol::Tcp,
                    )
                })
                .collect(),
        )
    }

    fn serial_shards(trace: &Trace, services: &ServiceMap) -> Vec<CorpusShard> {
        (0..trace.days())
            .map(|day| {
                let corpus = build_day_corpus(trace, day, services, HOUR);
                let counts = count_tokens(&corpus);
                CorpusShard { corpus, counts }
            })
            .collect()
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial_for_any_thread_count() {
        let trace = multi_day_trace();
        let services = ServiceMap::domain_knowledge();
        let serial = merge_shards(serial_shards(&trace, &services));
        for threads in [1, 2, 3, 8, 0] {
            let shards = build_shards(0..trace.days(), threads, |d| {
                build_day_corpus(&trace, d, &services, HOUR)
            });
            let merged = merge_shards(shards);
            assert_eq!(merged.corpus, serial.corpus, "threads={threads}");
            assert_eq!(merged.counts, serial.counts, "threads={threads}");
        }
    }

    #[test]
    fn merged_corpus_equals_one_shot_build() {
        let trace = multi_day_trace();
        let services = ServiceMap::domain_knowledge();
        let shards = build_shards(0..trace.days(), 4, |d| {
            build_day_corpus(&trace, d, &services, HOUR)
        });
        let merged = merge_shards(shards);
        assert_eq!(merged.corpus, build_corpus(&trace, &services, HOUR));
    }

    #[test]
    fn merged_vocab_matches_vocab_build_exactly() {
        let trace = multi_day_trace();
        let services = ServiceMap::domain_knowledge();
        let merged = merge_shards(build_shards(0..trace.days(), 0, |d| {
            build_day_corpus(&trace, d, &services, HOUR)
        }));
        for min_count in [1, 2, 10] {
            let from_merge = merged.vocab(min_count);
            let from_build = Vocab::build(merged.corpus.iter().map(|s| s.iter()), min_count);
            assert_eq!(from_merge.len(), from_build.len(), "min_count={min_count}");
            assert_eq!(from_merge.words(), from_build.words());
            assert_eq!(from_merge.counts(), from_build.counts());
        }
    }

    #[test]
    fn merge_window_matches_owned_merge() {
        let trace = multi_day_trace();
        let services = ServiceMap::domain_knowledge();
        let shards = serial_shards(&trace, &services);
        let borrowed: Vec<&[Vec<Ipv4>]> = shards.iter().map(|s| s.corpus.as_slice()).collect();
        let via_window = merge_window(&borrowed, 3);
        let via_owned = merge_shards(shards);
        assert_eq!(via_window.corpus, via_owned.corpus);
        assert_eq!(via_window.counts, via_owned.counts);
    }

    #[test]
    fn empty_ranges_and_empty_days() {
        // A trace with one day of traffic queried over that single day.
        let trace = Trace::new(vec![Packet::new(Timestamp(10), ip(1), 23, Protocol::Tcp)]);
        let shards = build_shards(0..1, 8, |d| {
            build_day_corpus(&trace, d, &ServiceMap::single(), HOUR)
        });
        assert_eq!(shards.len(), 1);
        let merged = merge_shards(shards);
        assert_eq!(merged.corpus, vec![vec![ip(1)]]);
        assert_eq!(merged.counts, vec![(ip(1), 1)]);
    }
}
