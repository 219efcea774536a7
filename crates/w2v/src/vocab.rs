//! Vocabulary construction with minimum-count filtering.
//!
//! DarkVec only embeds *active* senders (≥ 10 packets in the training
//! period, §3.1); in Word2Vec terms that is the vocabulary `min_count`.

use std::collections::HashMap;
use std::hash::Hash;

/// A token id: index into the vocabulary, dense in `0..len`.
pub type TokenId = u32;

/// Maps words to dense token ids and keeps their corpus frequencies.
///
/// Ids are assigned by decreasing frequency (ties broken by word order), the
/// convention of `word2vec.c`, which keeps the hottest rows of the parameter
/// matrices adjacent in memory.
#[derive(Clone, Debug)]
pub struct Vocab<W> {
    words: Vec<W>,
    counts: Vec<u64>,
    index: HashMap<W, TokenId>,
    total: u64,
}

impl<W: Eq + Hash + Clone + Ord> Vocab<W> {
    /// Builds a vocabulary from a corpus of sentences, dropping words that
    /// appear fewer than `min_count` times.
    pub fn build<'a, I, S>(corpus: I, min_count: u64) -> Self
    where
        I: IntoIterator<Item = S>,
        S: IntoIterator<Item = &'a W>,
        W: 'a,
    {
        let mut raw: HashMap<W, u64> = HashMap::new();
        for sentence in corpus {
            for w in sentence {
                *raw.entry(w.clone()).or_insert(0) += 1;
            }
        }
        let mut kept: Vec<(W, u64)> = raw
            .into_iter()
            .filter(|&(_, c)| c >= min_count.max(1))
            .collect();
        kept.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        let mut words = Vec::with_capacity(kept.len());
        let mut counts = Vec::with_capacity(kept.len());
        let mut index = HashMap::with_capacity(kept.len());
        let mut total = 0;
        for (id, (w, c)) in kept.into_iter().enumerate() {
            index.insert(w.clone(), id as TokenId);
            words.push(w);
            counts.push(c);
            total += c;
        }
        Vocab {
            words,
            counts,
            index,
            total,
        }
    }

    /// Rebuilds a vocabulary from explicit `(word, count)` pairs — the
    /// deserialisation path of [`crate::Embedding::from_bytes`]. Words are
    /// re-ranked by `(count desc, word asc)`, the same order [`Vocab::build`]
    /// assigns, so token ids are reproducible regardless of input order.
    /// Returns an error (instead of panicking or silently merging) on
    /// duplicate words, zero counts or counts whose sum overflows `u64`.
    pub fn from_counts(pairs: Vec<(W, u64)>) -> Result<Self, String> {
        let mut kept = pairs;
        if kept.iter().any(|&(_, c)| c == 0) {
            return Err("vocabulary entry with zero count".to_string());
        }
        kept.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut words = Vec::with_capacity(kept.len());
        let mut counts = Vec::with_capacity(kept.len());
        let mut index = HashMap::with_capacity(kept.len());
        let mut total = 0u64;
        for (id, (w, c)) in kept.into_iter().enumerate() {
            if index.insert(w.clone(), id as TokenId).is_some() {
                return Err("duplicate word in vocabulary".to_string());
            }
            words.push(w);
            counts.push(c);
            // Counts come from decoded files; a sum past u64 is corrupt.
            total = total
                .checked_add(c)
                .ok_or_else(|| "vocabulary counts overflow u64".to_string())?;
        }
        Ok(Vocab {
            words,
            counts,
            index,
            total,
        })
    }

    /// Number of distinct retained words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when no word survived the `min_count` filter.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Total corpus occurrences of retained words.
    pub fn total_count(&self) -> u64 {
        self.total
    }

    /// The token id of `word`, if retained.
    pub fn id(&self, word: &W) -> Option<TokenId> {
        self.index.get(word).copied()
    }

    /// The word behind a token id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn word(&self, id: TokenId) -> &W {
        &self.words[id as usize]
    }

    /// The corpus frequency of a token id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn count(&self, id: TokenId) -> u64 {
        self.counts[id as usize]
    }

    /// All frequencies, indexed by token id.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// All retained words, indexed by token id.
    pub fn words(&self) -> &[W] {
        &self.words
    }

    /// Encodes a sentence, silently dropping out-of-vocabulary words (the
    /// behaviour of Gensim when `min_count` prunes a word).
    pub fn encode(&self, sentence: &[W]) -> Vec<TokenId> {
        sentence.iter().filter_map(|w| self.id(w)).collect()
    }

    /// Encodes a whole corpus.
    pub fn encode_corpus(&self, corpus: &[Vec<W>]) -> Vec<Vec<TokenId>> {
        corpus.iter().map(|s| self.encode(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Vec<&'static str>> {
        vec![vec!["a", "b", "a", "c"], vec!["a", "b", "d"], vec!["a"]]
    }

    fn build(min: u64) -> Vocab<&'static str> {
        let c = corpus();
        Vocab::build(c.iter().map(|s| s.iter()), min)
    }

    #[test]
    fn ids_ordered_by_frequency() {
        let v = build(1);
        assert_eq!(v.len(), 4);
        assert_eq!(*v.word(0), "a"); // 4 occurrences
        assert_eq!(*v.word(1), "b"); // 2
        assert_eq!(v.count(0), 4);
        assert_eq!(v.total_count(), 8);
    }

    #[test]
    fn frequency_ties_break_by_word_order() {
        let v = build(1);
        // "c" and "d" both occur once; "c" < "d" so it gets the lower id.
        assert_eq!(*v.word(2), "c");
        assert_eq!(*v.word(3), "d");
    }

    #[test]
    fn min_count_prunes() {
        let v = build(2);
        assert_eq!(v.len(), 2);
        assert!(v.id(&"c").is_none());
        assert_eq!(v.total_count(), 6);
    }

    #[test]
    fn min_count_zero_behaves_like_one() {
        assert_eq!(build(0).len(), build(1).len());
    }

    #[test]
    fn encode_drops_oov() {
        let v = build(2);
        assert_eq!(v.encode(&["a", "c", "b", "zzz"]), vec![0, 1]);
    }

    #[test]
    fn encode_corpus_shape() {
        let v = build(1);
        let enc = v.encode_corpus(&corpus());
        assert_eq!(enc.len(), 3);
        assert_eq!(enc[0].len(), 4);
        assert_eq!(enc[2], vec![0]);
    }

    #[test]
    fn empty_corpus() {
        let v: Vocab<&str> = Vocab::build(std::iter::empty::<&[&str]>(), 1);
        assert!(v.is_empty());
        assert_eq!(v.total_count(), 0);
    }

    #[test]
    fn from_counts_matches_build() {
        let built = build(1);
        let pairs: Vec<(&str, u64)> = vec![("d", 1), ("a", 4), ("c", 1), ("b", 2)];
        let v = Vocab::from_counts(pairs).unwrap();
        assert_eq!(v.len(), built.len());
        assert_eq!(v.total_count(), built.total_count());
        for w in ["a", "b", "c", "d"] {
            assert_eq!(v.id(&w), built.id(&w), "word {w}");
        }
    }

    #[test]
    fn from_counts_rejects_duplicates_and_zero() {
        assert!(Vocab::from_counts(vec![("a", 1u64), ("a", 2)]).is_err());
        assert!(Vocab::from_counts(vec![("a", 0u64)]).is_err());
        assert!(Vocab::from_counts(vec![("a", u64::MAX), ("b", 1)]).is_err());
        assert!(Vocab::<&str>::from_counts(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn id_round_trip() {
        let v = build(1);
        for w in ["a", "b", "c", "d"] {
            let id = v.id(&w).unwrap();
            assert_eq!(*v.word(id), w);
        }
    }
}
