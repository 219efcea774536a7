//! The trained embedding: a vocabulary plus one dense vector per word.

use crate::vocab::{TokenId, Vocab};
use darkvec_ml::knn::AllRowsKnn;
use darkvec_ml::vectors::Matrix;
use darkvec_types::codec::Reader;
use std::fmt::Display;
use std::hash::Hash;
use std::path::Path;
use std::str::FromStr;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// An embedding matrix keyed by words of type `W`.
///
/// Rows are stored row-major in a flat `Vec<f32>` indexed by
/// [`TokenId`]; lookups by word go through the vocabulary index.
#[derive(Debug)]
pub struct Embedding<W> {
    vocab: Vocab<W>,
    vectors: Vec<f32>,
    dim: usize,
    /// The exact all-rows kNN scan of these rows while a consumer holds
    /// it (see [`Embedding::knn_scan`]). Weak: the embedding itself never
    /// keeps a scan alive.
    knn: Mutex<Weak<AllRowsKnn>>,
}

/// A clone starts with no shared scan of its own.
impl<W> Clone for Embedding<W>
where
    Vocab<W>: Clone,
{
    fn clone(&self) -> Self {
        Embedding {
            vocab: self.vocab.clone(),
            vectors: self.vectors.clone(),
            dim: self.dim,
            knn: Mutex::default(),
        }
    }
}

impl<W: Eq + Hash + Clone + Ord> Embedding<W> {
    /// Assembles an embedding from a vocabulary and its row-major matrix.
    ///
    /// # Panics
    /// Panics if the matrix size does not match `vocab.len() * dim`.
    pub fn from_parts(vocab: Vocab<W>, vectors: Vec<f32>, dim: usize) -> Self {
        assert_eq!(vectors.len(), vocab.len() * dim, "matrix shape mismatch");
        Embedding {
            vocab,
            vectors,
            dim,
            knn: Mutex::default(),
        }
    }

    /// Number of embedded words.
    pub fn len(&self) -> usize {
        self.vocab.len()
    }

    /// True when no words are embedded.
    pub fn is_empty(&self) -> bool {
        self.vocab.is_empty()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The vocabulary backing this embedding.
    pub fn vocab(&self) -> &Vocab<W> {
        &self.vocab
    }

    /// The full row-major matrix.
    pub fn vectors(&self) -> &[f32] {
        &self.vectors
    }

    /// The vector of a word, if embedded.
    pub fn get(&self, word: &W) -> Option<&[f32]> {
        self.vocab.id(word).map(|id| self.row(id))
    }

    /// The vector behind a token id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn row(&self, id: TokenId) -> &[f32] {
        let i = id as usize * self.dim;
        &self.vectors[i..i + self.dim]
    }

    /// Cosine similarity between two embedded words.
    /// `None` if either is out of vocabulary.
    pub fn cosine(&self, a: &W, b: &W) -> Option<f32> {
        Some(cosine(self.get(a)?, self.get(b)?))
    }

    /// The `topn` nearest words to `word` by cosine similarity, excluding
    /// the word itself, sorted by decreasing similarity.
    pub fn most_similar(&self, word: &W, topn: usize) -> Vec<(W, f32)> {
        let Some(target_id) = self.vocab.id(word) else {
            return Vec::new();
        };
        let target = self.row(target_id);
        let mut sims: Vec<(TokenId, f32)> = (0..self.len() as TokenId)
            .filter(|&id| id != target_id)
            .map(|id| (id, cosine(target, self.row(id))))
            .collect();
        // A NaN similarity (corrupt row) must not make the order
        // input-dependent or float to the top of the list; rank it below
        // every finite similarity, ties broken by token id.
        let rank = |x: f32| if x.is_nan() { f32::NEG_INFINITY } else { x };
        sims.sort_by(|a, b| rank(b.1).total_cmp(&rank(a.1)).then_with(|| a.0.cmp(&b.0)));
        sims.truncate(topn);
        sims.into_iter()
            .map(|(id, s)| (self.vocab.word(id).clone(), s))
            .collect()
    }

    /// The exact all-rows kNN scan of these rows at `k`
    /// ([`AllRowsKnn::scan`], `threads` as there): a live scan at `k` that
    /// another consumer holds, else a new one.
    ///
    /// The embedding keeps only a weak handle. A new scan fills it when no
    /// scan is live, so the first consumer owns the shared scan and it
    /// lives exactly as long as someone holds the returned `Arc`. The rows
    /// never change, so a live scan is always a scan of them.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn knn_scan(&self, k: usize, threads: usize) -> Arc<AllRowsKnn> {
        self.shared_scan(k, threads, |scan| scan.k() == k)
    }

    /// [`Embedding::knn_scan`] for consumers that read only the first `k`
    /// entries of each list: a live scan at a larger k serves them when
    /// its prefixes are exact ([`AllRowsKnn::has_prefix`]).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn knn_prefix_scan(&self, k: usize, threads: usize) -> Arc<AllRowsKnn> {
        self.shared_scan(k, threads, |scan| scan.has_prefix(k))
    }

    fn shared_scan(
        &self,
        k: usize,
        threads: usize,
        serves: impl Fn(&AllRowsKnn) -> bool,
    ) -> Arc<AllRowsKnn> {
        if let Some(live) = self.knn_slot().upgrade().filter(|scan| serves(scan)) {
            return live;
        }
        let matrix = Matrix::new(&self.vectors, self.len(), self.dim);
        let scan = Arc::new(AllRowsKnn::scan(matrix, k, threads));
        let mut slot = self.knn_slot();
        if slot.strong_count() == 0 {
            *slot = Arc::downgrade(&scan);
        }
        scan
    }

    /// The handle's lock. A panic while it was held cannot leave the slot
    /// invalid (it holds a `Weak`, live or dead), so a poisoned lock is
    /// recovered rather than passed on.
    fn knn_slot(&self) -> MutexGuard<'_, Weak<AllRowsKnn>> {
        self.knn.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Cosine similarity of two equal-length vectors; 0 when either is zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let (mut dot, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Binary serialisation ("DKVE" + version): word strings are written with
/// a u16 length prefix, vectors as little-endian f32.
const MAGIC: &[u8; 4] = b"DKVE";
const VERSION: u8 = 1;

impl<W: Eq + Hash + Clone + Ord + Display + FromStr> Embedding<W> {
    /// Encodes the embedding to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.len() * (self.dim * 4 + 16));
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&(self.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(self.dim as u32).to_le_bytes());
        for id in 0..self.len() as TokenId {
            let w = self.vocab.word(id).to_string();
            buf.extend_from_slice(&(w.len() as u16).to_le_bytes());
            buf.extend_from_slice(w.as_bytes());
            buf.extend_from_slice(&self.vocab.count(id).to_le_bytes());
            for &v in self.row(id) {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    /// Decodes an embedding from bytes produced by [`Embedding::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(buf);
        if r.bytes(4)? != MAGIC {
            return Err("bad magic".into());
        }
        if r.u8()? != VERSION {
            return Err("unsupported version".into());
        }
        let n = r.u32()?;
        let dim = r.u32()? as usize;
        // Every record is at least 2 (length prefix) + 8 (count) + dim*4
        // bytes, so a corrupt header cannot demand more memory than the
        // buffer could possibly encode.
        let n = r.count(n, dim.saturating_mul(4).saturating_add(10))?;
        let mut pairs: Vec<(W, u64)> = Vec::with_capacity(n);
        let mut words = Vec::with_capacity(n);
        let mut vectors = Vec::with_capacity(n * dim);
        for _ in 0..n {
            let wlen = r.u16()?;
            let s = std::str::from_utf8(r.bytes(wlen.into())?).map_err(|e| e.to_string())?;
            let w: W = s.parse().map_err(|_| format!("unparsable word {s:?}"))?;
            words.push(w.clone());
            pairs.push((w, r.u64()?));
            for _ in 0..dim {
                vectors.push(r.f32()?);
            }
        }
        r.finish()?;
        // Rebuild the vocabulary directly from the recorded counts; the
        // re-rank assigns the same ids as the original build (same counts,
        // same tie-break), so reorder the rows accordingly to be safe.
        let vocab = Vocab::from_counts(pairs)?;
        let mut reordered = vec![0.0f32; vectors.len()];
        for (orig_id, w) in words.iter().enumerate() {
            let new_id = vocab.id(w).ok_or("vocab rebuild lost a word")? as usize;
            reordered[new_id * dim..(new_id + 1) * dim]
                .copy_from_slice(&vectors[orig_id * dim..(orig_id + 1) * dim]);
        }
        Ok(Embedding::from_parts(vocab, reordered, dim))
    }

    /// Saves to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Loads from a file.
    pub fn load<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let data = std::fs::read(path)?;
        Self::from_bytes(&data[..])
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Embedding<String> {
        let corpus = [
            vec!["x".to_string(), "x".to_string(), "y".to_string()],
            vec!["z".to_string(), "x".to_string()],
        ];
        let vocab = Vocab::build(corpus.iter().map(|s| s.iter()), 1);
        // ids: x=0 (3), y/z tie broken by order: y=1, z=2
        let vectors = vec![
            1.0, 0.0, // x
            0.0, 1.0, // y
            1.0, 1.0, // z
        ];
        Embedding::from_parts(vocab, vectors, 2)
    }

    #[test]
    fn get_and_row() {
        let e = sample();
        assert_eq!(e.get(&"x".to_string()).unwrap(), &[1.0, 0.0]);
        assert_eq!(e.get(&"nope".to_string()), None);
        assert_eq!(e.dim(), 2);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn cosine_values() {
        let e = sample();
        assert!((e.cosine(&"x".into(), &"y".into()).unwrap() - 0.0).abs() < 1e-6);
        let xz = e.cosine(&"x".into(), &"z".into()).unwrap();
        assert!((xz - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-6);
        assert_eq!(e.cosine(&"x".into(), &"nope".into()), None);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn most_similar_sorted_and_excludes_self() {
        let e = sample();
        let sims = e.most_similar(&"x".to_string(), 10);
        assert_eq!(sims.len(), 2);
        assert_eq!(sims[0].0, "z");
        assert!(sims[0].1 > sims[1].1);
        assert!(e.most_similar(&"nope".to_string(), 3).is_empty());
    }

    #[test]
    fn bytes_round_trip() {
        let e = sample();
        let back = Embedding::<String>::from_bytes(&e.to_bytes()[..]).unwrap();
        assert_eq!(back.len(), e.len());
        assert_eq!(back.dim(), e.dim());
        for w in ["x", "y", "z"] {
            assert_eq!(back.get(&w.to_string()), e.get(&w.to_string()), "word {w}");
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Embedding::<String>::from_bytes(&b"oops"[..]).is_err());
        let mut good = sample().to_bytes();
        good.truncate(good.len() - 2);
        assert!(Embedding::<String>::from_bytes(&good[..]).is_err());
    }

    /// Fuzz-style: truncating a valid model at *every* byte boundary must
    /// produce a clean error — no panic, no partial model.
    #[test]
    fn from_bytes_fails_cleanly_at_every_truncation_point() {
        let good = sample().to_bytes();
        for cut in 0..good.len() {
            let r = Embedding::<String>::from_bytes(&good[..cut]);
            assert!(r.is_err(), "truncation at byte {cut}/{} parsed", good.len());
        }
        assert!(Embedding::<String>::from_bytes(&good[..]).is_ok());
    }

    /// Corrupt headers promising absurd sizes must be rejected before any
    /// large allocation (a corrupt cache file must not abort the process).
    #[test]
    fn from_bytes_rejects_implausible_headers() {
        let mut huge_n = sample().to_bytes();
        huge_n[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Embedding::<String>::from_bytes(&huge_n[..]).is_err());
        let mut huge_dim = sample().to_bytes();
        huge_dim[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Embedding::<String>::from_bytes(&huge_dim[..]).is_err());
    }

    /// Regression: a NaN row must not make `most_similar` ordering
    /// input-dependent or panic — NaN sorts below every finite similarity.
    #[test]
    fn most_similar_is_stable_with_nan_rows() {
        let corpus = [vec![
            "a".to_string(),
            "b".to_string(),
            "c".to_string(),
            "d".to_string(),
        ]];
        let vocab = Vocab::build(corpus.iter().map(|s| s.iter()), 1);
        let vectors = vec![
            1.0,
            0.0, // a
            f32::NAN,
            f32::NAN, // b: corrupt row
            1.0,
            0.1, // c
            0.0,
            1.0, // d
        ];
        let e = Embedding::from_parts(vocab, vectors, 2);
        let sims = e.most_similar(&"a".to_string(), 10);
        assert_eq!(sims.len(), 3);
        // Finite similarities first (c closest, then d), NaN last.
        assert_eq!(sims[0].0, "c");
        assert_eq!(sims[1].0, "d");
        assert_eq!(sims[2].0, "b");
        assert!(sims[2].1.is_nan());
    }

    #[test]
    fn knn_scan_is_shared_while_held_and_freed_with_its_holders() {
        let e = sample();
        let first = e.knn_scan(2, 1);
        assert!(Arc::ptr_eq(&first, &e.knn_scan(2, 1)));
        // Finite rows: a shorter prefix reader shares the scan.
        assert!(Arc::ptr_eq(&first, &e.knn_prefix_scan(1, 1)));
        // An exact-k reader at another k scans on its own and leaves the
        // handle to the first scan.
        let other = e.knn_scan(1, 1);
        assert!(!Arc::ptr_eq(&first, &other));
        assert!(Arc::ptr_eq(&first, &e.knn_prefix_scan(1, 1)));
        // A clone's handle starts empty.
        assert!(!Arc::ptr_eq(&first, &e.clone().knn_scan(2, 1)));
        drop((first, other));
        assert_eq!(e.knn_slot().strong_count(), 0, "the embedding kept a scan");
    }

    #[test]
    fn non_finite_rows_share_only_a_scan_at_the_same_k() {
        let mut vectors = sample().vectors().to_vec();
        vectors[2] = f32::NAN;
        let e = Embedding::from_parts(sample().vocab().clone(), vectors, 2);
        let scan = e.knn_scan(2, 1);
        assert!(Arc::ptr_eq(&scan, &e.knn_prefix_scan(2, 1)));
        assert!(!Arc::ptr_eq(&scan, &e.knn_prefix_scan(1, 1)));
    }

    #[test]
    fn a_poisoned_scan_handle_is_recovered() {
        let e = sample();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = e.knn.lock();
                panic!("poison the scan handle");
            });
            assert!(holder.join().is_err());
        });
        assert!(e.knn.is_poisoned());
        let scan = e.knn_scan(2, 1);
        assert!(Arc::ptr_eq(&scan, &e.knn_prefix_scan(1, 1)));
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_parts_checks_shape() {
        let vocab: Vocab<String> =
            Vocab::build([vec!["a".to_string()]].iter().map(|s| s.iter()), 1);
        Embedding::from_parts(vocab, vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn file_round_trip() {
        let e = sample();
        let dir = std::env::temp_dir().join("darkvec-w2v-emb-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("emb.bin");
        e.save(&path).unwrap();
        let back = Embedding::<String>::load(&path).unwrap();
        assert_eq!(back.get(&"x".to_string()), e.get(&"x".to_string()));
        std::fs::remove_file(&path).ok();
    }
}
