//! Content-addressed artifact cache for the incremental pipeline.
//!
//! Per-day corpora, trained models and kNN neighbour lists are expensive to
//! recompute and fully determined by (configuration, input span, code
//! version). The cache keys each artifact by an FNV-1a hash over exactly
//! that material, so:
//!
//! * a re-run with identical inputs is served entirely from disk (the
//!   `cache.hit` counters in the run manifest prove it);
//! * any change to the config fingerprint, the trace content, or
//!   [`CODE_SALT`] changes every downstream key — stale artifacts are never
//!   served, they are simply never looked up again.
//!
//! Keys chain: a warm-started model's key folds in the *prior model's key*,
//! so the whole per-day sequence is addressed by its full provenance.

// lint: relaxed-ok(hit/miss counters are metrics counters; cache correctness comes from filesystem atomics (tmp+rename), not these)

use darkvec_types::Packet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bumped whenever the semantics of cached artifacts change (format,
/// training loop, corpus construction). Old cache entries then become
/// unreachable rather than wrong.
pub const CODE_SALT: &str = "incremental-v1";

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms and
/// releases (unlike `std::hash`, which is documented as unstable).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental FNV-1a hasher for composing cache keys out of heterogeneous
/// fields. Length-prefixes variable-size fields so concatenation is
/// unambiguous.
#[derive(Clone, Debug)]
pub struct KeyHasher(u64);

impl KeyHasher {
    /// Starts a key already salted with [`CODE_SALT`].
    pub fn new() -> Self {
        let mut h = KeyHasher(0xcbf2_9ce4_8422_2325);
        h.write_bytes(CODE_SALT.as_bytes());
        h
    }

    fn write_raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a variable-length field (length-prefixed).
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.write_raw(&(bytes.len() as u64).to_le_bytes());
        self.write_raw(bytes);
        self
    }

    /// Folds a string field.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_bytes(s.as_bytes())
    }

    /// Folds a fixed-width integer.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_raw(&v.to_le_bytes());
        self
    }

    /// The finished key.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

/// Content hash of a packet span — every field that can influence a
/// downstream artifact (timestamps drive windowing, sources are the words,
/// port/proto pick the service, the fingerprint feeds ground truth).
pub fn hash_packets(packets: &[Packet]) -> u64 {
    let mut h = KeyHasher::new();
    h.write_u64(packets.len() as u64);
    for p in packets {
        h.write_u64(p.ts.0);
        h.write_u64(p.src.0 as u64);
        h.write_u64(p.dst_port as u64);
        h.write_u64(p.proto.tag() as u64);
        h.write_u64(match p.fingerprint {
            darkvec_types::Fingerprint::None => 0,
            darkvec_types::Fingerprint::Mirai => 1,
        });
    }
    h.finish()
}

/// Counters of one cache's lifetime (also mirrored into the global
/// `cache.*` metrics that land in run manifests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads served from disk.
    pub hits: u64,
    /// Loads that found nothing.
    pub misses: u64,
    /// Artifacts written.
    pub stores: u64,
}

/// A directory of content-addressed artifacts, one subdirectory per kind
/// (`corpus/`, `model/`, `knn/`), one file per key.
#[derive(Debug)]
pub struct ArtifactCache {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl ArtifactCache {
    /// Opens (and creates if needed) a cache rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ArtifactCache {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        })
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where an artifact of `kind` under `key` lives (whether or not it
    /// exists yet).
    pub fn path(&self, kind: &str, key: u64) -> PathBuf {
        self.root.join(kind).join(format!("{key:016x}.bin"))
    }

    /// Loads an artifact, counting the hit or miss and recording the
    /// disk-read latency into the `cache.hit_ns` / `cache.miss_ns`
    /// histograms.
    pub fn load(&self, kind: &str, key: u64) -> Option<Vec<u8>> {
        let started = std::time::Instant::now();
        match fs::read(self.path(kind, key)) {
            Ok(bytes) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                darkvec_obs::metrics::counter("cache.hit").add(1);
                darkvec_obs::metrics::counter(&format!("cache.{kind}.hit")).add(1);
                darkvec_obs::metrics::histogram("cache.hit_ns").record_duration(started.elapsed());
                Some(bytes)
            }
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                darkvec_obs::metrics::counter("cache.miss").add(1);
                darkvec_obs::metrics::counter(&format!("cache.{kind}.miss")).add(1);
                darkvec_obs::metrics::histogram("cache.miss_ns").record_duration(started.elapsed());
                None
            }
        }
    }

    /// Stores an artifact atomically (write to a temp file, then rename —
    /// a crashed run never leaves a truncated artifact under a valid key).
    /// Write latency lands in the `cache.store_ns` histogram.
    pub fn store(&self, kind: &str, key: u64, bytes: &[u8]) -> io::Result<()> {
        let started = std::time::Instant::now();
        // Build the directory the same way `path` does instead of calling
        // `Path::parent` — that keeps this function panic-free by
        // construction rather than by an `expect` on path shape.
        let dir = self.root.join(kind);
        let path = dir.join(format!("{key:016x}.bin"));
        fs::create_dir_all(&dir)?;
        let tmp = dir.join(format!("{key:016x}.tmp"));
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, &path)?;
        self.stores.fetch_add(1, Ordering::Relaxed);
        darkvec_obs::metrics::counter("cache.store").add(1);
        darkvec_obs::metrics::histogram("cache.store_ns").record_duration(started.elapsed());
        Ok(())
    }

    /// Lifetime counters of this cache handle.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkvec_types::{Ipv4, Protocol, Timestamp};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("darkvec-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn key_hasher_is_prefix_unambiguous() {
        let k1 = KeyHasher::new().write_str("ab").write_str("c").finish();
        let k2 = KeyHasher::new().write_str("a").write_str("bc").finish();
        assert_ne!(k1, k2);
        let k3 = KeyHasher::new().write_str("ab").write_str("c").finish();
        assert_eq!(k1, k3);
    }

    #[test]
    fn hash_packets_sees_every_field() {
        let base = Packet::new(Timestamp(5), Ipv4(9), 23, Protocol::Tcp);
        let h0 = hash_packets(&[base]);
        let variants = [
            Packet::new(Timestamp(6), Ipv4(9), 23, Protocol::Tcp),
            Packet::new(Timestamp(5), Ipv4(8), 23, Protocol::Tcp),
            Packet::new(Timestamp(5), Ipv4(9), 24, Protocol::Tcp),
            Packet::new(Timestamp(5), Ipv4(9), 23, Protocol::Udp),
            Packet::mirai(Timestamp(5), Ipv4(9), 23),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(h0, hash_packets(&[*v]), "variant {i}");
        }
        assert_ne!(hash_packets(&[]), hash_packets(&[base]));
    }

    #[test]
    fn store_load_round_trip_and_counters() {
        let dir = tmpdir("roundtrip");
        let cache = ArtifactCache::new(&dir).unwrap();
        assert!(cache.load("model", 42).is_none());
        cache.store("model", 42, b"hello").unwrap();
        assert_eq!(cache.load("model", 42).unwrap(), b"hello");
        assert!(cache.load("corpus", 42).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                stores: 1
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latency_histograms_record_cache_io() {
        let dir = tmpdir("latency");
        let cache = ArtifactCache::new(&dir).unwrap();
        let hit = darkvec_obs::metrics::histogram("cache.hit_ns");
        let miss = darkvec_obs::metrics::histogram("cache.miss_ns");
        let store = darkvec_obs::metrics::histogram("cache.store_ns");
        let (h0, m0, s0) = (hit.count(), miss.count(), store.count());
        assert!(cache.load("model", 1).is_none());
        cache.store("model", 1, b"payload").unwrap();
        assert!(cache.load("model", 1).is_some());
        // The histograms are process-wide and other tests in this binary
        // use caches concurrently: each grew by at least this test's one
        // call, and the cache's own counters pin the exact calls.
        assert!(hit.count() - h0 >= 1);
        assert!(miss.count() - m0 >= 1);
        assert!(store.count() - s0 >= 1);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stores: 1
            }
        );
        assert!(store.quantile(0.99) > 0, "store latency is non-zero");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_overwrites_atomically() {
        let dir = tmpdir("overwrite");
        let cache = ArtifactCache::new(&dir).unwrap();
        cache.store("knn", 7, b"one").unwrap();
        cache.store("knn", 7, b"two").unwrap();
        assert_eq!(cache.load("knn", 7).unwrap(), b"two");
        // No temp file left behind.
        let leftovers: Vec<_> = fs::read_dir(dir.join("knn"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
