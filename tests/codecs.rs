//! Decode-fuzz suite and pinned formats for every public binary decoder:
//! DKVT traces, DKVE embeddings, DKVM models, the service map, DKVC day
//! corpora and the serve protocol's requests and responses.
//!
//! * **Pins.** One fixed example of each format is pinned as exact bytes.
//!   An encoder that moves a byte fails here; for the service map that
//!   would also orphan every artifact cache, whose keys hash its bytes.
//! * **Cases.** For each decoder: every truncation fails, one appended
//!   byte fails, every record count or length raised or lowered by one
//!   fails, and arbitrary bytes and every single-bit flip of the pins
//!   never panic.
//! * **Allocation bound.** A counting global allocator checks that one
//!   decode requests at most 16 × the input length + 64 KiB, so no
//!   decoded count can size an allocation the input cannot back.

use darkvec::cache::fnv1a64;
use darkvec::corpus::{corpus_from_bytes, corpus_to_bytes, CorpusStats};
use darkvec::protocol::{
    decode_request, decode_response, encode_request, encode_response, AlertInfo, ClassifyReply,
    Request, Response, StatusReply,
};
use darkvec::{ServiceMap, TrainedModel};
use darkvec_types::stats::Counter;
use darkvec_types::{io, Ipv4, Packet, PortKey, Protocol, Timestamp, Trace};
use darkvec_w2v::{Embedding, TrainStats, Vocab};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes each thread asks the allocator for: every `alloc`
/// by its size, every `realloc` by its new size. Frees do not subtract,
/// so the tally bounds the peak from above.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates (which would recurse into the allocator).
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = REQUESTED.try_with(|r| r.set(r.get().saturating_add(bytes)));
}

fn requested() -> usize {
    REQUESTED.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally only reads sizes.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `unsafe` as `GlobalAlloc` declares it; the body below
    // forwards under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller meets `alloc`'s contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `unsafe` as `GlobalAlloc` declares it; the body below
    // forwards under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller meets `alloc_zeroed`'s contract, passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `unsafe` as `GlobalAlloc` declares it; the body below
    // forwards under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `unsafe` as `GlobalAlloc` declares it; the body below
    // forwards under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller meets `realloc`'s contract, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs one decode and checks what it asked the allocator for.
fn measured<T>(what: &str, input: &[u8], decode: impl FnOnce() -> T) -> T {
    let before = requested();
    let out = decode();
    let asked = requested() - before;
    let bound = 16 * input.len() + 64 * 1024;
    assert!(
        asked <= bound,
        "{what}: decoding {} bytes requested {asked} bytes (bound {bound})",
        input.len()
    );
    out
}

/// Under Miri every loop over bits, cuts and cases takes this stride.
const STRIDE: usize = if cfg!(miri) { 37 } else { 1 };

fn ip(d: u8) -> Ipv4 {
    Ipv4::new(10, 0, 0, d)
}

fn trace() -> Trace {
    Trace::new(vec![
        Packet::new(Timestamp(10), ip(1), 445, Protocol::Tcp),
        Packet::mirai(Timestamp(20), ip(2), 23),
        Packet::new(Timestamp(30), ip(3), 0, Protocol::Icmp),
    ])
}

fn embedding() -> Embedding<Ipv4> {
    let vocab = Vocab::from_counts(vec![(ip(1), 3), (ip(2), 2), (ip(3), 1)]).expect("vocab");
    Embedding::from_parts(vocab, vec![1.0, -0.5, 0.25, 2.0, -1.5, 0.0], 2)
}

fn services() -> ServiceMap {
    let mut ports = Counter::new();
    ports.add_n(PortKey::tcp(23), 100);
    ports.add_n(PortKey::tcp(445), 50);
    ports.add_n(PortKey::udp(53), 10);
    ServiceMap::auto(&ports, 2)
}

fn model() -> TrainedModel {
    TrainedModel {
        embedding: embedding(),
        services: services(),
        corpus: CorpusStats {
            sentences: 4,
            tokens: 6,
            max_len: 3,
        },
        skipgrams: 12,
        train: TrainStats {
            vocab_size: 3,
            corpus_tokens: 6,
            pairs_trained: 24,
            elapsed: std::time::Duration::ZERO,
        },
        config_hash: 0x0123_4567_89ab_cdef,
    }
}

fn corpus() -> Vec<Vec<Ipv4>> {
    vec![vec![ip(1), ip(2), ip(1)], vec![], vec![ip(3)]]
}

fn classify_request() -> Request {
    Request::Classify {
        ip: ip(9),
        ports: vec![(23, Protocol::Tcp), (53, Protocol::Udp)],
        k: 5,
    }
}

fn status_response() -> Response {
    Response::Status(StatusReply {
        ready: true,
        version: 3,
        checksum: 0xfeed_f00d,
        vocab: 120,
        packets: 4_000,
        days: 4,
        retrains: 2,
        swaps: 2,
        queries: 17,
        errors: 1,
        window_start: 2,
        window_end: 3,
    })
}

fn classify_response() -> Response {
    Response::Classify(ClassifyReply {
        version: 3,
        checksum: 0xfeed_f00d,
        label: "mirai".to_string(),
        confidence: 0.75,
        neighbors: vec![(ip(1), 0.5), (ip(2), -0.25)],
    })
}

fn alerts_response() -> Response {
    Response::Alerts(vec![AlertInfo {
        lineage: 7,
        window_start: 1,
        window_end: 2,
        size: 12,
        regularity: "daily".to_string(),
        top_ports: vec![("23/tcp".to_string(), 0.5), ("445/tcp".to_string(), 0.25)],
    }])
}

/// Decodes and re-encodes: `Some(bytes)` when the input decodes. Only
/// the decode runs under the allocation bound.
type RoundTrip = fn(&[u8]) -> Option<Vec<u8>>;

fn dkvt(b: &[u8]) -> Option<Vec<u8>> {
    let trace = measured("DKVT", b, || io::from_bytes(b)).ok()?;
    Some(io::to_bytes(&trace).to_vec())
}

fn dkve(b: &[u8]) -> Option<Vec<u8>> {
    let e = measured("DKVE", b, || Embedding::<Ipv4>::from_bytes(b)).ok()?;
    Some(e.to_bytes().to_vec())
}

fn dkvm(b: &[u8]) -> Option<Vec<u8>> {
    let m = measured("DKVM", b, || TrainedModel::from_bytes(b)).ok()?;
    Some(m.to_bytes().to_vec())
}

fn service_map(b: &[u8]) -> Option<Vec<u8>> {
    let m = measured("service map", b, || ServiceMap::from_bytes(b)).ok()?;
    Some(m.to_bytes().to_vec())
}

fn dkvc(b: &[u8]) -> Option<Vec<u8>> {
    let c = measured("DKVC", b, || corpus_from_bytes(b)).ok()?;
    Some(corpus_to_bytes(&c).to_vec())
}

fn request(b: &[u8]) -> Option<Vec<u8>> {
    let r = measured("request", b, || decode_request(b)).ok()?;
    Some(encode_request(&r))
}

fn response(b: &[u8]) -> Option<Vec<u8>> {
    let r = measured("response", b, || decode_response(b)).ok()?;
    Some(encode_response(&r))
}

/// One pinned example of one format.
struct Format {
    name: &'static str,
    bytes: Vec<u8>,
    /// The exact bytes, as lowercase hex.
    pin: &'static str,
    decode: RoundTrip,
    /// Bytes of fixed header (magic and version, or the opcode) that the
    /// arbitrary-bytes case keeps in front of its noise.
    header: usize,
    /// `(offset, width)` of every record count and length field.
    counts: Vec<(usize, usize)>,
    /// A strict prefix that is itself a valid message, if any.
    legal_cut: Option<usize>,
}

fn format(
    name: &'static str,
    bytes: Vec<u8>,
    pin: &'static str,
    decode: RoundTrip,
    header: usize,
    counts: &[(usize, usize)],
) -> Format {
    Format {
        name,
        bytes,
        pin,
        decode,
        header,
        counts: counts.to_vec(),
        legal_cut: None,
    }
}

/// The service map's count and length fields, for a map laid out as
/// `services()` is, starting at `base`.
fn service_map_counts(base: usize) -> Vec<(usize, usize)> {
    // Names: a u32 count, then "23/tcp", "445/tcp" and "Other", each
    // behind a u16 length; exact entries: a u32 count at 28.
    [(0, 4), (4, 2), (12, 2), (21, 2), (28, 4)]
        .iter()
        .map(|&(off, width)| (base + off, width))
        .collect()
}

fn formats() -> Vec<Format> {
    let svc = services().to_bytes().to_vec();
    // DKVM: 69-byte header, then the service map and the embedding as
    // u32-length-prefixed sections.
    let emb_at = 69 + 4 + svc.len() + 4;
    let mut dkvm_counts = vec![(69, 4), (emb_at - 4, 4)];
    dkvm_counts.extend(service_map_counts(73));
    dkvm_counts.extend([
        (emb_at + 5, 4),
        (emb_at + 13, 2),
        (emb_at + 39, 2),
        (emb_at + 65, 2),
    ]);
    let status = encode_response(&status_response());
    let status_len = status.len();
    vec![
        format(
            "DKVT trace",
            io::to_bytes(&trace()).to_vec(),
            PIN_DKVT,
            dkvt,
            5,
            &[(5, 8)],
        ),
        // Records: u16 word length, the word, u64 count, dim × f32.
        format(
            "DKVE embedding",
            embedding().to_bytes().to_vec(),
            PIN_DKVE,
            dkve,
            5,
            &[(5, 4), (13, 2), (39, 2), (65, 2)],
        ),
        format(
            "DKVM model",
            model().to_bytes().to_vec(),
            PIN_DKVM,
            dkvm,
            5,
            &dkvm_counts,
        ),
        format(
            "service map",
            svc,
            PIN_SERVICE_MAP,
            service_map,
            0,
            &service_map_counts(0),
        ),
        format(
            "DKVC corpus",
            corpus_to_bytes(&corpus()).to_vec(),
            PIN_DKVC,
            dkvc,
            5,
            &[(5, 4), (9, 4), (25, 4), (29, 4)],
        ),
        format(
            "Ping request",
            encode_request(&Request::Ping),
            "01",
            request,
            1,
            &[],
        ),
        format(
            "Status request",
            encode_request(&Request::Status),
            "02",
            request,
            1,
            &[],
        ),
        format(
            "Classify request",
            encode_request(&classify_request()),
            PIN_CLASSIFY_REQUEST,
            request,
            1,
            &[(7, 2)],
        ),
        format(
            "Shutdown request",
            encode_request(&Request::Shutdown),
            "04",
            request,
            1,
            &[],
        ),
        format(
            "Alerts request",
            encode_request(&Request::Alerts),
            "05",
            request,
            1,
            &[],
        ),
        format(
            "Pong response",
            encode_response(&Response::Pong),
            "81",
            response,
            1,
            &[],
        ),
        Format {
            // The reply minus its 16-byte window tail is the pre-tail
            // wire format, which still decodes.
            legal_cut: Some(status_len - 16),
            ..format(
                "Status response",
                status,
                PIN_STATUS_RESPONSE,
                response,
                1,
                &[],
            )
        },
        format(
            "Classify response",
            encode_response(&classify_response()),
            PIN_CLASSIFY_RESPONSE,
            response,
            1,
            &[(17, 2), (28, 2)],
        ),
        format(
            "Error response",
            encode_response(&Response::Error("no model trained yet".to_string())),
            PIN_ERROR_RESPONSE,
            response,
            1,
            &[(1, 2)],
        ),
        format(
            "ShutdownAck response",
            encode_response(&Response::ShutdownAck),
            "85",
            response,
            1,
            &[],
        ),
        // One alert: three u64, a u32 size, u8-length regularity text,
        // u8 port count, per port u8-length name and f32 share.
        format(
            "Alerts response",
            encode_response(&alerts_response()),
            PIN_ALERTS_RESPONSE,
            response,
            1,
            &[(1, 1), (30, 1), (36, 1), (37, 1), (48, 1)],
        ),
    ]
}

const PIN_DKVT: &str = concat!(
    "444b56540103000000000000000a000000000000000100000abd010000140000",
    "00000000000200000a170000011e000000000000000300000a00000200",
);
const PIN_DKVE: &str = concat!(
    "444b5645010300000002000000080031302e302e302e31030000000000000000",
    "00803f000000bf080031302e302e302e3202000000000000000000803e000000",
    "40080031302e302e302e3301000000000000000000c0bf00000000",
);
const PIN_DKVM: &str = concat!(
    "444b564d01efcdab89674523010c000000000000000400000000000000060000",
    "0000000000030000000000000003000000000000000600000000000000180000",
    "00000000003300000003000000060032332f74637007003434352f7463700500",
    "4f746865720200000017000000000000bd01000100000000020000005b000000",
    "444b5645010300000002000000080031302e302e302e31030000000000000000",
    "00803f000000bf080031302e302e302e3202000000000000000000803e000000",
    "40080031302e302e302e3301000000000000000000c0bf00000000",
);
const PIN_SERVICE_MAP: &str = concat!(
    "03000000060032332f74637007003434352f74637005004f7468657202000000",
    "17000000000000bd0100010000000002000000",
);
const PIN_DKVC: &str = concat!(
    "444b56430103000000030000000100000a0200000a0100000a00000000010000",
    "000300000a",
);
const PIN_CLASSIFY_REQUEST: &str = "030900000a05000200170000350001";
const PIN_STATUS_RESPONSE: &str = concat!(
    "820103000000000000000df0edfe0000000078000000a00f0000000000000400",
    "0000020000000200000011000000000000000100000000000000020000000000",
    "00000300000000000000",
);
const PIN_CLASSIFY_RESPONSE: &str = concat!(
    "8303000000000000000df0edfe0000000005006d697261690000403f02000100",
    "000a0000003f0200000a000080be",
);
const PIN_ERROR_RESPONSE: &str = "8414006e6f206d6f64656c20747261696e656420796574";
const PIN_ALERTS_RESPONSE: &str = concat!(
    "86010700000000000000010000000000000002000000000000000c0000000564",
    "61696c79020632332f7463700000003f073434352f7463700000803e",
);

/// The domain-knowledge service map is the default service definition,
/// so its bytes sit in nearly every cache key: pin their length and hash.
const DOMAIN_MAP_LEN: usize = 869;
const DOMAIN_MAP_FNV: u64 = 0x5acd_65d5_84cc_0492;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn pinned_examples_are_byte_exact_and_round_trip() {
    let mut moved = Vec::new();
    for f in formats() {
        if hex(&f.bytes) != f.pin {
            moved.push(format!("{}: {}", f.name, hex(&f.bytes)));
        }
        assert_eq!(
            (f.decode)(&f.bytes).as_deref(),
            Some(&f.bytes[..]),
            "{} does not round-trip",
            f.name
        );
    }
    assert!(moved.is_empty(), "encoders moved:\n{}", moved.join("\n"));
}

#[test]
fn domain_knowledge_map_bytes_are_pinned() {
    let bytes = ServiceMap::domain_knowledge().to_bytes().to_vec();
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (DOMAIN_MAP_LEN, DOMAIN_MAP_FNV),
        "domain-knowledge map bytes moved"
    );
    assert_eq!(service_map(&bytes).as_deref(), Some(&bytes[..]));
}

#[test]
fn every_truncation_fails() {
    for f in formats() {
        for cut in (0..f.bytes.len()).step_by(STRIDE) {
            if f.legal_cut == Some(cut) {
                continue;
            }
            assert!(
                (f.decode)(&f.bytes[..cut]).is_none(),
                "{} decoded from its first {cut} of {} bytes",
                f.name,
                f.bytes.len()
            );
        }
    }
}

#[test]
fn an_appended_byte_fails() {
    for f in formats() {
        for extra in [0x00, 0xff] {
            let mut longer = f.bytes.clone();
            longer.push(extra);
            assert!(
                (f.decode)(&longer).is_none(),
                "{} decoded with a trailing {extra:#04x}",
                f.name
            );
        }
    }
}

#[test]
fn every_count_raised_or_lowered_by_one_fails() {
    for f in formats() {
        for &(off, width) in &f.counts {
            let mut raw = [0u8; 8];
            raw[..width].copy_from_slice(&f.bytes[off..off + width]);
            let value = u64::from_le_bytes(raw);
            for changed in [value.wrapping_add(1), value.wrapping_sub(1)] {
                let mut bent = f.bytes.clone();
                bent[off..off + width].copy_from_slice(&changed.to_le_bytes()[..width]);
                assert!(
                    (f.decode)(&bent).is_none(),
                    "{} decoded with the {width}-byte count at {off} set from {value} to {}",
                    f.name,
                    changed & (u64::MAX >> (64 - 8 * width))
                );
            }
        }
    }
}

#[test]
fn every_single_bit_flip_never_panics() {
    let mut formats = formats();
    let domain = ServiceMap::domain_knowledge().to_bytes().to_vec();
    formats.push(format("domain map", domain, "", service_map, 0, &[]));
    for f in formats {
        for bit in (0..f.bytes.len() * 8).step_by(STRIDE) {
            let mut flipped = f.bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = (f.decode)(&flipped);
        }
    }
}

/// Counts the input cannot back: the smallest service map whose exact
/// entry count is `u32::MAX`, and the smallest DKVM model wrapping it.
#[test]
fn hostile_counts_allocate_within_the_bound() {
    let map = [0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff];
    assert_eq!(service_map(&map), None);
    let mut model = b"DKVM\x01".to_vec();
    model.resize(69, 0);
    model.extend_from_slice(&8u32.to_le_bytes());
    model.extend_from_slice(&map);
    model.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(model.len(), 85);
    assert_eq!(dkvm(&model), None);
}

/// Large valid inputs stay far inside the 16× bound: their allocations
/// are a small multiple of their own size.
#[test]
fn valid_inputs_allocate_a_small_multiple_of_their_size() {
    let n: u8 = if cfg!(miri) { 20 } else { 250 };
    let ips = (0..n).flat_map(|a| (0..n).map(move |b| Ipv4::new(10, 1, a, b)));
    let packets = ips
        .clone()
        .enumerate()
        .map(|(i, src)| Packet::new(Timestamp(i as u64), src, 23, Protocol::Tcp))
        .collect();
    let vocab = Vocab::from_counts(ips.clone().zip(1..).collect()).expect("vocab");
    let rows = vocab.len();
    type Decodes = fn(&[u8]) -> bool;
    let inputs: [(&str, Vec<u8>, Decodes); 3] = [
        ("DKVT", io::to_bytes(&Trace::new(packets)).to_vec(), |b| {
            io::from_bytes(b).is_ok()
        }),
        (
            "DKVC of empty sentences",
            corpus_to_bytes(&vec![Vec::new(); rows]).to_vec(),
            |b| corpus_from_bytes(b).is_ok(),
        ),
        (
            "DKVE at dim 1",
            Embedding::from_parts(vocab, vec![0.5; rows], 1)
                .to_bytes()
                .to_vec(),
            |b| Embedding::<Ipv4>::from_bytes(b).is_ok(),
        ),
    ];
    for (what, bytes, decodes) in inputs {
        let before = requested();
        assert!(decodes(&bytes), "{what} does not decode");
        let asked = requested() - before;
        assert!(
            asked <= 6 * bytes.len(),
            "{what}: {asked} bytes requested for a {}-byte input",
            bytes.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

    /// Noise, alone and behind each format's fixed header, never panics
    /// and never allocates past the bound.
    #[test]
    fn arbitrary_bytes_never_panic(noise in prop::collection::vec(any::<u8>(), 0..300)) {
        for f in formats() {
            let _ = (f.decode)(&noise);
            let mut framed = f.bytes[..f.header].to_vec();
            framed.extend_from_slice(&noise);
            let _ = (f.decode)(&framed);
        }
    }
}
