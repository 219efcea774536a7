//! Wire protocol of the `darkvec serve` daemon.
//!
//! Framing is minimal and explicit: every message — request or response
//! — is one *frame*, a little-endian `u32` payload length followed by
//! exactly that many payload bytes. Frames are capped at [`MAX_FRAME`]
//! so a hostile or broken client cannot make the server allocate
//! unbounded memory from a four-byte header.
//!
//! ```text
//! frame    := len:u32le payload[len]            (len <= MAX_FRAME)
//! request  := 0x01                              Ping
//!           | 0x02                              Status
//!           | 0x03 ip:u32le k:u16le n:u16le     Classify
//!                  (port:u16le proto:u8){n}
//!           | 0x04                              Shutdown
//!           | 0x05                              Alerts
//! response := 0x81                              Pong
//!           | 0x82 ready:u8 version:u64le checksum:u64le vocab:u32le
//!                  packets:u64le days:u32le retrains:u32le swaps:u32le
//!                  queries:u64le errors:u64le
//!                  [window_start:u64le window_end:u64le]
//!                                               Status
//!           | 0x83 version:u64le checksum:u64le
//!                  label_len:u16le label[..] confidence:f32le
//!                  n:u16le (ip:u32le sim:f32le){n}
//!                                               Classify
//!           | 0x84 msg_len:u16le msg[..]        Error
//!           | 0x85                              ShutdownAck
//!           | 0x86 n:u8 alert{n}                Alerts
//! alert    := lineage:u64le window_start:u64le window_end:u64le
//!             size:u32le reg_len:u8 reg[..]
//!             nports:u8 (plen:u8 port[..] share:f32le){nports}
//! ```
//!
//! The bracketed `Status` tail is a protocol-versioned extension: old
//! replies omit it and new decoders default the training window to
//! `(0, 0)`, so a v1 daemon still talks to a v2 client and vice versa.
//!
//! Decoding never panics: payloads are read through the workspace's one
//! length-checked [`Reader`], which fails a short read, sizes nothing
//! from a count the payload cannot back, and rejects trailing bytes;
//! this module adds only the hard caps and tags of its own format. Any
//! malformed input comes back as a [`ProtoError`] the daemon turns into
//! a protocol-level [`Response::Error`] reply (the property tests below
//! feed arbitrary, truncated and oversized bytes through both codecs).

use darkvec_types::codec::{CodecError, Reader};
use darkvec_types::{Ipv4, Protocol};
use std::io::{self, Read, Write};

/// Hard cap on a frame's payload length. Large enough for any reply the
/// daemon produces (a classify reply with the maximum neighbour count is
/// well under 1 KiB), small enough that a garbage length prefix cannot
/// trigger a large allocation.
pub const MAX_FRAME: usize = 64 * 1024;

/// Cap on `(port, protocol)` pairs in one classify request.
pub const MAX_PORTS: usize = 64;

/// Cap on neighbours in one classify reply.
pub const MAX_NEIGHBORS: usize = 256;

/// Cap on alerts in one alerts reply; the daemon keeps only the newest.
pub const MAX_ALERTS: usize = 64;

/// Cap on evidence ports per alert.
pub const MAX_ALERT_PORTS: usize = 8;

/// Cap on the byte length of alert text fields (port names, regularity).
pub const MAX_ALERT_TEXT: usize = 32;

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Daemon state snapshot.
    Status,
    /// Classify a sender: by its embedding row when `ip` is in the
    /// current vocabulary, else by a query vector synthesised from the
    /// services its `ports` map to. `k` is the neighbour count.
    Classify {
        /// Sender to classify.
        ip: Ipv4,
        /// Destination `(port, protocol)` pairs observed from the sender.
        ports: Vec<(u16, Protocol)>,
        /// Neighbours to vote over (and return).
        k: u16,
    },
    /// Ask the daemon to stop accepting and exit its threads.
    Shutdown,
    /// Fetch the novelty alerts raised since startup (newest-capped at
    /// [`MAX_ALERTS`]).
    Alerts,
}

/// Daemon state reported by [`Response::Status`].
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct StatusReply {
    /// True once a first model has been swapped in.
    pub ready: bool,
    /// Serving-model version (0 before the first swap).
    pub version: u64,
    /// Serving-model checksum (see `serve::ServingModel`).
    pub checksum: u64,
    /// Embedded senders in the serving model.
    pub vocab: u32,
    /// Packets ingested so far.
    pub packets: u64,
    /// Capture days completed so far.
    pub days: u32,
    /// Retrains completed.
    pub retrains: u32,
    /// Model swaps performed.
    pub swaps: u32,
    /// Classify queries answered (including error replies).
    pub queries: u64,
    /// Protocol/ingest errors survived (the `serve.errors` counter).
    pub errors: u64,
    /// First capture day of the serving model's training window
    /// (protocol-versioned tail field; 0 when talking to an old daemon).
    pub window_start: u64,
    /// Last capture day of the serving model's training window (0 when
    /// talking to an old daemon or before the first swap).
    pub window_end: u64,
}

/// A classification answer.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassifyReply {
    /// Version of the model that answered.
    pub version: u64,
    /// Checksum of the model that answered — with `version`, the proof
    /// the reply came from a fully-built, atomically-swapped model.
    pub checksum: u64,
    /// Winning class name.
    pub label: String,
    /// Fraction of the `k` neighbour votes the winner received.
    pub confidence: f32,
    /// The neighbours that voted, by decreasing similarity.
    pub neighbors: Vec<(Ipv4, f32)>,
}

/// One novelty alert on the wire — a compact projection of
/// `lineage::NoveltyAlert` (evidence strings are clipped to
/// [`MAX_ALERT_TEXT`] bytes).
#[derive(Clone, Debug, PartialEq)]
pub struct AlertInfo {
    /// Lineage id of the novel group.
    pub lineage: u64,
    /// First capture day of the window the group appeared in.
    pub window_start: u64,
    /// Last capture day of that window.
    pub window_end: u64,
    /// Member count.
    pub size: u32,
    /// Temporal-regularity judgement, e.g. "daily".
    pub regularity: String,
    /// Top targeted ports (name, traffic share).
    pub top_ports: Vec<(String, f32)>,
}

/// A daemon reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Status`].
    Status(StatusReply),
    /// Reply to [`Request::Classify`].
    Classify(ClassifyReply),
    /// Protocol-level error: the request was understood to be broken
    /// (bad opcode, malformed payload, no model yet, unknown sender).
    Error(String),
    /// Reply to [`Request::Shutdown`], sent before the daemon exits.
    ShutdownAck,
    /// Reply to [`Request::Alerts`].
    Alerts(Vec<AlertInfo>),
}

/// Why a payload failed to decode.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtoError {
    /// Empty payload.
    Empty,
    /// First byte is not a known opcode.
    BadOpcode(u8),
    /// Payload ended before the fields it promised.
    Truncated,
    /// A count/length field exceeds its cap.
    TooLarge(&'static str),
    /// Trailing bytes after a complete message.
    TrailingBytes,
    /// A protocol tag byte is not a known [`Protocol`].
    BadProtocol(u8),
    /// A label/message is not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Empty => write!(f, "empty payload"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtoError::Truncated => write!(f, "truncated payload"),
            ProtoError::TooLarge(what) => write!(f, "{what} exceeds protocol cap"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after message"),
            ProtoError::BadProtocol(tag) => write!(f, "unknown protocol tag 0x{tag:02x}"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => ProtoError::Truncated,
            CodecError::TrailingBytes => ProtoError::TrailingBytes,
        }
    }
}

/// Why a frame could not be read off the wire.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly before a new frame began.
    Closed,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// Transport error, including a connection dropped or timed out
    /// mid-frame (`UnexpectedEof`, `WouldBlock`/`TimedOut`).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Oversized(len) => {
                write!(f, "frame length {len} exceeds MAX_FRAME {MAX_FRAME}")
            }
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

/// Reads one length-prefixed frame. Distinguishes a clean close at a
/// frame boundary ([`FrameError::Closed`]) from a mid-frame disconnect
/// (an [`FrameError::Io`] with `UnexpectedEof`) so the daemon can count
/// only the latter as a fault. An oversized length prefix is rejected
/// *before* any allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection dropped inside a frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len as usize > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(payload)
}

/// Writes one length-prefixed frame.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_FRAME`] — the encoders below cap
/// every variable-length field, so an oversized outgoing frame is a
/// program bug, not an input condition.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(
        payload.len() <= MAX_FRAME,
        "outgoing frame exceeds MAX_FRAME"
    );
    // Header and payload go out in one write: with TCP_NODELAY set a
    // separate 4-byte prefix write would ship as its own segment,
    // doubling per-message packet processing.
    let mut buf = Vec::with_capacity(4 + payload.len());
    // lint: cast-ok(asserted payload.len() <= MAX_FRAME above, and MAX_FRAME fits u32)
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Encodes a request payload (no frame header).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    match req {
        Request::Ping => buf.push(0x01),
        Request::Status => buf.push(0x02),
        Request::Classify { ip, ports, k } => {
            assert!(ports.len() <= MAX_PORTS, "too many ports in request");
            buf.push(0x03);
            buf.extend_from_slice(&ip.0.to_le_bytes());
            buf.extend_from_slice(&k.to_le_bytes());
            // lint: cast-ok(asserted ports.len() <= MAX_PORTS above, which fits u16)
            buf.extend_from_slice(&(ports.len() as u16).to_le_bytes());
            for (port, proto) in ports {
                buf.extend_from_slice(&port.to_le_bytes());
                buf.push(proto.tag());
            }
        }
        Request::Shutdown => buf.push(0x04),
        Request::Alerts => buf.push(0x05),
    }
    buf
}

/// Decodes a request payload. Never panics; every malformed input maps
/// to a [`ProtoError`].
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut r = Reader::new(payload);
    let req = match r.u8().map_err(|_| ProtoError::Empty)? {
        0x01 => Request::Ping,
        0x02 => Request::Status,
        0x03 => {
            let ip = Ipv4(r.u32()?);
            let k = r.u16()?;
            let n = r.u16()?;
            if usize::from(n) > MAX_PORTS {
                return Err(ProtoError::TooLarge("port count"));
            }
            let mut ports = Vec::with_capacity(r.count(n, 3)?);
            for _ in 0..n {
                let port = r.u16()?;
                let tag = r.u8()?;
                let proto = Protocol::from_tag(tag).ok_or(ProtoError::BadProtocol(tag))?;
                ports.push((port, proto));
            }
            Request::Classify { ip, ports, k }
        }
        0x04 => Request::Shutdown,
        0x05 => Request::Alerts,
        op => return Err(ProtoError::BadOpcode(op)),
    };
    r.finish()?;
    Ok(req)
}

/// Encodes a response payload (no frame header).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    match resp {
        Response::Pong => buf.push(0x81),
        Response::Status(s) => {
            buf.push(0x82);
            buf.push(s.ready as u8); // lint: cast-ok(bool as u8 is 0 or 1 by language definition)
            buf.extend_from_slice(&s.version.to_le_bytes());
            buf.extend_from_slice(&s.checksum.to_le_bytes());
            buf.extend_from_slice(&s.vocab.to_le_bytes());
            buf.extend_from_slice(&s.packets.to_le_bytes());
            buf.extend_from_slice(&s.days.to_le_bytes());
            buf.extend_from_slice(&s.retrains.to_le_bytes());
            buf.extend_from_slice(&s.swaps.to_le_bytes());
            buf.extend_from_slice(&s.queries.to_le_bytes());
            buf.extend_from_slice(&s.errors.to_le_bytes());
            // Versioned tail: decoders accept payloads both with and
            // without these 16 bytes (absent ⇒ window (0, 0)), so replies
            // from a pre-tail daemon still parse.
            buf.extend_from_slice(&s.window_start.to_le_bytes());
            buf.extend_from_slice(&s.window_end.to_le_bytes());
        }
        Response::Classify(c) => {
            assert!(c.neighbors.len() <= MAX_NEIGHBORS, "too many neighbours");
            assert!(c.label.len() <= u16::MAX as usize, "label too long");
            buf.push(0x83);
            buf.extend_from_slice(&c.version.to_le_bytes());
            buf.extend_from_slice(&c.checksum.to_le_bytes());
            // lint: cast-ok(asserted label.len() <= u16::MAX above)
            buf.extend_from_slice(&(c.label.len() as u16).to_le_bytes());
            buf.extend_from_slice(c.label.as_bytes());
            buf.extend_from_slice(&c.confidence.to_le_bytes());
            // lint: cast-ok(asserted neighbors.len() <= MAX_NEIGHBORS above, which fits u16)
            buf.extend_from_slice(&(c.neighbors.len() as u16).to_le_bytes());
            for (ip, sim) in &c.neighbors {
                buf.extend_from_slice(&ip.0.to_le_bytes());
                buf.extend_from_slice(&sim.to_le_bytes());
            }
        }
        Response::Error(msg) => {
            // Truncate rather than die: error text is advisory.
            let msg = &msg.as_bytes()[..msg.len().min(1024)];
            buf.push(0x84);
            // lint: cast-ok(msg truncated to at most 1024 bytes on the line above)
            buf.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            buf.extend_from_slice(msg);
        }
        Response::ShutdownAck => buf.push(0x85),
        Response::Alerts(alerts) => {
            // Truncate rather than die: the daemon bounds its alert buffer
            // already, so clipping here only defends against misuse.
            let alerts = &alerts[..alerts.len().min(MAX_ALERTS)];
            buf.push(0x86);
            // lint: cast-ok(sliced to at most MAX_ALERTS above, which fits u8)
            buf.push(alerts.len() as u8);
            for a in alerts {
                buf.extend_from_slice(&a.lineage.to_le_bytes());
                buf.extend_from_slice(&a.window_start.to_le_bytes());
                buf.extend_from_slice(&a.window_end.to_le_bytes());
                buf.extend_from_slice(&a.size.to_le_bytes());
                let reg = clip(&a.regularity, MAX_ALERT_TEXT);
                // lint: cast-ok(clip bounds reg to MAX_ALERT_TEXT bytes, which fits u8)
                buf.push(reg.len() as u8);
                buf.extend_from_slice(reg.as_bytes());
                let ports = &a.top_ports[..a.top_ports.len().min(MAX_ALERT_PORTS)];
                // lint: cast-ok(sliced to at most MAX_ALERT_PORTS above, which fits u8)
                buf.push(ports.len() as u8);
                for (name, share) in ports {
                    let name = clip(name, MAX_ALERT_TEXT);
                    // lint: cast-ok(clip bounds name to MAX_ALERT_TEXT bytes, which fits u8)
                    buf.push(name.len() as u8);
                    buf.extend_from_slice(name.as_bytes());
                    buf.extend_from_slice(&share.to_le_bytes());
                }
            }
        }
    }
    buf
}

/// Clips a string to at most `max` bytes without splitting a UTF-8
/// character.
fn clip(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Reads a string of `len` bytes, which must not exceed `cap`.
fn text(r: &mut Reader, len: usize, cap: usize, what: &'static str) -> Result<String, ProtoError> {
    if len > cap {
        return Err(ProtoError::TooLarge(what));
    }
    let raw = r.bytes(len)?;
    std::str::from_utf8(raw)
        .map(str::to_string)
        .map_err(|_| ProtoError::BadUtf8)
}

/// Decodes a response payload. Never panics.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut r = Reader::new(payload);
    let resp = match r.u8().map_err(|_| ProtoError::Empty)? {
        0x81 => Response::Pong,
        0x82 => {
            let mut s = StatusReply {
                ready: r.u8()? != 0,
                version: r.u64()?,
                checksum: r.u64()?,
                vocab: r.u32()?,
                packets: r.u64()?,
                days: r.u32()?,
                retrains: r.u32()?,
                swaps: r.u32()?,
                queries: r.u64()?,
                errors: r.u64()?,
                window_start: 0,
                window_end: 0,
            };
            // Versioned tail (see the encoder): absent in old payloads.
            if r.remaining() > 0 {
                s.window_start = r.u64()?;
                s.window_end = r.u64()?;
            }
            Response::Status(s)
        }
        0x83 => {
            let version = r.u64()?;
            let checksum = r.u64()?;
            let label_len = r.u16()?;
            let label = text(&mut r, label_len.into(), usize::from(u16::MAX), "label")?;
            let confidence = r.f32()?;
            let n = r.u16()?;
            if usize::from(n) > MAX_NEIGHBORS {
                return Err(ProtoError::TooLarge("neighbour count"));
            }
            let mut neighbors = Vec::with_capacity(r.count(n, 8)?);
            for _ in 0..n {
                neighbors.push((Ipv4(r.u32()?), r.f32()?));
            }
            Response::Classify(ClassifyReply {
                version,
                checksum,
                label,
                confidence,
                neighbors,
            })
        }
        0x84 => {
            let len = r.u16()?;
            Response::Error(text(&mut r, len.into(), 1024, "error message")?)
        }
        0x85 => Response::ShutdownAck,
        0x86 => {
            let n = r.u8()?;
            if usize::from(n) > MAX_ALERTS {
                return Err(ProtoError::TooLarge("alert count"));
            }
            // An alert is at least 30 bytes: three u64, a u32 size and
            // two u8 lengths.
            let mut alerts = Vec::with_capacity(r.count(n, 30)?);
            for _ in 0..n {
                let lineage = r.u64()?;
                let window_start = r.u64()?;
                let window_end = r.u64()?;
                let size = r.u32()?;
                let reg_len = r.u8()?;
                let regularity = text(&mut r, reg_len.into(), MAX_ALERT_TEXT, "regularity text")?;
                let nports = r.u8()?;
                if usize::from(nports) > MAX_ALERT_PORTS {
                    return Err(ProtoError::TooLarge("alert port count"));
                }
                // A port is at least its u8 length and f32 share.
                let mut top_ports = Vec::with_capacity(r.count(nports, 5)?);
                for _ in 0..nports {
                    let plen = r.u8()?;
                    let name = text(&mut r, plen.into(), MAX_ALERT_TEXT, "alert port text")?;
                    top_ports.push((name, r.f32()?));
                }
                alerts.push(AlertInfo {
                    lineage,
                    window_start,
                    window_end,
                    size,
                    regularity,
                    top_ports,
                });
            }
            Response::Alerts(alerts)
        }
        op => return Err(ProtoError::BadOpcode(op)),
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_protocol() -> impl Strategy<Value = Protocol> {
        prop_oneof![
            Just(Protocol::Tcp),
            Just(Protocol::Udp),
            Just(Protocol::Icmp)
        ]
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            Just(Request::Ping),
            Just(Request::Status),
            Just(Request::Shutdown),
            (
                any::<u32>(),
                prop::collection::vec((any::<u16>(), arb_protocol()), 0..MAX_PORTS),
                any::<u16>(),
            )
                .prop_map(|(ip, ports, k)| Request::Classify {
                    ip: Ipv4(ip),
                    ports,
                    k,
                }),
        ]
    }

    fn arb_status() -> impl Strategy<Value = StatusReply> {
        (
            (any::<bool>(), any::<u64>(), any::<u64>(), any::<u32>()),
            (any::<u64>(), any::<u32>(), any::<u32>(), any::<u32>()),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        )
            .prop_map(
                |(
                    (ready, version, checksum, vocab),
                    (packets, days, retrains, swaps),
                    (q, e, ws, we),
                )| {
                    StatusReply {
                        ready,
                        version,
                        checksum,
                        vocab,
                        packets,
                        days,
                        retrains,
                        swaps,
                        queries: q,
                        errors: e,
                        window_start: ws,
                        window_end: we,
                    }
                },
            )
    }

    /// Lowercase ASCII strings (the vendored proptest has no regex
    /// strategies).
    fn arb_text(max: usize) -> impl Strategy<Value = String> {
        prop::collection::vec(97u8..=122, 0..max).prop_map(|v| String::from_utf8(v).expect("ascii"))
    }

    fn arb_alert() -> impl Strategy<Value = AlertInfo> {
        (
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()),
            arb_text(MAX_ALERT_TEXT),
            prop::collection::vec((arb_text(MAX_ALERT_TEXT), any::<u32>()), 0..MAX_ALERT_PORTS),
        )
            .prop_map(|((lineage, ws, we, size), regularity, ports)| AlertInfo {
                lineage,
                window_start: ws,
                window_end: we,
                size,
                regularity,
                top_ports: ports
                    .into_iter()
                    // From raw bits so NaN/inf share bytes are covered.
                    .map(|(name, bits)| (name, f32::from_bits(bits)))
                    .collect(),
            })
    }

    fn arb_response() -> impl Strategy<Value = Response> {
        prop_oneof![
            Just(Response::Pong),
            Just(Response::ShutdownAck),
            arb_status().prop_map(Response::Status),
            arb_text(64).prop_map(Response::Error),
            prop::collection::vec(arb_alert(), 0..5).prop_map(Response::Alerts),
            (
                any::<u64>(),
                any::<u64>(),
                arb_text(16),
                any::<u32>(),
                prop::collection::vec((any::<u32>(), any::<u32>()), 0..16),
            )
                .prop_map(|(version, checksum, label, conf_bits, neigh)| {
                    Response::Classify(ClassifyReply {
                        version,
                        checksum,
                        label,
                        // From raw bits so NaN/inf payload bytes are covered.
                        confidence: f32::from_bits(conf_bits),
                        neighbors: neigh
                            .into_iter()
                            .map(|(ip, sim)| (Ipv4(ip), f32::from_bits(sim)))
                            .collect(),
                    })
                }),
        ]
    }

    proptest! {
        // Round trips are compared on re-encoded bytes, not values, so
        // NaN floats (payload bytes like any other) don't break equality.
        #[test]
        fn request_round_trip(req in arb_request()) {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).expect("decode own encoding");
            prop_assert_eq!(encode_request(&back), bytes);
        }

        #[test]
        fn response_round_trip(resp in arb_response()) {
            let bytes = encode_response(&resp);
            let back = decode_response(&bytes).expect("decode own encoding");
            prop_assert_eq!(encode_response(&back), bytes);
        }

        #[test]
        fn truncated_requests_error_without_panic(req in arb_request()) {
            let bytes = encode_request(&req);
            for cut in 0..bytes.len() {
                // A strict prefix is Err(Truncated/Empty) — except for a
                // classify whose port list shrinks to a shorter valid
                // message, which the trailing-bytes check rules out here
                // because the *length* field promises more.
                prop_assert!(decode_request(&bytes[..cut]).is_err());
            }
        }

        #[test]
        fn truncated_responses_error_without_panic(resp in arb_response()) {
            let bytes = encode_response(&resp);
            for cut in 0..bytes.len() {
                // One legal cut exists: a Status reply minus its 16-byte
                // versioned window tail IS the old wire format and decodes
                // (that compatibility is asserted separately below).
                if matches!(resp, Response::Status(_)) && cut == bytes.len() - 16 {
                    continue;
                }
                prop_assert!(decode_response(&bytes[..cut]).is_err());
            }
        }

        #[test]
        fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
        }

        #[test]
        fn frame_round_trip(payload in prop::collection::vec(any::<u8>(), 0..512)) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            let mut r = &wire[..];
            prop_assert_eq!(read_frame(&mut r).unwrap(), payload);
            prop_assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
        }

        #[test]
        fn truncated_frames_are_io_errors(payload in prop::collection::vec(any::<u8>(), 1..128)) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            for cut in 1..wire.len() {
                let mut r = &wire[..cut];
                prop_assert!(matches!(
                    read_frame(&mut r),
                    Err(FrameError::Io(_)) | Err(FrameError::Oversized(_))
                ));
            }
        }

        #[test]
        fn oversized_length_prefix_is_rejected(extra in 1u32..u32::MAX - MAX_FRAME as u32) {
            let len = MAX_FRAME as u32 + extra;
            let wire = len.to_le_bytes();
            let mut r = &wire[..];
            prop_assert!(matches!(read_frame(&mut r), Err(FrameError::Oversized(l)) if l == len));
        }
    }

    /// A pre-tail Status payload (no window fields) must still decode,
    /// with the training window defaulting to `(0, 0)` — the promise that
    /// keeps old daemons and new clients interoperable.
    #[test]
    fn status_without_window_tail_decodes_as_old_format() {
        let full = StatusReply {
            ready: true,
            version: 7,
            checksum: 0xDEAD_BEEF,
            vocab: 123,
            packets: 456,
            days: 9,
            retrains: 3,
            swaps: 3,
            queries: 42,
            errors: 1,
            window_start: 5,
            window_end: 11,
        };
        let bytes = encode_response(&Response::Status(full));
        let old = &bytes[..bytes.len() - 16];
        match decode_response(old).expect("old format must decode") {
            Response::Status(s) => {
                assert_eq!(s.version, 7);
                assert_eq!(s.queries, 42);
                assert_eq!((s.window_start, s.window_end), (0, 0));
            }
            other => panic!("expected Status, got {other:?}"),
        }
        // A partial tail (1..15 leftover bytes) is still an error.
        for cut in 1..16 {
            assert!(
                decode_response(&bytes[..bytes.len() - cut]).is_err(),
                "partial tail of {} bytes must not decode",
                16 - cut
            );
        }
        // The full new format round-trips the window.
        match decode_response(&bytes).expect("new format") {
            Response::Status(s) => assert_eq!((s.window_start, s.window_end), (5, 11)),
            other => panic!("expected Status, got {other:?}"),
        }
    }

    /// Alert text fields are clipped to [`MAX_ALERT_TEXT`] bytes on a
    /// char boundary — a multi-byte char straddling the limit must not
    /// split into invalid UTF-8.
    #[test]
    fn alert_text_clips_on_char_boundaries() {
        let alert = AlertInfo {
            lineage: 1,
            window_start: 0,
            window_end: 1,
            size: 5,
            // 31 ASCII bytes then a 2-byte char straddling the 32-byte cap.
            regularity: format!("{}é", "x".repeat(31)),
            top_ports: vec![("y".repeat(100), 0.5)],
        };
        let bytes = encode_response(&Response::Alerts(vec![alert]));
        match decode_response(&bytes).expect("clipped alert must decode") {
            Response::Alerts(alerts) => {
                assert_eq!(alerts[0].regularity, "x".repeat(31));
                assert_eq!(alerts[0].top_ports[0].0, "y".repeat(32));
            }
            other => panic!("expected Alerts, got {other:?}"),
        }
    }

    #[test]
    fn close_at_boundary_vs_mid_frame() {
        let mut r: &[u8] = &[];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
        let mut r: &[u8] = &[3, 0]; // half a length prefix
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }
}
