//! Trace serialisation.
//!
//! Two formats are provided:
//!
//! * **CSV** — the shape of the anonymised dataset the paper releases
//!   (`timestamp,src,dst_port,proto,fingerprint`), human-inspectable and
//!   diff-friendly;
//! * **binary** — a length-prefixed little-endian format ("DKVT"), ~4x
//!   smaller and ~20x faster to load, used to cache the simulator output
//!   between experiments. It decodes through [`crate::codec::Reader`].

use crate::codec::Reader;
use crate::error::{Error, Result};
use crate::ip::Ipv4;
use crate::packet::{Fingerprint, Packet};
use crate::port::Protocol;
use crate::time::Timestamp;
use crate::trace::Trace;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying a binary trace ("DKVT" + version 1).
const MAGIC: &[u8; 4] = b"DKVT";
const VERSION: u8 = 1;

/// Writes a trace as CSV with a header line.
pub fn write_csv<W: Write>(trace: &Trace, out: W) -> Result<()> {
    let mut w = BufWriter::new(out);
    writeln!(w, "timestamp,src,dst_port,proto,fingerprint")?;
    for p in trace.packets() {
        let fp = match p.fingerprint {
            Fingerprint::None => "",
            Fingerprint::Mirai => "mirai",
        };
        writeln!(w, "{},{},{},{},{}", p.ts.0, p.src, p.dst_port, p.proto, fp)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a trace from CSV produced by [`write_csv`].
pub fn read_csv<R: Read>(input: R) -> Result<Trace> {
    let reader = BufReader::new(input);
    let mut packets = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if i == 0 {
            // Header; validate rather than silently skipping arbitrary data.
            if line != "timestamp,src,dst_port,proto,fingerprint" {
                return Err(Error::BadRecord {
                    line: 1,
                    reason: format!("unexpected header {line:?}"),
                });
            }
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let bad = |reason: String| Error::BadRecord {
            line: i + 1,
            reason,
        };
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 5 {
            return Err(bad(format!("expected 5 fields, got {}", fields.len())));
        }
        let ts: u64 = fields[0]
            .parse()
            .map_err(|e| bad(format!("timestamp: {e}")))?;
        let src: Ipv4 = fields[1].parse()?;
        let dst_port: u16 = fields[2].parse().map_err(|e| bad(format!("port: {e}")))?;
        let proto: Protocol = fields[3].parse()?;
        let fingerprint = match fields[4] {
            "" => Fingerprint::None,
            "mirai" => Fingerprint::Mirai,
            other => return Err(bad(format!("unknown fingerprint {other:?}"))),
        };
        packets.push(Packet {
            ts: Timestamp(ts),
            src,
            dst_port,
            proto,
            fingerprint,
        });
    }
    Ok(Trace::new(packets))
}

/// Encodes a trace into the binary format.
pub fn to_bytes(trace: &Trace) -> Vec<u8> {
    // 16 bytes per packet: u64 ts + u32 src + u16 port + u8 proto + u8 fp.
    let mut buf = Vec::with_capacity(16 + trace.len() * 16);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for p in trace.packets() {
        buf.extend_from_slice(&p.ts.0.to_le_bytes());
        buf.extend_from_slice(&p.src.0.to_le_bytes());
        buf.extend_from_slice(&p.dst_port.to_le_bytes());
        buf.push(p.proto.tag());
        buf.push(match p.fingerprint {
            Fingerprint::None => 0,
            Fingerprint::Mirai => 1,
        });
    }
    buf
}

/// Decodes a trace from the binary format.
pub fn from_bytes(buf: &[u8]) -> Result<Trace> {
    let err = |msg: &str| Error::BadBinary(msg.to_string());
    let mut r = Reader::new(buf);
    if r.bytes(4)? != MAGIC {
        return Err(err("bad magic"));
    }
    if r.u8()? != VERSION {
        return Err(err("unsupported version"));
    }
    let n = r.u64()?;
    let mut packets = Vec::with_capacity(r.count(n, 16)?);
    for _ in 0..n {
        let ts = Timestamp(r.u64()?);
        let src = Ipv4(r.u32()?);
        let dst_port = r.u16()?;
        let proto = Protocol::from_tag(r.u8()?).ok_or_else(|| err("bad protocol tag"))?;
        let fingerprint = match r.u8()? {
            0 => Fingerprint::None,
            1 => Fingerprint::Mirai,
            _ => return Err(err("bad fingerprint tag")),
        };
        packets.push(Packet {
            ts,
            src,
            dst_port,
            proto,
            fingerprint,
        });
    }
    r.finish()?;
    Ok(Trace::new(packets))
}

/// Writes a trace to a binary file.
pub fn save<P: AsRef<Path>>(trace: &Trace, path: P) -> Result<()> {
    std::fs::write(path, to_bytes(trace))?;
    Ok(())
}

/// Loads a trace from a binary file.
pub fn load<P: AsRef<Path>>(path: P) -> Result<Trace> {
    let data = std::fs::read(path)?;
    from_bytes(&data[..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(vec![
            Packet::new(Timestamp(10), Ipv4::new(10, 0, 0, 1), 445, Protocol::Tcp),
            Packet::mirai(Timestamp(20), Ipv4::new(10, 0, 0, 2), 23),
            Packet::new(Timestamp(30), Ipv4::new(10, 0, 0, 3), 0, Protocol::Icmp),
            Packet::new(Timestamp(40), Ipv4::new(10, 0, 0, 4), 53, Protocol::Udp),
        ])
    }

    #[test]
    fn csv_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_rejects_bad_header() {
        assert!(read_csv("nope\n1,2,3,4,5\n".as_bytes()).is_err());
    }

    #[test]
    fn csv_rejects_short_record() {
        let data = "timestamp,src,dst_port,proto,fingerprint\n1,10.0.0.1,23\n";
        let err = read_csv(data.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn csv_rejects_unknown_fingerprint() {
        let data = "timestamp,src,dst_port,proto,fingerprint\n1,10.0.0.1,23,tcp,zmap\n";
        assert!(read_csv(data.as_bytes()).is_err());
    }

    #[test]
    fn csv_tolerates_trailing_blank_line() {
        let data = "timestamp,src,dst_port,proto,fingerprint\n1,10.0.0.1,23,tcp,\n\n";
        assert_eq!(read_csv(data.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn binary_round_trip() {
        let t = sample();
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_rejects_truncation() {
        let bytes = to_bytes(&sample());
        for cut in [0, 4, 12, bytes.len() - 1] {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn binary_rejects_inflated_length() {
        for n in [1u64 << 60, u64::MAX] {
            let mut header = MAGIC.to_vec();
            header.push(VERSION);
            header.extend_from_slice(&n.to_le_bytes());
            assert_eq!(header.len(), 13);
            assert!(from_bytes(&header[..]).is_err(), "n = {n} must be rejected");
        }
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        assert!(from_bytes(&bytes[..]).is_err());
    }

    #[test]
    fn binary_empty_trace() {
        let t = Trace::default();
        assert_eq!(from_bytes(&to_bytes(&t)[..]).unwrap(), t);
    }

    #[test]
    fn file_round_trip() {
        let t = sample();
        let dir = std::env::temp_dir().join("darkvec-types-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.bin");
        save(&t, &path).unwrap();
        assert_eq!(load(&path).unwrap(), t);
        std::fs::remove_file(&path).ok();
    }
}
