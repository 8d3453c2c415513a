//! The shard wire protocol: length-prefixed, checksummed frames.
//!
//! Every message in either direction is one frame:
//!
//! ```text
//! magic "DSHW" (4) | version (u8) | opcode (u8) | payload_len (u64 LE)
//! | payload | fnv1a64 checksum (u64 LE, over everything before it)
//! ```
//!
//! Request payloads are encoded with the snapshot module's
//! little-endian writer/reader, and index state crosses the wire as a
//! complete snapshot *file image* (magic, version, checksum and
//! all) — the node validates a shipped shard exactly like a snapshot
//! loaded from disk. Hit distances travel as `f32::to_bits`, so a
//! remote probe is bitwise the local one.
//!
//! Red paths are typed, never panics: a short read is
//! [`TransportError::Truncated`], a flipped byte fails the frame
//! checksum, an insane declared length is rejected before allocation.

use super::TransportError;
use crate::snapshot::{fnv1a64, SnapshotReader, SnapshotWriter, FNV_BASIS};
use crate::topk::Hit;
use std::io::{Read, Write};

pub(crate) const WIRE_MAGIC: [u8; 4] = *b"DSHW";
pub(crate) const WIRE_VERSION: u8 = 1;

/// Sanity ceiling on a declared payload length: a corrupt or hostile
/// header cannot trigger a multi-gigabyte allocation.
pub(crate) const MAX_FRAME: u64 = 1 << 32;

pub(crate) const OP_PING: u8 = 1;
pub(crate) const OP_INSTALL: u8 = 2;
pub(crate) const OP_ADD: u8 = 3;
pub(crate) const OP_REFRESH: u8 = 4;
pub(crate) const OP_SEARCH: u8 = 5;
pub(crate) const OP_KNOB_GET: u8 = 6;
pub(crate) const OP_KNOB_SET: u8 = 7;
pub(crate) const OP_SNAPSHOT: u8 = 8;
pub(crate) const OP_INFO: u8 = 9;

pub(crate) const RESP_OK: u8 = 0x80;
pub(crate) const RESP_ERR: u8 = 0x81;

/// Error frame payload: one code byte, then the message bytes. The code
/// lets the client resurface selected conditions as their typed variant
/// instead of an opaque [`TransportError::Remote`].
pub(crate) const ERR_GENERIC: u8 = 0;
pub(crate) const ERR_NO_INDEX: u8 = 1;

pub(crate) fn encode_err(e: &TransportError) -> Vec<u8> {
    let code = match e {
        TransportError::NoIndex => ERR_NO_INDEX,
        _ => ERR_GENERIC,
    };
    let msg = e.to_string();
    let mut payload = Vec::with_capacity(1 + msg.len());
    payload.push(code);
    payload.extend_from_slice(msg.as_bytes());
    payload
}

pub(crate) fn decode_err(payload: &[u8]) -> TransportError {
    match payload.split_first() {
        Some((&ERR_NO_INDEX, _)) => TransportError::NoIndex,
        Some((_, msg)) => TransportError::Remote(String::from_utf8_lossy(msg).into_owned()),
        None => TransportError::Remote("unspecified node error".into()),
    }
}

const HEADER_LEN: usize = 4 + 1 + 1 + 8;

/// Write one frame and flush it.
pub(crate) fn write_frame(
    w: &mut impl Write,
    opcode: u8,
    payload: &[u8],
) -> Result<(), TransportError> {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&WIRE_MAGIC);
    header[4] = WIRE_VERSION;
    header[5] = opcode;
    header[6..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = fnv1a64(fnv1a64(FNV_BASIS, &header), payload);
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.write_all(&sum.to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// A `read_exact` whose "peer went away mid-frame" surfaces as the
/// typed [`TransportError::Truncated`] instead of a bare io error.
fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<(), TransportError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TransportError::Truncated
        } else {
            TransportError::Io(e)
        }
    })
}

/// Read and verify one frame; returns `(opcode, payload)`.
pub(crate) fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), TransportError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact(r, &mut header)?;
    if header[..4] != WIRE_MAGIC {
        return Err(TransportError::BadMagic);
    }
    if header[4] != WIRE_VERSION {
        return Err(TransportError::VersionMismatch { found: header[4] });
    }
    let opcode = header[5];
    let len = u64::from_le_bytes(header[6..].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(TransportError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact(r, &mut payload)?;
    let mut trailer = [0u8; 8];
    read_exact(r, &mut trailer)?;
    let sum = fnv1a64(fnv1a64(FNV_BASIS, &header), &payload);
    if u64::from_le_bytes(trailer) != sum {
        return Err(TransportError::ChecksumMismatch);
    }
    Ok((opcode, payload))
}

/// The node-side descriptive state a client caches: refreshed from the
/// reply of every mutating call so the infallible trait getters never
/// pay a round trip.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeInfo {
    pub dim: usize,
    pub len: usize,
    pub metric_code: u8,
    pub can_refresh: bool,
    pub train_generation: u64,
}

pub(crate) fn encode_info_into(w: &mut SnapshotWriter, info: &NodeInfo) {
    w.put_usize(info.dim);
    w.put_usize(info.len);
    w.put_u8(info.metric_code);
    w.put_u8(info.can_refresh as u8);
    w.put_u64(info.train_generation);
}

pub(crate) fn decode_info_from(r: &mut SnapshotReader) -> Result<NodeInfo, TransportError> {
    Ok(NodeInfo {
        dim: r.get_usize()?,
        len: r.get_usize()?,
        metric_code: r.get_u8()?,
        can_refresh: r.get_u8()? != 0,
        train_generation: r.get_u64()?,
    })
}

pub(crate) fn encode_search_req(queries: &[f32], k: usize) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_usize(k);
    w.put_f32_slice(queries);
    w.into_bytes()
}

pub(crate) fn decode_search_req(payload: &[u8]) -> Result<(usize, Vec<f32>), TransportError> {
    let mut r = SnapshotReader::new(payload);
    let k = r.get_usize()?;
    let queries = r.get_f32_slice()?;
    r.finish()?;
    Ok((k, queries))
}

/// Hit lists as `(id, distance bits)` pairs — `to_bits` round-trips
/// NaNs and signed zeros, keeping the remote probe bitwise.
pub(crate) fn encode_hits(hits: &[Vec<Hit>]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_usize(hits.len());
    for per_query in hits {
        w.put_usize(per_query.len());
        for h in per_query {
            w.put_u32(h.id);
            w.put_u32(h.distance.to_bits());
        }
    }
    w.into_bytes()
}

pub(crate) fn decode_hits(payload: &[u8]) -> Result<Vec<Vec<Hit>>, TransportError> {
    let mut r = SnapshotReader::new(payload);
    let nq = r.get_usize()?;
    if nq > payload.len() {
        return Err(TransportError::Corrupt("hit list count"));
    }
    let mut out = Vec::with_capacity(nq);
    for _ in 0..nq {
        let n = r.get_usize()?;
        if n > payload.len() {
            return Err(TransportError::Corrupt("hit count"));
        }
        let mut hits = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.get_u32()?;
            let distance = f32::from_bits(r.get_u32()?);
            hits.push(Hit { id, distance });
        }
        out.push(hits);
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_SEARCH, b"payload bytes").unwrap();
        let (op, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(op, OP_SEARCH);
        assert_eq!(payload, b"payload bytes");
    }

    #[test]
    fn checksum_is_pinned_fnv1a64() {
        // Reference FNV-1a 64 vectors: the empty input hashes to the
        // offset basis; folding "foo" then "bar" equals hashing "foobar".
        assert_eq!(fnv1a64(FNV_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(fnv1a64(FNV_BASIS, b"foo"), b"bar"), 0x8594_4171_f739_67e8);
        // One fixed frame's trailer, so a changed hash cannot hide behind
        // a round trip that computes it the same wrong way twice.
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_SEARCH, b"payload bytes").unwrap();
        let trailer = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
        assert_eq!(trailer, 0x60bc_44a1_ef4a_2ecf);
    }

    #[test]
    fn truncated_frame_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"abc").unwrap();
        for cut in [0, 3, HEADER_LEN, buf.len() - 1] {
            assert!(
                matches!(read_frame(&mut &buf[..cut]), Err(TransportError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupt_frame_fails_checksum_not_panics() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_ADD, b"sensitive").unwrap();
        let mid = HEADER_LEN + 4;
        buf[mid] ^= 0x20;
        assert!(matches!(read_frame(&mut buf.as_slice()), Err(TransportError::ChecksumMismatch)));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"").unwrap();
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(matches!(read_frame(&mut bad.as_slice()), Err(TransportError::BadMagic)));
        let mut ver = buf.clone();
        ver[4] = WIRE_VERSION + 1;
        assert!(matches!(
            read_frame(&mut ver.as_slice()),
            Err(TransportError::VersionMismatch { found }) if found == WIRE_VERSION + 1
        ));
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"").unwrap();
        buf[6..14].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(read_frame(&mut buf.as_slice()), Err(TransportError::FrameTooLarge(_))));
    }

    #[test]
    fn hits_roundtrip_bitwise() {
        let hits = vec![
            vec![
                Hit { id: 7, distance: 0.25 },
                Hit { id: 1, distance: f32::NAN },
                Hit { id: 2, distance: -0.0 },
            ],
            vec![],
        ];
        let got = decode_hits(&encode_hits(&hits)).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].len(), 3);
        for (a, b) in got[0].iter().zip(&hits[0]) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
        assert!(got[1].is_empty());
    }

    #[test]
    fn search_req_roundtrip() {
        let (k, q) = decode_search_req(&encode_search_req(&[1.0, 2.0, 3.0], 9)).unwrap();
        assert_eq!(k, 9);
        assert_eq!(q, vec![1.0, 2.0, 3.0]);
    }
}
