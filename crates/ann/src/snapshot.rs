//! Versioned on-disk snapshots of trained indexes.
//!
//! Index training dominates per-process cost (IVF k-means, HNSW graph
//! construction), yet every process start pays it again. This module
//! defines a little-endian, length-prefixed container every trained
//! family serializes into:
//!
//! ```text
//! magic (8 bytes) | version (u32) | family (u8) | payload_len (u64)
//! | payload | fnv1a64 checksum (u64, over everything before it)
//! ```
//!
//! The payload layout is family-private (each family module owns its
//! `snapshot_bytes` / `from_snapshot_bytes` pair); `Sharded` nests one
//! tagged child blob per shard. A member snapshot
//! ([`save_member`]) additionally carries the exact f32 rows the index
//! was built from, so a warm-started engine can replay its
//! refresh-vs-rebuild decision against them bitwise.
//!
//! The correctness anchor mirrors refresh-vs-rebuild: snapshot → load →
//! probe is bitwise equal to build → probe for every family, shard
//! count, and row format (proptested in `tests/proptests.rs`). Every
//! red path — truncation, corruption, version or config mismatch — is a
//! typed [`SnapshotError`], never a panic, so callers can fall back to
//! a fresh build.

use crate::index::AnnIndex;
use crate::metric::Metric;
use crate::rowstore::RowFormat;
use std::fmt;
use std::path::Path;

/// File magic: identifies a DIAL index snapshot regardless of version.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DIALSNP\0";

/// Bumped on any layout change; old files are rejected (never
/// misparsed) and the caller rebuilds from data.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Family tags (the `family` header byte).
pub(crate) const FAMILY_FLAT: u8 = 0;
pub(crate) const FAMILY_IVF: u8 = 1;
pub(crate) const FAMILY_PQ: u8 = 2;
pub(crate) const FAMILY_HNSW: u8 = 3;
pub(crate) const FAMILY_SHARDED: u8 = 4;
/// An engine member: the index blob plus the exact rows it indexed.
pub(crate) const FAMILY_MEMBER: u8 = 5;

/// Why a snapshot could not be loaded. Every variant is a fall-back-to-
/// fresh-build condition, not a panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error reading or writing the snapshot file.
    Io(std::io::Error),
    /// The file ended before the declared structure did.
    Truncated,
    /// Not a DIAL snapshot file at all.
    BadMagic,
    /// Written by a different format version.
    VersionMismatch { found: u32 },
    /// The FNV-1a trailer does not match the bytes.
    ChecksumMismatch,
    /// The header's family tag is not the one the spec expects.
    FamilyMismatch { found: u8, expected: u8 },
    /// The stored dimensionality differs from the expected one.
    DimMismatch { found: usize, expected: usize },
    /// The stored metric differs from the expected one.
    MetricMismatch,
    /// The stored row storage format differs from the expected one.
    RowFormatMismatch,
    /// The stored index parameters differ from the spec's.
    SpecMismatch(&'static str),
    /// Structurally invalid payload (bad lengths, unknown codes).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::BadMagic => write!(f, "not a DIAL index snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found } => {
                write!(f, "snapshot version {found} != supported {SNAPSHOT_VERSION}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::FamilyMismatch { found, expected } => {
                write!(f, "snapshot family tag {found} != expected {expected}")
            }
            SnapshotError::DimMismatch { found, expected } => {
                write!(f, "snapshot dim {found} != expected {expected}")
            }
            SnapshotError::MetricMismatch => write!(f, "snapshot metric != expected metric"),
            SnapshotError::RowFormatMismatch => {
                write!(f, "snapshot row format != expected row format")
            }
            SnapshotError::SpecMismatch(what) => {
                write!(f, "snapshot parameters do not match the spec: {what}")
            }
            SnapshotError::Corrupt(what) => write!(f, "snapshot payload corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64-bit offset basis: `fnv1a64(FNV_BASIS, bytes)` hashes
/// `bytes`.
pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit, streaming: fold `bytes` into the running hash `h`
/// (seed with [`FNV_BASIS`]; folding runs in order equals hashing their
/// concatenation). The one checksum of snapshot files and wire frames —
/// no external crates, stable across platforms, and plenty for
/// corruption detection (not cryptographic).
pub(crate) fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) fn metric_code(m: Metric) -> u8 {
    match m {
        Metric::L2 => 0,
        Metric::Cosine => 1,
    }
}

pub(crate) fn metric_from_code(c: u8) -> Result<Metric, SnapshotError> {
    match c {
        0 => Ok(Metric::L2),
        1 => Ok(Metric::Cosine),
        _ => Err(SnapshotError::Corrupt("unknown metric code")),
    }
}

pub(crate) fn rowformat_code(f: RowFormat) -> u8 {
    match f {
        RowFormat::F32 => 0,
        RowFormat::F16 => 1,
        RowFormat::Bf16 => 2,
    }
}

pub(crate) fn rowformat_from_code(c: u8) -> Result<RowFormat, SnapshotError> {
    match c {
        0 => Ok(RowFormat::F32),
        1 => Ok(RowFormat::F16),
        2 => Ok(RowFormat::Bf16),
        _ => Err(SnapshotError::Corrupt("unknown row format code")),
    }
}

/// Little-endian payload builder: scalars written directly, slices
/// prefixed with a u64 element count.
#[derive(Default)]
pub(crate) struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    pub fn new() -> Self {
        SnapshotWriter { buf: Vec::new() }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_f32(&mut self, v: f32) {
        // Bit pattern, not value: round-trip must be bitwise (NaNs and
        // signed zeros included).
        self.put_u32(v.to_bits());
    }

    pub fn put_f32_slice(&mut self, s: &[f32]) {
        self.put_usize(s.len());
        for &v in s {
            self.put_f32(v);
        }
    }

    pub fn put_u32_slice(&mut self, s: &[u32]) {
        self.put_usize(s.len());
        for &v in s {
            self.put_u32(v);
        }
    }

    pub fn put_u16_slice(&mut self, s: &[u16]) {
        self.put_usize(s.len());
        for &v in s {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    pub fn put_u8_slice(&mut self, s: &[u8]) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s);
    }
}

/// Checked little-endian payload reader: every getter fails with
/// [`SnapshotError::Truncated`] instead of panicking, and slice counts
/// are validated against the remaining bytes before allocation, so a
/// corrupt length cannot trigger a huge allocation.
pub(crate) struct SnapshotReader<'a> {
    buf: &'a [u8],
}

impl<'a> SnapshotReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt("count exceeds usize"))
    }

    pub fn get_f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Element count for a slice of `elem_bytes`-wide values, bounded by
    /// the bytes actually remaining.
    fn get_count(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.get_usize()?;
        if n > self.buf.len() / elem_bytes {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    pub fn get_f32_slice(&mut self) -> Result<Vec<f32>, SnapshotError> {
        let n = self.get_count(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    pub fn get_u32_slice(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.get_count(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    pub fn get_u16_slice(&mut self) -> Result<Vec<u16>, SnapshotError> {
        let n = self.get_count(2)?;
        let raw = self.take(n * 2)?;
        Ok(raw.chunks_exact(2).map(|c| u16::from_le_bytes(c.try_into().unwrap())).collect())
    }

    pub fn get_u8_slice(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.get_count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// The payload must be fully consumed — trailing bytes mean the
    /// layout drifted without a version bump.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt("trailing payload bytes"))
        }
    }
}

/// Assemble the full file image: header + payload + checksum trailer.
pub(crate) fn encode_file(family: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + 4 + 1 + 8 + payload.len() + 8);
    buf.extend_from_slice(&SNAPSHOT_MAGIC);
    buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    buf.push(family);
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = fnv1a64(FNV_BASIS, &buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Parse and verify a file image; returns `(family, payload)`.
pub(crate) fn decode_file(bytes: &[u8]) -> Result<(u8, &[u8]), SnapshotError> {
    const HEADER: usize = 8 + 4 + 1 + 8;
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < HEADER + 8 {
        return Err(SnapshotError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::VersionMismatch { found: version });
    }
    let family = bytes[12];
    let payload_len = u64::from_le_bytes(bytes[13..21].try_into().unwrap());
    let payload_len =
        usize::try_from(payload_len).map_err(|_| SnapshotError::Corrupt("payload length"))?;
    let total = HEADER
        .checked_add(payload_len)
        .and_then(|t| t.checked_add(8))
        .ok_or(SnapshotError::Corrupt("payload length"))?;
    if bytes.len() < total {
        return Err(SnapshotError::Truncated);
    }
    if bytes.len() > total {
        return Err(SnapshotError::Corrupt("trailing file bytes"));
    }
    let stored = u64::from_le_bytes(bytes[total - 8..].try_into().unwrap());
    if fnv1a64(FNV_BASIS, &bytes[..total - 8]) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok((family, &bytes[HEADER..HEADER + payload_len]))
}

/// Write one tagged payload to `path` (atomic enough for our use: a
/// partial write fails the checksum on load and falls back to a build).
pub fn save_to_file(path: &Path, family: u8, payload: &[u8]) -> Result<(), SnapshotError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, encode_file(family, payload))?;
    Ok(())
}

/// Read and verify one snapshot file; returns `(family, payload)`.
pub fn read_file(path: &Path) -> Result<(u8, Vec<u8>), SnapshotError> {
    let bytes = std::fs::read(path)?;
    let (family, payload) = decode_file(&bytes)?;
    Ok((family, payload.to_vec()))
}

/// Reconstruct an index from a tagged payload with no spec validation —
/// the dispatch [`load_index`] and the sharded manifest use. Callers
/// that carry a spec should go through `IndexSpec::load_snapshot`,
/// which additionally verifies parameters/dim/metric/row format.
pub(crate) fn load_child(family: u8, payload: &[u8]) -> Result<Box<dyn AnnIndex>, SnapshotError> {
    Ok(match family {
        FAMILY_FLAT => Box::new(crate::flat::FlatIndex::from_snapshot_bytes(payload)?),
        FAMILY_IVF => Box::new(crate::ivf::IvfFlatIndex::from_snapshot_bytes(payload)?),
        FAMILY_PQ => Box::new(crate::pq::PqIndex::from_snapshot_bytes(payload)?),
        FAMILY_HNSW => Box::new(crate::hnsw::HnswIndex::from_snapshot_bytes(payload)?),
        FAMILY_SHARDED => Box::new(crate::sharded::ShardedIndex::from_snapshot_bytes(payload)?),
        _ => return Err(SnapshotError::Corrupt("unknown family tag")),
    })
}

/// Load whatever trained index a snapshot file holds, whichever family
/// it is. Structural integrity (magic, version, checksum, payload
/// layout) is verified; no spec is available to check parameters
/// against — use `IndexSpec::load_snapshot` when one is.
pub fn load_index(path: &Path) -> Result<Box<dyn AnnIndex>, SnapshotError> {
    let (family, payload) = read_file(path)?;
    load_child(family, &payload)
}

/// Save an engine member: the index blob plus the exact f32 rows it was
/// built from, so a warm start can compare them bitwise against the
/// fresh round's embeddings and take the same refresh-vs-rebuild path a
/// persistent engine would.
pub fn save_member(path: &Path, rows: &[f32], index: &dyn AnnIndex) -> Result<(), SnapshotError> {
    let (family, payload) = index.snapshot_blob();
    save_member_blob(path, rows, family, &payload)
}

/// [`save_member`] from a pre-serialized blob: the caller runs
/// `AnnIndex::snapshot_blob` on the thread that owns the index
/// (memory-speed) and hands the bytes to whichever thread does the file
/// I/O — how the retrieval engine overlaps snapshot writes with the AL
/// loop's selection stage.
pub fn save_member_blob(
    path: &Path,
    rows: &[f32],
    family: u8,
    payload: &[u8],
) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new();
    w.put_f32_slice(rows);
    w.put_u8(family);
    w.put_u8_slice(payload);
    save_to_file(path, FAMILY_MEMBER, &w.into_bytes())
}

/// Split a member snapshot payload into `(rows, child_family,
/// child_payload)`.
pub(crate) fn parse_member(payload: &[u8]) -> Result<(Vec<f32>, u8, Vec<u8>), SnapshotError> {
    let mut r = SnapshotReader::new(payload);
    let rows = r.get_f32_slice()?;
    let family = r.get_u8()?;
    let child = r.get_u8_slice()?;
    r.finish()?;
    Ok((rows, family, child))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_roundtrip() {
        let payload = b"hello snapshot".to_vec();
        let file = encode_file(FAMILY_IVF, &payload);
        let (family, got) = decode_file(&file).expect("roundtrip");
        assert_eq!(family, FAMILY_IVF);
        assert_eq!(got, &payload[..]);
    }

    #[test]
    fn truncated_file_is_reported_not_panicked() {
        let file = encode_file(FAMILY_FLAT, b"payload");
        for cut in [0, 4, 12, file.len() - 1] {
            match decode_file(&file[..cut]) {
                Err(SnapshotError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_reported() {
        let mut file = encode_file(FAMILY_FLAT, b"payload");
        file[0] ^= 0xff;
        assert!(matches!(decode_file(&file), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn version_mismatch_is_reported() {
        let mut file = encode_file(FAMILY_FLAT, b"payload");
        file[8] = SNAPSHOT_VERSION as u8 + 1;
        assert!(matches!(
            decode_file(&file),
            Err(SnapshotError::VersionMismatch { found }) if found == SNAPSHOT_VERSION + 1
        ));
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let mut file = encode_file(FAMILY_FLAT, b"payload");
        let mid = 8 + 4 + 1 + 8 + 3;
        file[mid] ^= 0x01;
        assert!(matches!(decode_file(&file), Err(SnapshotError::ChecksumMismatch)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut file = encode_file(FAMILY_FLAT, b"payload");
        file.push(0);
        assert!(matches!(decode_file(&file), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn writer_reader_roundtrip_all_kinds() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_f32(-0.0);
        w.put_f32_slice(&[1.5, f32::NAN, -3.25]);
        w.put_u32_slice(&[1, 2, 3]);
        w.put_u16_slice(&[9, 8]);
        w.put_u8_slice(b"xyz");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        let fs = r.get_f32_slice().unwrap();
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[0], 1.5);
        assert!(fs[1].is_nan());
        assert_eq!(r.get_u32_slice().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u16_slice().unwrap(), vec![9, 8]);
        assert_eq!(r.get_u8_slice().unwrap(), b"xyz");
        r.finish().unwrap();
    }

    #[test]
    fn oversized_slice_count_is_truncated_not_allocated() {
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX / 2); // declares ~2^62 f32s
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(r.get_f32_slice(), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn reader_reports_unconsumed_payload() {
        let mut w = SnapshotWriter::new();
        w.put_u32(1);
        w.put_u32(2);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        r.get_u32().unwrap();
        assert!(matches!(r.finish(), Err(SnapshotError::Corrupt(_))));
    }
}
