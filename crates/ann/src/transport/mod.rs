//! Shard transports: the process boundary under [`crate::ShardedIndex`].
//!
//! `ShardedIndex` routes every per-shard operation through the
//! object-safe [`ShardTransport`] trait instead of a concrete child
//! index, so where a shard *lives* is a deployment choice, not a type:
//!
//! * [`LocalShard`] wraps an in-process child index behind a lock, with
//!   no marshalling;
//! * [`RemoteShard`] speaks a small length-prefixed, checksummed binary
//!   protocol ([`wire`]) over TCP to a [`ShardNode`] — the accept loop
//!   behind the `shardd` binary. Index state crosses the wire as the
//!   snapshot container verbatim, so shard shipping *is* snapshot
//!   shipping and inherits its magic/version/checksum validation.
//!
//! Both are probed the same way: the composite sends each shard one
//! [`ShardTransport::search_batch`] per batch and merges per query —
//! there is no separate local path. Tuning goes through the one
//! [`Knob`] vocabulary of [`crate::AnnIndex`]: [`ShardTransport::knob`] /
//! [`ShardTransport::set_knob`] carry it, and the wire sends its code.
//!
//! All methods take `&self` (interior mutability), so replicas of one
//! shard can be shared as `Arc<dyn ShardTransport>` across the hedged
//! probe threads the sharded scatter-gather spawns. Every fallible
//! operation returns a typed [`TransportError`] — a dropped connection,
//! a truncated frame, or a corrupt payload is a recoverable error (and
//! a failover trigger when a replica exists), never a panic or a
//! silently wrong answer.

mod local;
mod node;
mod remote;
pub(crate) mod wire;

/// Wire-level fault-injection helpers for integration tests, which sit
/// outside the crate and cannot reach the private [`wire`] module. Not
/// part of the supported API.
#[doc(hidden)]
pub mod testing {
    use super::wire;
    use crate::snapshot::SnapshotWriter;
    use std::io::{self, Read, Write};

    fn to_io(e: super::TransportError) -> io::Error {
        io::Error::other(e.to_string())
    }

    /// Read one request frame and answer it with an honest OK/INFO
    /// reply — enough to pass `RemoteShard::connect`'s handshake.
    pub fn answer_one_info_frame(
        s: &mut (impl Read + Write),
        dim: usize,
        len: usize,
    ) -> io::Result<()> {
        wire::read_frame(s).map_err(to_io)?;
        let info =
            wire::NodeInfo { dim, len, metric_code: 0, can_refresh: true, train_generation: 0 };
        let mut w = SnapshotWriter::new();
        wire::encode_info_into(&mut w, &info);
        wire::write_frame(s, wire::RESP_OK, &w.into_bytes()).map_err(to_io)
    }

    /// Read one request frame and answer with a frame whose trailing
    /// checksum is flipped — the corrupt-response scenario.
    pub fn answer_with_corrupt_frame(s: &mut (impl Read + Write)) -> io::Result<()> {
        wire::read_frame(s).map_err(to_io)?;
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, wire::RESP_OK, &[1, 2, 3]).map_err(to_io)?;
        let n = frame.len();
        frame[n - 1] ^= 0xff;
        s.write_all(&frame)?;
        s.flush()
    }
}

pub use local::LocalShard;
pub use node::{spawn_loopback, ShardNode};
pub use remote::RemoteShard;

use crate::index::Knob;
use crate::metric::Metric;
use crate::snapshot::SnapshotError;
use crate::topk::Hit;
use std::fmt;

/// Why a transport operation failed. Every variant is a typed,
/// recoverable condition: the sharded layer fails over to a replica
/// when one exists and surfaces the error otherwise — no panics, no
/// silently wrong answers.
#[derive(Debug)]
pub enum TransportError {
    /// Socket-level failure (connect, read, write).
    Io(std::io::Error),
    /// The stream ended mid-frame — the peer dropped the connection.
    Truncated,
    /// The frame header does not start with the wire magic.
    BadMagic,
    /// The peer speaks a different wire protocol version.
    VersionMismatch { found: u8 },
    /// The frame checksum does not match its bytes.
    ChecksumMismatch,
    /// A frame declared a payload larger than the sanity ceiling.
    FrameTooLarge(u64),
    /// Structurally invalid frame or payload.
    Corrupt(&'static str),
    /// The index blob crossing the wire failed snapshot validation.
    Snapshot(SnapshotError),
    /// The remote node answered the request with an error.
    Remote(String),
    /// The node has no installed index to serve the request with.
    NoIndex,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport io error: {e}"),
            TransportError::Truncated => write!(f, "transport frame truncated (peer dropped)"),
            TransportError::BadMagic => write!(f, "not a shard wire frame (bad magic)"),
            TransportError::VersionMismatch { found } => {
                write!(f, "wire version {found} != supported {}", wire::WIRE_VERSION)
            }
            TransportError::ChecksumMismatch => write!(f, "wire frame checksum mismatch"),
            TransportError::FrameTooLarge(n) => write!(f, "wire frame of {n} bytes exceeds cap"),
            TransportError::Corrupt(what) => write!(f, "wire payload corrupt: {what}"),
            TransportError::Snapshot(e) => write!(f, "shipped index blob rejected: {e}"),
            TransportError::Remote(msg) => write!(f, "shard node error: {msg}"),
            TransportError::NoIndex => write!(f, "shard node has no installed index"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<SnapshotError> for TransportError {
    fn from(e: SnapshotError) -> Self {
        TransportError::Snapshot(e)
    }
}

/// [`Knob`]'s wire codes.
impl Knob {
    pub(crate) fn code(self) -> u8 {
        match self {
            Knob::Nprobe => 0,
            Knob::EfSearch => 1,
        }
    }

    pub(crate) fn from_code(c: u8) -> Result<Knob, TransportError> {
        match c {
            0 => Ok(Knob::Nprobe),
            1 => Ok(Knob::EfSearch),
            _ => Err(TransportError::Corrupt("unknown knob code")),
        }
    }
}

/// One shard of a [`crate::ShardedIndex`], wherever it lives.
///
/// The methods mirror the slice of [`crate::AnnIndex`] the composite
/// actually routes per shard, with two deliberate differences:
///
/// * everything takes `&self` — implementations use interior mutability
///   so one replica can be probed from the hedge thread while another
///   request is in flight;
/// * state transfer is blob-shaped: [`ShardTransport::install`] replaces
///   the shard's index with a deserialized snapshot blob (the "build"
///   step of shard shipping) and [`ShardTransport::snapshot_blob`]
///   fetches one back.
///
/// The cheap descriptive getters (`dim`/`len`/`metric`/`can_refresh`/
/// `train_generation`) are infallible: remote implementations cache them
/// from the node's replies to mutating calls rather than paying a round
/// trip per read.
pub trait ShardTransport: Send + Sync {
    /// Vector dimensionality of the installed index (0 when none).
    fn dim(&self) -> usize;

    /// Stored vector count of the installed index.
    fn len(&self) -> usize;

    /// No vectors stored (no index installed, or an empty one).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distance metric of the installed index.
    fn metric(&self) -> Metric;

    /// Whether the installed index applies [`ShardTransport::refresh`]
    /// in place (the composite's pre-mutation acceptance probe).
    fn can_refresh(&self) -> bool;

    /// Trained-structure generation of the installed index.
    fn train_generation(&self) -> u64;

    /// Human-readable endpoint ("local", `tcp://host:port`) for stats
    /// and error messages.
    fn endpoint(&self) -> String;

    /// Replace the shard's index with a deserialized snapshot blob
    /// (`family` tag + family-private payload, exactly what
    /// [`crate::AnnIndex::snapshot_blob`] produces).
    fn install(&self, family: u8, payload: &[u8]) -> Result<(), TransportError>;

    /// Append packed rows to the installed index.
    fn add_batch(&self, flat: &[f32]) -> Result<(), TransportError>;

    /// Incrementally update the installed index; `Ok(applied)` carries
    /// the child's in-place acceptance per the `AnnIndex` contract.
    fn refresh(&self, data: &[f32], changed: &[u32]) -> Result<bool, TransportError>;

    /// Top-`k` for many packed queries — the composite's only probe:
    /// one call per shard per batch (a single query is a batch of one).
    fn search_batch(&self, queries: &[f32], k: usize) -> Result<Vec<Vec<Hit>>, TransportError>;

    /// [`crate::AnnIndex::knob`] of the installed index.
    fn knob(&self, knob: Knob) -> Result<Option<(usize, usize)>, TransportError>;

    /// [`crate::AnnIndex::set_knob`] on the installed index.
    fn set_knob(&self, knob: Knob, width: usize) -> Result<bool, TransportError>;

    /// Fetch the shard's current index as a tagged snapshot blob.
    fn snapshot_blob(&self) -> Result<(u8, Vec<u8>), TransportError>;
}

/// Probe-side counters for one shard, accumulated by the composite's
/// scatter-gather layer (the first slice of the metrics registry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardProbeStats {
    /// Queries probed against this shard (each query of a batch counts
    /// once).
    pub probes: u64,
    /// Hedge requests fired after the p99-derived delay expired.
    pub hedges_fired: u64,
    /// Hedge requests whose response arrived before the primary's.
    pub hedges_won: u64,
    /// Probes recovered by synchronously failing over to a replica
    /// after the preferred replica returned an error.
    pub failovers: u64,
    /// Probes that failed on every replica.
    pub errors: u64,
}

impl ShardProbeStats {
    fn add(&mut self, other: &ShardProbeStats) {
        self.probes += other.probes;
        self.hedges_fired += other.hedges_fired;
        self.hedges_won += other.hedges_won;
        self.failovers += other.failovers;
        self.errors += other.errors;
    }
}

/// Point-in-time per-shard probe counters of one sharded index (or a
/// merge of several — see [`ShardStatsSnapshot::merge`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardProbeStats>,
}

impl ShardStatsSnapshot {
    /// Aggregate counters over all shards.
    pub fn total(&self) -> ShardProbeStats {
        let mut t = ShardProbeStats::default();
        for s in &self.shards {
            t.add(s);
        }
        t
    }

    /// Probe imbalance: max over mean of per-shard probe counts. 1.0 is
    /// a perfectly balanced fan-out (round-robin probing keeps it there
    /// unless shards error out of probes); 0.0 means no probes yet.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.shards.iter().map(|s| s.probes).sum();
        if total == 0 || self.shards.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / self.shards.len() as f64;
        let max = self.shards.iter().map(|s| s.probes).max().unwrap_or(0) as f64;
        max / mean
    }

    /// Element-wise accumulate `other` (padding with zero shards), for
    /// aggregating across committee members.
    pub fn merge(&mut self, other: &ShardStatsSnapshot) {
        if self.shards.len() < other.shards.len() {
            self.shards.resize(other.shards.len(), ShardProbeStats::default());
        }
        for (mine, theirs) in self.shards.iter_mut().zip(&other.shards) {
            mine.add(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_is_max_over_mean() {
        let snap = ShardStatsSnapshot {
            shards: vec![
                ShardProbeStats { probes: 30, ..Default::default() },
                ShardProbeStats { probes: 10, ..Default::default() },
            ],
        };
        assert!((snap.imbalance() - 1.5).abs() < 1e-12);
        assert_eq!(snap.total().probes, 40);
        assert_eq!(ShardStatsSnapshot::default().imbalance(), 0.0);
    }

    #[test]
    fn merge_pads_and_sums() {
        let mut a = ShardStatsSnapshot {
            shards: vec![ShardProbeStats { probes: 1, ..Default::default() }],
        };
        let b = ShardStatsSnapshot {
            shards: vec![
                ShardProbeStats { probes: 2, hedges_fired: 1, ..Default::default() },
                ShardProbeStats { probes: 3, ..Default::default() },
            ],
        };
        a.merge(&b);
        assert_eq!(a.shards.len(), 2);
        assert_eq!(a.shards[0].probes, 3);
        assert_eq!(a.shards[0].hedges_fired, 1);
        assert_eq!(a.shards[1].probes, 3);
    }

    #[test]
    fn knob_codes_roundtrip() {
        for k in [Knob::Nprobe, Knob::EfSearch] {
            assert_eq!(Knob::from_code(k.code()).unwrap(), k);
        }
        assert!(matches!(Knob::from_code(9), Err(TransportError::Corrupt(_))));
    }
}
