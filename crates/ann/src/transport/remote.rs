//! The socket shard transport: client for a [`super::ShardNode`].

use super::wire::{self, NodeInfo};
use super::{ShardTransport, TransportError};
use crate::index::Knob;
use crate::metric::Metric;
use crate::snapshot::{self, SnapshotReader, SnapshotWriter};
use crate::topk::Hit;
use std::net::TcpStream;
use std::sync::Mutex;

/// A shard served by a `shardd` node over TCP.
///
/// One connection, reused across calls and re-dialed on the next call
/// after any error (the failed call itself still reports its typed
/// error — the *caller* decides whether to retry or fail over to a
/// replica). Descriptive state (`dim`/`len`/…) is cached from the
/// node's replies to mutating calls, so the infallible trait getters
/// never touch the socket.
pub struct RemoteShard {
    addr: String,
    conn: Mutex<Option<TcpStream>>,
    info: Mutex<NodeInfo>,
}

impl std::fmt::Debug for RemoteShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShard").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl RemoteShard {
    /// Dial the node and fetch its current descriptive state.
    pub fn connect(addr: impl Into<String>) -> Result<RemoteShard, TransportError> {
        let shard = RemoteShard {
            addr: addr.into(),
            conn: Mutex::new(None),
            info: Mutex::new(NodeInfo::default()),
        };
        let payload = shard.call(wire::OP_INFO, &[])?;
        shard.cache_info(&payload)?;
        Ok(shard)
    }

    /// The node address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One request/response round trip. The connection mutex is held
    /// across the exchange, so concurrent callers of one replica
    /// serialize — the sharded layer hedges across *replicas*, not by
    /// multiplexing one socket.
    fn call(&self, opcode: u8, payload: &[u8]) -> Result<Vec<u8>, TransportError> {
        let mut guard = self.conn.lock().expect("remote shard conn lock");
        if guard.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            let _ = stream.set_nodelay(true);
            *guard = Some(stream);
        }
        let stream = guard.as_mut().expect("connection just established");
        let exchanged =
            wire::write_frame(stream, opcode, payload).and_then(|()| wire::read_frame(stream));
        match exchanged {
            // An application-level error leaves the stream frame-aligned;
            // keep the connection.
            Ok((op, resp)) if op == wire::RESP_ERR => Err(wire::decode_err(&resp)),
            Ok((op, resp)) if op == wire::RESP_OK => Ok(resp),
            Ok(_) => {
                *guard = None;
                Err(TransportError::Corrupt("unexpected response opcode"))
            }
            // Transport-level failure: the stream may be desynced or
            // dead — drop it so the next call re-dials.
            Err(e) => {
                *guard = None;
                Err(e)
            }
        }
    }

    fn cache_info(&self, payload: &[u8]) -> Result<(), TransportError> {
        let mut r = SnapshotReader::new(payload);
        let info = wire::decode_info_from(&mut r)?;
        r.finish()?;
        *self.info.lock().expect("remote shard info lock") = info;
        Ok(())
    }

    fn cached(&self) -> NodeInfo {
        *self.info.lock().expect("remote shard info lock")
    }

    /// Liveness check: one empty round trip.
    pub fn ping(&self) -> Result<(), TransportError> {
        self.call(wire::OP_PING, &[]).map(|_| ())
    }
}

impl ShardTransport for RemoteShard {
    fn dim(&self) -> usize {
        self.cached().dim
    }

    fn len(&self) -> usize {
        self.cached().len
    }

    fn metric(&self) -> Metric {
        snapshot::metric_from_code(self.cached().metric_code).unwrap_or(Metric::L2)
    }

    fn can_refresh(&self) -> bool {
        self.cached().can_refresh
    }

    fn train_generation(&self) -> u64 {
        self.cached().train_generation
    }

    fn endpoint(&self) -> String {
        format!("tcp://{}", self.addr)
    }

    fn install(&self, family: u8, payload: &[u8]) -> Result<(), TransportError> {
        // Shard shipping is snapshot shipping: the wire payload is a
        // complete snapshot file image, validated node-side exactly
        // like one loaded from disk.
        let resp = self.call(wire::OP_INSTALL, &snapshot::encode_file(family, payload))?;
        self.cache_info(&resp)
    }

    fn add_batch(&self, flat: &[f32]) -> Result<(), TransportError> {
        let mut w = SnapshotWriter::new();
        w.put_f32_slice(flat);
        let resp = self.call(wire::OP_ADD, &w.into_bytes())?;
        self.cache_info(&resp)
    }

    fn refresh(&self, data: &[f32], changed: &[u32]) -> Result<bool, TransportError> {
        let mut w = SnapshotWriter::new();
        w.put_f32_slice(data);
        w.put_u32_slice(changed);
        let resp = self.call(wire::OP_REFRESH, &w.into_bytes())?;
        let mut r = SnapshotReader::new(&resp);
        let applied = r.get_u8()? != 0;
        let info = wire::decode_info_from(&mut r)?;
        r.finish()?;
        *self.info.lock().expect("remote shard info lock") = info;
        Ok(applied)
    }

    fn search_batch(&self, queries: &[f32], k: usize) -> Result<Vec<Vec<Hit>>, TransportError> {
        let resp = self.call(wire::OP_SEARCH, &wire::encode_search_req(queries, k))?;
        let hits = wire::decode_hits(&resp)?;
        let nq = if self.dim() == 0 { 0 } else { queries.len() / self.dim() };
        if hits.len() != nq {
            return Err(TransportError::Corrupt("hit list count != query count"));
        }
        Ok(hits)
    }

    fn knob(&self, knob: Knob) -> Result<Option<(usize, usize)>, TransportError> {
        let mut w = SnapshotWriter::new();
        w.put_u8(knob.code());
        let resp = self.call(wire::OP_KNOB_GET, &w.into_bytes())?;
        let mut r = SnapshotReader::new(&resp);
        let present = r.get_u8()? != 0;
        let got = if present { Some((r.get_usize()?, r.get_usize()?)) } else { None };
        r.finish()?;
        Ok(got)
    }

    fn set_knob(&self, knob: Knob, width: usize) -> Result<bool, TransportError> {
        let mut w = SnapshotWriter::new();
        w.put_u8(knob.code());
        w.put_usize(width);
        let resp = self.call(wire::OP_KNOB_SET, &w.into_bytes())?;
        let mut r = SnapshotReader::new(&resp);
        let applied = r.get_u8()? != 0;
        r.finish()?;
        Ok(applied)
    }

    fn snapshot_blob(&self) -> Result<(u8, Vec<u8>), TransportError> {
        let resp = self.call(wire::OP_SNAPSHOT, &[])?;
        let (family, payload) = snapshot::decode_file(&resp)?;
        Ok((family, payload.to_vec()))
    }
}
