//! The shard node: the server side of the wire protocol.
//!
//! [`ShardNode`] owns a TCP listener and (at most) one installed index.
//! `shardd` (the node binary) binds one and blocks in
//! [`ShardNode::run`]; tests and benches use [`spawn_loopback`] to get
//! the same accept loop on a detached thread inside this process —
//! loopback TCP with all the marshalling, none of the process
//! management.
//!
//! One thread per connection; the index sits behind a `RwLock`, so
//! concurrent searches from several connections share the read side
//! while installs and refreshes serialize on the write side. Every
//! request error (unknown opcode, no index installed, rejected blob, bad
//! payload) is reported to the client as an error frame and the
//! connection stays open; protocol-level garbage (bad magic, checksum
//! failure) gets one error frame and the connection closed, since the
//! stream can no longer be trusted to be frame-aligned.

use super::wire::{self, NodeInfo};
use super::TransportError;
use crate::index::{AnnIndex, Knob};
use crate::snapshot::{self, SnapshotWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, RwLock};

struct NodeState {
    index: RwLock<Option<Box<dyn AnnIndex>>>,
}

/// A bound, not-yet-serving shard node.
pub struct ShardNode {
    listener: TcpListener,
    state: Arc<NodeState>,
}

impl ShardNode {
    /// Bind the listener; `127.0.0.1:0` picks a free loopback port.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<ShardNode> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(NodeState { index: RwLock::new(None) });
        Ok(ShardNode { listener, state })
    }

    /// The actual bound address (resolves the `:0` port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has a local address")
    }

    /// Serve forever on the calling thread: accept connections, one
    /// handler thread each. Only returns if the listener itself fails.
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            let stream = stream?;
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || handle_conn(&state, stream));
        }
        Ok(())
    }

    /// Detach the accept loop onto a background thread and return the
    /// bound address — the in-process loopback deployment for tests and
    /// benches. The thread lives until the process exits.
    pub fn spawn(self) -> SocketAddr {
        let addr = self.local_addr();
        std::thread::spawn(move || {
            let _ = self.run();
        });
        addr
    }
}

/// Bind a fresh loopback shard node on a free port and serve it from a
/// detached background thread.
pub fn spawn_loopback() -> std::io::Result<SocketAddr> {
    ShardNode::bind("127.0.0.1:0").map(ShardNode::spawn)
}

fn handle_conn(state: &NodeState, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    loop {
        let (op, payload) = match wire::read_frame(&mut stream) {
            Ok(frame) => frame,
            // The client went away (clean close or mid-frame drop).
            Err(TransportError::Io(_)) | Err(TransportError::Truncated) => return,
            // Protocol garbage: answer once, then close — after a bad
            // header the stream is not frame-aligned anymore.
            Err(e) => {
                let _ = wire::write_frame(&mut stream, wire::RESP_ERR, &wire::encode_err(&e));
                return;
            }
        };
        let write = match dispatch(state, op, &payload) {
            Ok(resp) => wire::write_frame(&mut stream, wire::RESP_OK, &resp),
            Err(e) => wire::write_frame(&mut stream, wire::RESP_ERR, &wire::encode_err(&e)),
        };
        if write.is_err() {
            return;
        }
    }
}

fn info_of(index: &Option<Box<dyn AnnIndex>>) -> NodeInfo {
    match index {
        Some(ix) => NodeInfo {
            dim: ix.dim(),
            len: ix.len(),
            metric_code: snapshot::metric_code(ix.metric()),
            can_refresh: ix.can_refresh(),
            train_generation: ix.train_generation(),
        },
        None => NodeInfo::default(),
    }
}

fn info_resp(index: &Option<Box<dyn AnnIndex>>) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    wire::encode_info_into(&mut w, &info_of(index));
    w.into_bytes()
}

fn dispatch(state: &NodeState, op: u8, payload: &[u8]) -> Result<Vec<u8>, TransportError> {
    use crate::snapshot::SnapshotReader;
    match op {
        wire::OP_PING => Ok(Vec::new()),
        wire::OP_INFO => {
            let guard = state.index.read().expect("node index lock");
            Ok(info_resp(&guard))
        }
        wire::OP_INSTALL => {
            // The payload is a complete snapshot file image — decode it
            // with the same validation a disk snapshot gets.
            let (family, blob) = snapshot::decode_file(payload)?;
            let loaded = snapshot::load_child(family, blob)?;
            let mut guard = state.index.write().expect("node index lock");
            *guard = Some(loaded);
            Ok(info_resp(&guard))
        }
        wire::OP_ADD => {
            let mut r = SnapshotReader::new(payload);
            let flat = r.get_f32_slice()?;
            r.finish()?;
            let mut guard = state.index.write().expect("node index lock");
            let ix = guard.as_mut().ok_or(TransportError::NoIndex)?;
            ix.add_batch(&flat);
            Ok(info_resp(&guard))
        }
        wire::OP_REFRESH => {
            let mut r = SnapshotReader::new(payload);
            let data = r.get_f32_slice()?;
            let changed = r.get_u32_slice()?;
            r.finish()?;
            let mut guard = state.index.write().expect("node index lock");
            let ix = guard.as_mut().ok_or(TransportError::NoIndex)?;
            let applied = ix.refresh(&data, &changed);
            let mut w = SnapshotWriter::new();
            w.put_u8(applied as u8);
            wire::encode_info_into(&mut w, &info_of(&guard));
            Ok(w.into_bytes())
        }
        wire::OP_SEARCH => {
            let (k, queries) = wire::decode_search_req(payload)?;
            let guard = state.index.read().expect("node index lock");
            let ix = guard.as_ref().ok_or(TransportError::NoIndex)?;
            if ix.dim() == 0 || !queries.len().is_multiple_of(ix.dim()) {
                return Err(TransportError::Corrupt("query batch length"));
            }
            Ok(wire::encode_hits(&ix.search_batch(&queries, k)))
        }
        wire::OP_KNOB_GET => {
            let mut r = SnapshotReader::new(payload);
            let knob = Knob::from_code(r.get_u8()?)?;
            r.finish()?;
            let guard = state.index.read().expect("node index lock");
            let ix = guard.as_ref().ok_or(TransportError::NoIndex)?;
            let mut w = SnapshotWriter::new();
            match ix.knob(knob) {
                Some((max, cur)) => {
                    w.put_u8(1);
                    w.put_usize(max);
                    w.put_usize(cur);
                }
                None => w.put_u8(0),
            }
            Ok(w.into_bytes())
        }
        wire::OP_KNOB_SET => {
            let mut r = SnapshotReader::new(payload);
            let knob = Knob::from_code(r.get_u8()?)?;
            let width = r.get_usize()?;
            r.finish()?;
            let mut guard = state.index.write().expect("node index lock");
            let ix = guard.as_mut().ok_or(TransportError::NoIndex)?;
            let applied = ix.set_knob(knob, width);
            let mut w = SnapshotWriter::new();
            w.put_u8(applied as u8);
            Ok(w.into_bytes())
        }
        wire::OP_SNAPSHOT => {
            let guard = state.index.read().expect("node index lock");
            let ix = guard.as_ref().ok_or(TransportError::NoIndex)?;
            let (family, blob) = ix.snapshot_blob();
            // Ship it back as a full snapshot file image, checksum and
            // all — symmetric with OP_INSTALL.
            Ok(snapshot::encode_file(family, &blob))
        }
        _ => Err(TransportError::Corrupt("unknown request opcode")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_opcodes_get_an_error_frame_and_keep_the_connection() {
        let mut stream = TcpStream::connect(spawn_loopback().unwrap()).unwrap();
        let want = wire::encode_err(&TransportError::Corrupt("unknown request opcode"));
        // 0 is below the assigned request codes, 10 is the first one past
        // them, 255 is the last byte value.
        for op in [0u8, 10, 255] {
            wire::write_frame(&mut stream, op, &[]).unwrap();
            let (resp, payload) = wire::read_frame(&mut stream).unwrap();
            assert_eq!(resp, wire::RESP_ERR, "opcode {op}");
            assert_eq!(payload, want, "opcode {op}");
        }
        // The stream stayed frame-aligned: the same connection still serves.
        wire::write_frame(&mut stream, wire::OP_PING, &[]).unwrap();
        assert_eq!(wire::read_frame(&mut stream).unwrap(), (wire::RESP_OK, Vec::new()));
    }
}
