//! The in-process shard transport: no marshalling, same probe path.
//!
//! [`crate::ShardedIndex`] probes a `LocalShard` exactly as it probes a
//! [`super::RemoteShard`] — one [`ShardTransport::search_batch`] per
//! shard per batch, merged per query — so an in-process composite runs
//! each child's blocked batch kernel instead of one single-query probe
//! per query. Knobs pass straight through to [`AnnIndex::knob`] /
//! [`AnnIndex::set_knob`].

use super::{ShardTransport, TransportError};
use crate::index::{AnnIndex, Knob};
use crate::metric::Metric;
use crate::snapshot;
use crate::topk::Hit;
use std::sync::RwLock;

/// A shard hosted in this process: the child index behind a read-write
/// lock (probes share the read side, mutations take the write side).
/// Every operation is infallible in practice — the `Result` signatures
/// exist for the trait; only [`LocalShard::install`] can actually fail,
/// on a rejected blob.
pub struct LocalShard {
    index: RwLock<Box<dyn AnnIndex>>,
}

impl LocalShard {
    pub fn new(index: Box<dyn AnnIndex>) -> Self {
        LocalShard { index: RwLock::new(index) }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Box<dyn AnnIndex>> {
        self.index.read().expect("local shard lock poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Box<dyn AnnIndex>> {
        self.index.write().expect("local shard lock poisoned")
    }
}

impl ShardTransport for LocalShard {
    fn dim(&self) -> usize {
        self.read().dim()
    }

    fn len(&self) -> usize {
        self.read().len()
    }

    fn metric(&self) -> Metric {
        self.read().metric()
    }

    fn can_refresh(&self) -> bool {
        self.read().can_refresh()
    }

    fn train_generation(&self) -> u64 {
        self.read().train_generation()
    }

    fn endpoint(&self) -> String {
        "local".into()
    }

    fn install(&self, family: u8, payload: &[u8]) -> Result<(), TransportError> {
        let loaded = snapshot::load_child(family, payload)?;
        *self.write() = loaded;
        Ok(())
    }

    fn add_batch(&self, flat: &[f32]) -> Result<(), TransportError> {
        self.write().add_batch(flat);
        Ok(())
    }

    fn refresh(&self, data: &[f32], changed: &[u32]) -> Result<bool, TransportError> {
        Ok(self.write().refresh(data, changed))
    }

    fn search_batch(&self, queries: &[f32], k: usize) -> Result<Vec<Vec<Hit>>, TransportError> {
        Ok(self.read().search_batch(queries, k))
    }

    fn knob(&self, knob: Knob) -> Result<Option<(usize, usize)>, TransportError> {
        Ok(self.read().knob(knob))
    }

    fn set_knob(&self, knob: Knob, width: usize) -> Result<bool, TransportError> {
        Ok(self.write().set_knob(knob, width))
    }

    fn snapshot_blob(&self) -> Result<(u8, Vec<u8>), TransportError> {
        Ok(self.read().snapshot_blob())
    }
}
