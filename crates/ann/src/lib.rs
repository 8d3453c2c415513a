//! # dial-ann
//!
//! Nearest-neighbour search substrate — the reproduction's stand-in for
//! FAISS [Johnson et al. 2021], which DIAL uses to index committee
//! embeddings of list `R` and probe them with embeddings of list `S`.
//!
//! Four index families mirror the FAISS types relevant to the paper:
//!
//! * [`FlatIndex`] — exact brute-force scan (default blocker index);
//! * [`IvfFlatIndex`] — inverted lists under a k-means coarse quantizer
//!   with an `nprobe` recall/latency knob;
//! * [`PqIndex`] — product-quantized codes scored by asymmetric distance
//!   computation (cosine served by pre-normalization);
//! * [`HnswIndex`] — hierarchical navigable small-world graphs.
//!
//! Any of them can additionally be wrapped into a [`ShardedIndex`]
//! (`IndexSpec::Sharded`): rows split round-robin across per-shard child
//! indexes built concurrently, probes fanned across shards and combined
//! with the [`merge_topk`] k-way merge — the scale-out step toward
//! multi-core (and later multi-node) serving.
//!
//! Every family's distance scan runs on the blocked batch kernels in
//! [`kernels`] — norm-decomposed, lane-accumulated query-block × row-block
//! tiles with per-index precomputed row norms — rather than one scalar
//! [`Metric::distance`](metric::Metric::distance) call per `(query, row)`
//! pair. The kernels dispatch at runtime to explicit SIMD (AVX2 on
//! x86-64, NEON on aarch64) with the autovectorized loops as a
//! bitwise-identical fallback, and the scan families (Flat, IVF-Flat,
//! Sharded) can store rows half-width ([`rowstore`]: f16 / bf16) to
//! halve scan memory traffic, trading exact-ranking parity for a
//! recall-gated approximation.
//!
//! All families implement the object-safe [`AnnIndex`] trait and build
//! through [`IndexSpec`], so the backend is a runtime choice —
//! `dial-core` plumbs it from `DialConfig` down to Index-By-Committee
//! retrieval.
//!
//! Every trained index also serializes into a versioned, checksummed
//! on-disk snapshot ([`snapshot`]): `AnnIndex::save_snapshot` writes it,
//! [`IndexSpec::load_snapshot`] loads it back with full spec validation,
//! and a loaded index probes bitwise like the one that was saved — so a
//! process restart pays file I/O instead of k-means / graph
//! construction.
//!
//! [`kmeans`] (with k-means++ seeding) is exported for reuse by the BADGE
//! selector in `dial-core`.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod flat;
pub mod hnsw;
pub mod index;
pub mod ivf;
pub mod kernels;
pub mod kmeans;
pub mod metric;
pub mod pq;
pub mod rowstore;
pub mod sharded;
pub mod snapshot;
pub mod topk;
pub mod transport;

pub use flat::FlatIndex;
pub use hnsw::{HnswIndex, HnswParams};
pub use index::{AnnIndex, IndexSpec, Knob, PqParams};
pub use ivf::{IvfFlatIndex, IvfParams, RETRAIN_GROWTH};
pub use kernels::{
    cosine_batch, force_scalar, set_force_scalar, simd_label, simd_level, sq_l2_batch, SimdLevel,
};
pub use kmeans::{kmeans, kmeans_pp_seed, KMeans};
pub use metric::{normalize, sq_l2, Metric};
pub use pq::{PqIndex, ProductQuantizer};
pub use rowstore::{RowFormat, RowStore, RowsView};
pub use sharded::{ShardHandle, ShardedIndex};
pub use snapshot::{
    load_index, save_member, save_member_blob, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use topk::{merge_topk, Hit, TopK};
pub use transport::{
    spawn_loopback, LocalShard, RemoteShard, ShardNode, ShardProbeStats, ShardStatsSnapshot,
    ShardTransport, TransportError,
};
