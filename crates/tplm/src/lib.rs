//! # dial-tplm
//!
//! The transformer-based pre-trained language model (TPLM) substitute used
//! by the DIAL reproduction: a from-scratch mini transformer encoder
//! ([`Tplm`]) supporting both invocation modes the paper depends on
//! (§2.2) —
//!
//! * **paired mode** — `[CLS] r [SEP] s [SEP]`, CLS embedding used by the
//!   matcher;
//! * **single mode** — `[CLS] x [SEP]`, mean-pooled token embeddings used
//!   by the blocker —
//!
//! plus a pre-training substitute ([`pretrain`]) that instills
//! distributional token semantics via skip-gram negative sampling and can
//! simulate multilingual BERT's noisy cross-lingual alignment.
//!
//! Training runs the encoder on a `dial_tensor::Graph` tape
//! ([`Tplm::encode`]); everything that is not differentiated — list
//! encoding, candidate scoring — runs the same kernel calls graph-free into
//! a reusable [`EncodeScratch`] ([`Tplm::encode_into`]), bitwise equal.
//!
//! Trunk parameters are registered under the [`TRUNK_PREFIX`] name prefix so
//! callers can freeze the trunk (blocker) or give it a smaller learning rate
//! (matcher), and snapshot/restore it between active-learning rounds.

pub mod config;
pub mod model;
pub mod pretrain;

pub use config::TplmConfig;
pub use model::{EncodeScratch, Tplm, TRUNK_PREFIX};
pub use pretrain::{inject_alignment, pretrain_sgns, row_cosine, PretrainConfig};
