//! # dial-core
//!
//! The DIAL system (paper §3): a transformer-based matcher and an
//! Index-By-Committee blocker trained *together* inside an active-learning
//! loop, with surprisingly different training data (random vs hard
//! negatives) and objectives (contrastive vs cross-entropy).
//!
//! Main entry point: [`DialSystem`] configured by [`DialConfig`].
//!
//! ```no_run
//! use dial_core::{DialConfig, DialSystem};
//! use dial_datasets::{Benchmark, ScaleProfile};
//!
//! let data = Benchmark::AbtBuy.generate(ScaleProfile::Smoke, 0);
//! let mut system = DialSystem::new(DialConfig::smoke());
//! let result = system.run(&data, None);
//! println!("final all-pairs F1 = {:.3}", result.last().all_pairs.f1);
//! ```

pub mod al;
pub mod blocker;
pub mod cache;
pub mod candidates;
pub mod config;
pub mod encode;
pub mod engine;
pub mod eval;
pub mod matcher;
pub mod oracle;
pub mod select;
pub mod serve;

pub use al::{DialSystem, RoundMetrics, RoundTimings, RunResult};
pub use blocker::{Committee, CommitteeMember, COMMITTEE_PREFIX};
pub use cache::{CacheLookup, ResultCache};
pub use candidates::{index_by_committee, index_single, Candidate, CandidateSet};
pub use config::{
    BlockerObjective, BlockingStrategy, CandSize, DialConfig, IndexBackend, NegativeSource,
    SelectionStrategy,
};
pub use dial_ann::RowFormat;
pub use encode::{encode_list, ListEmbeddings};
pub use engine::{
    recall_at_k, EngineRoundStats, RetrievalEngine, TuneConfig, TuneStep, TuningOutcome,
};
pub use eval::{all_pairs_prf, blocker_recall, test_prf, Prf};
pub use matcher::{Matcher, PairScratch, MATCHER_PREFIX};
pub use oracle::Oracle;
pub use select::{entropy, select, SelectionInputs};
pub use serve::{
    ManualClock, MonotonicClock, QueryService, ServeClock, ServeConfig, ServeError, ServeResponse,
    ServeStats, Ticket, ADMISSION_BLOCK,
};
