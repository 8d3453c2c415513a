//! The persistent committee retrieval engine.
//!
//! [`index_by_committee`](crate::candidates::index_by_committee) rebuilds
//! every member's ANN index from scratch each round and probes members
//! strictly in sequence, so indexing latency is paid in full even when
//! the frozen trunk barely moves between AL rounds. [`RetrievalEngine`]
//! is the stateful replacement the AL loop keeps alive across rounds; it
//! attacks both halves of that cost:
//!
//! 1. **Incremental maintenance.** The engine caches each member's
//!    previous-round embedding rows next to its built index. At the next
//!    round it measures the drift — the mean cosine shift of the new
//!    rows against the cached ones — and, when the drift is at or below
//!    [`DialConfig::incremental_threshold`](crate::config::DialConfig),
//!    updates the live index in place through [`AnnIndex::refresh`]
//!    (bitwise row overwrite + `add_batch` for appended rows) instead of
//!    rebuilding. Families that cannot update in place (PQ, HNSW)
//!    decline the refresh and fall back to a from-scratch build, as does
//!    any member whose drift exceeds the threshold. At the default
//!    threshold of `0.0` the incremental path only engages when no
//!    stored row changed at all (the drift measure is scale-invariant,
//!    so a strictly-zero threshold refuses overwrites outright). With
//!    the row set also unchanged — the AL-loop case, where the indexed
//!    list never grows between rounds — the refresh is a no-op and
//!    therefore exact for every family; appended rows ride the family's
//!    `add_batch` contract instead (bitwise a rebuild for flat
//!    families, assign-against-trained-structures for quantized ones).
//!    The changed-row set is computed by *bitwise* comparison, never
//!    from the drift measure, so an engaged refresh stores exactly the
//!    new rows.
//!
//! 2. **Pipelined build/probe.** Member indexes stream from a builder
//!    thread to the probing thread through a bounded FIFO channel
//!    (`std::sync::mpsc::sync_channel` of capacity `pipeline_depth`), so
//!    member *i*'s (sharded, parallel) build overlaps member *i−1*'s
//!    `search_batch` probes — the dominant latency term is hidden instead
//!    of shrunk. Per-member hit lists are kept in member-id-tagged slots
//!    and concatenated in member order before the
//!    [`CandidateSet::from_scored`] merge, so the pipelined candidate set
//!    is identical to the sequential one (`pipeline_depth = 0` runs the
//!    strictly sequential path, so a zero-capacity rendezvous channel is
//!    never built). A builder that panics drops its sender on unwind: the
//!    probing loop drains what was sent and the scope re-raises the
//!    panic, so a failed build ends the round loudly, never in a hang.

use crate::candidates::{probe_blocked, Candidate, CandidateSet};
use crate::encode::ListEmbeddings;
use dial_ann::{save_member_blob, AnnIndex, FlatIndex, Hit, IndexSpec, Metric, RowFormat};
use std::path::PathBuf;
use std::sync::mpsc::sync_channel;
use std::thread::JoinHandle;
use std::time::Instant;

/// One committee member's persistent retrieval state: the live index and
/// the packed embedding rows it currently stores (the drift baseline and
/// changed-row reference for the next round).
struct MemberState {
    index: Box<dyn AnnIndex>,
    rows: Vec<f32>,
}

/// How one member's index came to be this round.
struct BuildInfo {
    secs: f64,
    incremental: bool,
    drift: f64,
    /// An in-place refresh retrained the member's coarse quantizer
    /// (growth-triggered, [`dial_ann::RETRAIN_GROWTH`]): the probe-width
    /// ceiling changed under the calibration, which must rerun.
    retrained: bool,
}

/// Aggregate timings and reuse counters of the engine's last round.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineRoundStats {
    /// Seconds spent building or refreshing member indexes (summed over
    /// members; runs on the builder thread when pipelined).
    pub build_secs: f64,
    /// Seconds spent probing member indexes (summed over members; always
    /// on the calling thread).
    pub probe_secs: f64,
    /// Wall-clock seconds of the whole retrieval. With the pipeline on,
    /// `build_secs + probe_secs > wall_secs` measures the overlap won.
    pub wall_secs: f64,
    /// Members whose index was refreshed in place.
    pub incremental_members: usize,
    /// Members rebuilt from scratch (drift above threshold, first round,
    /// shape change, or a family that declines in-place refresh).
    pub rebuilt_members: usize,
    /// Mean embedding drift (cosine shift) across members that had a
    /// previous round to compare against.
    pub mean_drift: f64,
}

/// Calibration knobs of the observed-metrics auto-tuner (see
/// [`RetrievalEngine::with_tuning`]).
#[derive(Debug, Clone, Copy)]
pub struct TuneConfig {
    /// Recall@k the `nprobe` sweep aims for before it stops climbing.
    pub recall_target: f64,
    /// Held-out probes of `S` measured per sweep step (clamped to `|S|`).
    pub sample: usize,
    /// Marginal-recall flattening threshold: the sweep stops doubling
    /// `nprobe` once one doubling buys less recall than this.
    pub epsilon: f64,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig { recall_target: 0.95, sample: 256, epsilon: 0.01 }
    }
}

/// One measured step of the calibration sweep.
#[derive(Debug, Clone, Copy)]
pub struct TuneStep {
    /// The knob width this step probed at (`nprobe` for IVF-backed
    /// specs, `ef_search` for HNSW-backed ones).
    pub width: usize,
    /// recall@k of the sample probes against the exact flat ground truth.
    pub recall: f64,
    /// Wall-clock nanoseconds per sample query at this width (recorded
    /// for the report; the *choice* never consults latency, so the tuner
    /// is deterministic on a noisy host).
    pub probe_ns_per_query: f64,
}

/// What the calibration stage measured and decided.
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// Which knob the sweep turned: `"nprobe"` (IVF-backed specs) or
    /// `"ef_search"` (HNSW-backed).
    pub knob: String,
    /// Largest meaningful width: the smallest per-shard `nlist` for the
    /// probe knob, the smallest shard's node count for the beam knob.
    pub ceiling: usize,
    /// The static heuristic's width — what the run would have used
    /// untuned.
    pub static_width: usize,
    /// The tuned width every member index now probes at.
    pub chosen_width: usize,
    /// Shard count of the calibrated spec.
    pub shards: usize,
    /// Held-out probes measured per step.
    pub sample: usize,
    /// Neighbours per probe the recall was measured at.
    pub k: usize,
    /// Measured recall@k at `static_width` / at `chosen_width`.
    pub static_recall: f64,
    pub chosen_recall: f64,
    /// Every measured step, ascending by width.
    pub steps: Vec<TuneStep>,
    /// Wall-clock cost of the whole calibration (ground truth + build +
    /// sweep).
    pub calibrate_secs: f64,
}

/// Persistent, pipelined Index-By-Committee retrieval (see the module
/// docs). Create once per AL run and call
/// [`RetrievalEngine::retrieve_committee`] /
/// [`RetrievalEngine::retrieve_single`] each round.
pub struct RetrievalEngine {
    spec: IndexSpec,
    incremental_threshold: f64,
    pipeline_depth: usize,
    /// Storage format for member-index scan rows (see
    /// [`RetrievalEngine::set_rows`]); calibration ground truth always
    /// scans the uncompressed f32 rows.
    rows: RowFormat,
    members: Vec<MemberState>,
    last: EngineRoundStats,
    tune: Option<TuneConfig>,
    /// Calibration already ran against the current quantizer generation;
    /// cleared by [`RetrievalEngine::reset`] and by quantizer-
    /// invalidating rebuilds (a member with prior state rebuilt from
    /// scratch, i.e. retrained on drifted rows).
    calibrated: bool,
    /// The spec's knob width before any calibration touched it — the
    /// static heuristic's width, and the recall floor every calibration
    /// (including recalibrations after the spec was already tuned)
    /// measures itself against.
    baseline_width: Option<usize>,
    tuning: Option<TuningOutcome>,
    /// Directory for member snapshots (see
    /// [`RetrievalEngine::set_snapshot`]); `None` disables persistence.
    snapshot_dir: Option<PathBuf>,
    /// The embedding width snapshots were validated against at load.
    snapshot_dim: usize,
    /// First-round member snapshots already written (or handed to the
    /// saver thread) for this engine lifetime.
    snapshot_saved: bool,
    /// Background snapshot loader: spawned by `set_snapshot` so the file
    /// reads and structural validation overlap whatever the caller does
    /// before the first retrieval (round-0 committee training in the AL
    /// loop); joined — double-buffer style, between probe rounds, never
    /// mid-probe — at the first `retrieve`.
    loader: Option<JoinHandle<(Vec<MemberState>, f64)>>,
    /// Background snapshot saver: blobs are serialized on the retrieve
    /// thread (memory-speed), files are written here, overlapping the AL
    /// loop's selection stage.
    saver: Option<JoinHandle<f64>>,
    /// Seconds of background snapshot work (load + save) accumulated
    /// since the last [`RetrievalEngine::take_background_secs`].
    bg_secs: f64,
}

/// Mean cosine shift between two equal-length packed row sets: the
/// average over rows of `1 − cos(old_row, new_row)`, clamped at 0 per
/// row (rounding can push an unchanged row a few ulps negative). A pair
/// with both rows zero contributes 0; a pair where exactly one side is
/// zero contributes the full shift of 1.
fn mean_cosine_shift(old: &[f32], new: &[f32], dim: usize) -> f64 {
    debug_assert_eq!(old.len(), new.len());
    let n = old.len() / dim;
    if n == 0 {
        return 0.0;
    }
    let mut acc = 0.0f64;
    for (o, w) in old.chunks(dim).zip(new.chunks(dim)) {
        if o == w {
            // Bitwise-identical rows shift by exactly 0 — the computed
            // `1 − dot/(‖o‖·‖w‖)` can land a few ulps off zero, which
            // would wrongly disqualify the drift = 0 incremental path at
            // the default threshold of 0.0.
            continue;
        }
        let (mut dot, mut no, mut nw) = (0.0f64, 0.0f64, 0.0f64);
        for (&a, &b) in o.iter().zip(w) {
            dot += a as f64 * b as f64;
            no += (a as f64) * (a as f64);
            nw += (b as f64) * (b as f64);
        }
        let shift = match (no == 0.0, nw == 0.0) {
            (true, true) => 0.0,
            (true, false) | (false, true) => 1.0,
            (false, false) => 1.0 - dot / (no.sqrt() * nw.sqrt()),
        };
        acc += shift.max(0.0);
    }
    acc / n as f64
}

/// Recall@k of `hits` against the exact ground truth `truth` (id overlap
/// per query, averaged over the sample; per-query denominator is
/// `min(k, |truth|)`). The one recall definition shared by the engine's
/// calibration stage and `dialbench`'s `ibc_scale` workload — they must
/// never measure differently.
pub fn recall_at_k(hits: &[Vec<Hit>], truth: &[Vec<Hit>], k: usize) -> f64 {
    let mut overlap = 0usize;
    let mut total = 0usize;
    for (h, t) in hits.iter().zip(truth) {
        let t_ids: std::collections::HashSet<u32> = t.iter().map(|x| x.id).collect();
        overlap += h.iter().filter(|x| t_ids.contains(&x.id)).count();
        total += k.min(t.len());
    }
    overlap as f64 / total.max(1) as f64
}

/// Bring one member's index in line with `view`: refresh in place when
/// the prior state is compatible and the drift allows it, build from
/// scratch otherwise. Runs on the builder thread when pipelined.
fn prepare_member(
    spec: &IndexSpec,
    threshold: f64,
    rows: RowFormat,
    prev: Option<MemberState>,
    prebuilt: Option<MemberState>,
    view: &[f32],
    dim: usize,
) -> (MemberState, BuildInfo) {
    let t0 = Instant::now();
    if prev.is_none() {
        if let Some(state) = prebuilt {
            // The calibration stage already built this exact index over
            // `view` this round (and left it at the tuned width); reuse
            // it as the member's from-scratch build instead of paying
            // the same k-means training twice. Its real cost is
            // recorded in `TuningOutcome::calibrate_secs`.
            debug_assert_eq!(state.rows, view);
            let info = BuildInfo {
                secs: t0.elapsed().as_secs_f64(),
                incremental: false,
                drift: 0.0,
                retrained: false,
            };
            return (state, info);
        }
    }
    let rebuild =
        || MemberState { index: spec.build_rows(view, dim, Metric::L2, rows), rows: view.to_vec() };
    let mut info = BuildInfo { secs: 0.0, incremental: false, drift: 0.0, retrained: false };
    let state = match prev {
        // Compatible prior state: same width, no rows dropped (an index
        // never shrinks in place), and actually populated.
        Some(mut st)
            if st.index.dim() == dim && !st.rows.is_empty() && st.rows.len() <= view.len() =>
        {
            let gen_before = st.index.train_generation();
            info.drift = mean_cosine_shift(&st.rows, &view[..st.rows.len()], dim);
            let refreshed = info.drift <= threshold && {
                let n_old = st.rows.len() / dim;
                let changed: Vec<u32> = (0..n_old as u32)
                    .filter(|&r| {
                        let i = r as usize * dim;
                        view[i..i + dim] != st.rows[i..i + dim]
                    })
                    .collect();
                // The cosine drift is scale-invariant, so a row can be
                // *bitwise* changed (e.g. exactly doubled) at drift 0.
                // Overwriting such rows is exact for Flat but not for the
                // quantized families — so the "threshold 0.0 is always
                // exact" guarantee requires a strictly-zero threshold to
                // admit only appends, never overwrites. Positive
                // thresholds opt into approximate reuse explicitly.
                (changed.is_empty() || threshold > 0.0) && st.index.refresh(view, &changed)
            };
            if refreshed {
                info.incremental = true;
                // An append-heavy refresh can retrain the quantizer in
                // place (growth-triggered): the training-generation
                // counter catches it even when the retrained parameters
                // (nlist, ceiling) come out numerically identical — the
                // calibration measured on the old quantizer no longer
                // stands either way.
                info.retrained = st.index.train_generation() != gen_before;
                st.rows.clear();
                st.rows.extend_from_slice(view);
                st
            } else {
                rebuild()
            }
        }
        _ => rebuild(),
    };
    info.secs = t0.elapsed().as_secs_f64();
    (state, info)
}

impl RetrievalEngine {
    /// An engine retrieving through `spec`-built indexes. `spec` must be
    /// concrete (resolve [`IndexBackend::Auto`](crate::IndexBackend)
    /// first — [`DialConfig::index_spec_for`](crate::DialConfig) does).
    pub fn new(spec: IndexSpec, incremental_threshold: f64, pipeline_depth: usize) -> Self {
        RetrievalEngine {
            spec,
            incremental_threshold,
            pipeline_depth,
            rows: RowFormat::default(),
            members: Vec::new(),
            last: EngineRoundStats::default(),
            tune: None,
            calibrated: false,
            baseline_width: None,
            tuning: None,
            snapshot_dir: None,
            snapshot_dim: 0,
            snapshot_saved: false,
            loader: None,
            saver: None,
            bg_secs: 0.0,
        }
    }

    /// Store member-index scan rows in `format` (f32 by default; f16 or
    /// bf16 halve the scan footprint at a small recall cost the armed
    /// tuner observes and compensates for, since calibration ground
    /// truth always comes from an exact f32 scan). Changing the format
    /// drops cached member state — the stored rows are re-encoded on the
    /// next retrieval.
    pub fn set_rows(&mut self, format: RowFormat) {
        if format != self.rows {
            self.rows = format;
            self.reset();
        }
    }

    /// [`RetrievalEngine::new`] with the observed-metrics auto-tuner
    /// armed: before the first retrieval (and again after a
    /// quantizer-invalidating rebuild) the engine calibrates knobbed
    /// specs — IVF-backed ones through `nprobe`, HNSW-backed ones
    /// through `ef_search` — it probes a held-out sample of `S` against
    /// the exact flat ground truth over `R`, sweeps the knob upward
    /// until marginal recall@k flattens below `tune.epsilon` or
    /// `tune.recall_target` is met, and locks in the smallest width
    /// whose recall is at least
    /// `max(min(target, best swept), static default's recall)` — the
    /// tuner never chooses worse recall than the static heuristic it
    /// replaces, and prefers the cheapest width at equal recall. Specs
    /// without a knob (flat, PQ, or a sharded composite with any
    /// knobless shard) retrieve exactly as under
    /// [`RetrievalEngine::new`].
    pub fn with_tuning(
        spec: IndexSpec,
        incremental_threshold: f64,
        pipeline_depth: usize,
        tune: TuneConfig,
    ) -> Self {
        let mut engine = RetrievalEngine::new(spec, incremental_threshold, pipeline_depth);
        engine.baseline_width = engine.spec.knob().map(|(_, w)| w);
        engine.tune = Some(tune);
        engine
    }

    /// Arm member-snapshot persistence: after the first retrieval the
    /// engine writes each member's index + rows to
    /// `dir/member-<m>.snap` on a background thread, and — when
    /// `warm_start` is set — a background loader starts reading any
    /// snapshots already there *now*, so the file I/O and validation
    /// overlap whatever runs before the first retrieval (round-0
    /// committee training in the AL loop). Loaded members install as the
    /// double buffer's back side: they become each member's *previous*
    /// state, and the first retrieval's bitwise row comparison decides
    /// no-op-refresh versus rebuild exactly as a persistent engine's
    /// second round would — so a warm run retrieves bit-for-bit what a
    /// cold run does, whether the stored rows still match or not. Any
    /// rejected snapshot (corrupt, truncated, or written under a
    /// different spec / dim / row format) logs a warning and falls back
    /// to a cold build.
    ///
    /// Call after [`RetrievalEngine::set_rows`] — loading validates
    /// against the engine's current row format. `dim` is the embedding
    /// width the snapshots must carry.
    pub fn set_snapshot(&mut self, dir: Option<PathBuf>, warm_start: bool, dim: usize) {
        self.join_background();
        self.snapshot_dir = dir;
        self.snapshot_dim = dim;
        self.snapshot_saved = false;
        let Some(dir) = self.snapshot_dir.clone() else { return };
        if !warm_start || dim == 0 {
            return;
        }
        let spec = self.spec.clone();
        let rows = self.rows;
        self.loader = Some(std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut loaded: Vec<MemberState> = Vec::new();
            loop {
                let path = dir.join(format!("member-{}.snap", loaded.len()));
                if !path.exists() {
                    break;
                }
                match spec.load_member_snapshot(&path, dim, Metric::L2, rows) {
                    Ok((rows_vec, index)) => loaded.push(MemberState { index, rows: rows_vec }),
                    Err(e) => {
                        eprintln!(
                            "[engine] warm start: snapshot {} rejected ({e}); \
                             falling back to a cold build",
                            path.display()
                        );
                        loaded.clear();
                        break;
                    }
                }
            }
            (loaded, t0.elapsed().as_secs_f64())
        }));
    }

    /// Seconds of background snapshot work (loads + saves) done since
    /// the last call, joining any thread still in flight. The AL loop
    /// reads this after each round's selection stage to report how much
    /// snapshot I/O was hidden behind foreground work.
    pub fn take_background_secs(&mut self) -> f64 {
        self.join_background();
        std::mem::take(&mut self.bg_secs)
    }

    fn join_background(&mut self) {
        if let Some(h) = self.loader.take() {
            if let Ok((_, secs)) = h.join() {
                self.bg_secs += secs;
            }
        }
        if let Some(h) = self.saver.take() {
            if let Ok(secs) = h.join() {
                self.bg_secs += secs;
            }
        }
    }

    /// Join the loader (if armed) and install its members as the
    /// previous-round state, provided the committee shape matches and no
    /// retrieval populated the engine first.
    fn take_loaded(&mut self, n: usize, dim: usize) {
        let Some(handle) = self.loader.take() else { return };
        let (loaded, secs) = match handle.join() {
            Ok(out) => out,
            Err(_) => return,
        };
        self.bg_secs += secs;
        if loaded.is_empty() || !self.members.is_empty() {
            return;
        }
        if loaded.len() != n || dim != self.snapshot_dim {
            eprintln!(
                "[engine] warm start: {} member snapshot(s) of width {} do not fit a \
                 committee of {n} at width {dim}; ignoring them",
                loaded.len(),
                self.snapshot_dim
            );
            return;
        }
        self.members = loaded;
    }

    /// Hand the first retrieval's member states to the saver thread.
    /// Only the first round is persisted: it is the expensive build a
    /// warm restart wants to skip, and later rounds mutate members
    /// in place (refresh) or rebuild cheaply from cached state.
    fn maybe_save(&mut self) {
        if self.snapshot_saved || self.members.is_empty() {
            return;
        }
        let Some(dir) = self.snapshot_dir.clone() else { return };
        self.snapshot_saved = true;
        struct MemberBlob {
            rows: Vec<f32>,
            family: u8,
            payload: Vec<u8>,
        }
        let blobs: Vec<MemberBlob> = self
            .members
            .iter()
            .map(|m| {
                let (family, payload) = m.index.snapshot_blob();
                MemberBlob { rows: m.rows.clone(), family, payload }
            })
            .collect();
        self.saver = Some(std::thread::spawn(move || {
            let t0 = Instant::now();
            for (m, MemberBlob { rows, family, payload }) in blobs.into_iter().enumerate() {
                let path = dir.join(format!("member-{m}.snap"));
                if let Err(e) = save_member_blob(&path, &rows, family, &payload) {
                    eprintln!("[engine] snapshot save {} failed: {e}", path.display());
                    break;
                }
            }
            t0.elapsed().as_secs_f64()
        }));
    }

    /// Timings and reuse counters of the most recent retrieval.
    pub fn last_round(&self) -> &EngineRoundStats {
        &self.last
    }

    /// The most recent calibration record, when the tuner is armed and
    /// the spec had a knob to turn.
    pub fn last_tuning(&self) -> Option<&TuningOutcome> {
        self.tuning.as_ref()
    }

    /// Per-shard probe/hedge/failover counters aggregated over all
    /// committee members (element-wise, shard by shard), or `None` when
    /// no member index fans probes across shards — i.e. the spec is not
    /// `Sharded`. Counters accumulate on the member indexes, so they
    /// reset where the indexes do ([`Self::reset`], a rebuild round, or
    /// [`Self::take_member_index`] detaching the member).
    pub fn shard_stats(&self) -> Option<dial_ann::ShardStatsSnapshot> {
        let mut merged: Option<dial_ann::ShardStatsSnapshot> = None;
        for member in &self.members {
            if let Some(snap) = member.index.shard_stats() {
                merged.get_or_insert_with(Default::default).merge(&snap);
            }
        }
        merged
    }

    /// Drop all cached member state; the next retrieval rebuilds every
    /// index from scratch (and recalibrates, when the tuner is armed).
    pub fn reset(&mut self) {
        self.members.clear();
        self.calibrated = false;
        self.tuning = None;
    }

    /// Detach member `m`'s built index from the engine and hand it to the
    /// caller — the hand-off from batch AL rounds to the long-lived
    /// serving layer ([`crate::serve::QueryService`]). The member's
    /// cached rows go with it, so the engine rebuilds that member from
    /// scratch on its next retrieval (as after [`Self::reset`]). Returns
    /// `None` when `m` has no built state yet.
    pub fn take_member_index(&mut self, m: usize) -> Option<Box<dyn AnnIndex>> {
        if m >= self.members.len() {
            return None;
        }
        Some(self.members.remove(m).index)
    }

    /// Clone member `m`'s built index for serving *without* disturbing
    /// the engine: the snapshot blob round-trips through
    /// [`IndexSpec::load_blob`], so the copy probes bitwise-identically
    /// to the member, while the engine keeps its state and can continue
    /// incremental rounds. This is the "serve round *r* while round
    /// *r+1* trains" hand-off: push the clone into a live
    /// [`crate::serve::QueryService`] via
    /// [`crate::serve::QueryService::install_index`] after each round,
    /// and the service's generation bump retires every cached result
    /// from round *r-1*. Returns `None` when `m` has no built state or
    /// the round-trip fails validation (the clone is then unsafe to
    /// serve).
    pub fn clone_member_index(&self, m: usize) -> Option<Box<dyn AnnIndex>> {
        let member = self.members.get(m)?;
        let (family, payload) = member.index.snapshot_blob();
        match self.spec.load_blob(
            family,
            &payload,
            member.index.dim(),
            member.index.metric(),
            self.rows,
        ) {
            Ok(ix) => Some(ix),
            Err(e) => {
                eprintln!("[engine] member {m} snapshot clone failed: {e}");
                None
            }
        }
    }

    /// Index-By-Committee through the persistent engine: member `m`'s
    /// view of `R` is indexed (incrementally when the drift allows) and
    /// probed with its view of `S`; all members' scored pairs pool into
    /// one [`CandidateSet`] capped at `max_size`. Identical output to
    /// [`crate::candidates::index_by_committee`] when every member
    /// rebuilds — the engine only changes *when work happens*, not what
    /// is retrieved.
    pub fn retrieve_committee(
        &mut self,
        views_r: &[Vec<f32>],
        views_s: &[Vec<f32>],
        dim: usize,
        k: usize,
        max_size: usize,
    ) -> CandidateSet {
        assert_eq!(views_r.len(), views_s.len(), "committee view count mismatch");
        let vr: Vec<&[f32]> = views_r.iter().map(Vec::as_slice).collect();
        let vs: Vec<&[f32]> = views_s.iter().map(Vec::as_slice).collect();
        self.retrieve(&vr, &vs, dim, k, max_size)
    }

    /// Single-index retrieval (PairedAdapt and friends) through the same
    /// persistent state — the index over `emb_r` is refreshed, not
    /// rebuilt, when the trunk barely moved since the previous round.
    pub fn retrieve_single(
        &mut self,
        emb_r: &ListEmbeddings,
        emb_s: &ListEmbeddings,
        k: usize,
        max_size: usize,
    ) -> CandidateSet {
        assert_eq!(emb_r.dim, emb_s.dim, "embedding width mismatch");
        self.retrieve(&[&emb_r.data], &[&emb_s.data], emb_r.dim, k, max_size)
    }

    /// The calibration stage (see [`RetrievalEngine::with_tuning`]):
    /// measure recall@k of a held-out probe sample at increasing knob
    /// width and rewrite the spec's width with the cheapest one that
    /// loses nothing. Runs once per quantizer generation; member 0's views
    /// stand in for the workload (every member indexes a view of the
    /// same `R` and probes a view of the same `S`). The choice depends
    /// only on measured recall — never on measured latency — so two
    /// calibrations over the same data pick the same width.
    fn calibrate(
        &mut self,
        view_r: &[f32],
        view_s: &[f32],
        dim: usize,
        k: usize,
    ) -> Option<MemberState> {
        let tune = self.tune?;
        if self.calibrated {
            return None;
        }
        let (knob, _) = self.spec.knob()?;
        let (n, nq) = (view_r.len() / dim, view_s.len() / dim);
        if n == 0 || nq == 0 {
            // Nothing to measure yet — do *not* consume the calibration
            // opportunity; a later round with real rows still tunes.
            return None;
        }
        self.calibrated = true;
        let t0 = Instant::now();
        let sample_n = tune.sample.clamp(1, nq);
        let sample = &view_s[..sample_n * dim];
        // Exact ground truth for the sample, from a flat scan over R.
        let mut flat = FlatIndex::new(dim, Metric::L2);
        flat.add_batch(view_r);
        let truth = flat.search_batch(sample, k);
        // One probe index builds the index the sweep re-probes at every
        // width; the members themselves build after the spec is tuned.
        let mut probe = self.spec.build_rows(view_r, dim, Metric::L2, self.rows);
        let Some((ceiling, built_width)) = probe.knob(knob) else {
            // The spec is knob-backed but the built index lost the knob
            // (e.g. a shard built over no rows fell back to flat):
            // nothing to tune, but the build is still a valid member-0
            // index — hand it back for reuse.
            return Some(MemberState { index: probe, rows: view_r.to_vec() });
        };
        // The comparison floor is the *heuristic's* width, not whatever
        // a previous calibration tuned the spec to.
        let static_width = self.baseline_width.unwrap_or(built_width).min(ceiling).max(1);
        let mut steps: Vec<TuneStep> = Vec::new();
        let measure = |probe: &mut Box<dyn AnnIndex>, width: usize| {
            probe.set_knob(knob, width);
            let t = Instant::now();
            let hits = probe.search_batch(sample, k);
            let ns = t.elapsed().as_nanos() as f64 / sample_n as f64;
            let recall = recall_at_k(&hits, &truth, k);
            TuneStep { width, recall, probe_ns_per_query: ns }
        };
        // Sweep grid: powers of two up to the ceiling, plus the static
        // default (so the comparison point is always measured) and the
        // ceiling itself.
        let mut grid: Vec<usize> =
            std::iter::successors(Some(1usize), |p| p.checked_mul(2).filter(|&q| q < ceiling))
                .collect();
        grid.push(ceiling);
        grid.push(static_width);
        grid.sort_unstable();
        grid.dedup();
        for &p in &grid {
            let step = measure(&mut probe, p);
            steps.push(step);
            if step.recall >= tune.recall_target {
                break;
            }
            if let [.., prev, last] = steps.as_slice() {
                // Flattening is judged on genuine doublings only — the
                // injected static/ceiling grid points sit closer than 2x
                // and would otherwise read as a flat step and stop the
                // climb early.
                if last.width >= prev.width * 2 && last.recall - prev.recall < tune.epsilon {
                    break;
                }
            }
        }
        if !steps.iter().any(|s| s.width == static_width) {
            // The sweep stopped before reaching the static default;
            // measure it anyway — it is the floor the choice must beat.
            let step = measure(&mut probe, static_width);
            steps.push(step);
            steps.sort_by_key(|s| s.width);
        }
        let static_recall =
            steps.iter().find(|s| s.width == static_width).expect("static step measured").recall;
        let best_recall = steps.iter().map(|s| s.recall).fold(0.0f64, f64::max);
        // Cheapest width that (a) never loses recall to the static
        // default and (b) meets the target where the sweep could.
        let goal = tune.recall_target.min(best_recall).max(static_recall);
        let chosen = *steps
            .iter()
            .find(|s| s.recall >= goal)
            .expect("best_recall meets the goal by construction");
        self.spec.set_knob(chosen.width);
        // A recalibration must reach members that survive in place: a
        // refreshed index never re-reads the spec, so without this it
        // would keep probing at the previously tuned width.
        for member in &mut self.members {
            member.index.set_knob(knob, chosen.width);
        }
        self.tuning = Some(TuningOutcome {
            knob: knob.name().to_string(),
            ceiling,
            static_width,
            chosen_width: chosen.width,
            shards: match &self.spec {
                IndexSpec::Sharded { shards, .. } => *shards,
                _ => 1,
            },
            sample: sample_n,
            k,
            static_recall,
            chosen_recall: chosen.recall,
            steps,
            calibrate_secs: t0.elapsed().as_secs_f64(),
        });
        // The probe index is bitwise what member 0 would build from the
        // tuned spec (both knobs are search-time parameters; quantizer/
        // graph construction saw the same rows and seed) — reuse it
        // instead of training the same index twice.
        probe.set_knob(knob, chosen.width);
        Some(MemberState { index: probe, rows: view_r.to_vec() })
    }

    fn retrieve(
        &mut self,
        views_r: &[&[f32]],
        views_s: &[&[f32]],
        dim: usize,
        k: usize,
        max_size: usize,
    ) -> CandidateSet {
        let n = views_r.len();
        // Swap in background-loaded snapshot members (if any) before the
        // round starts — between probe batches, never mid-probe.
        self.take_loaded(n, dim);
        // Calibration hands back the index it built over member 0's
        // view; reused below when member 0 has no prior state.
        let mut prebuilt0: Option<MemberState> =
            if n > 0 { self.calibrate(views_r[0], views_s[0], dim, k) } else { None };
        // A committee-size change invalidates the member↔state pairing.
        if self.members.len() != n {
            self.members.clear();
        }
        let t_wall = Instant::now();
        let mut prev: Vec<Option<MemberState>> = self.members.drain(..).map(Some).collect();
        prev.resize_with(n, || None);

        let mut stats = EngineRoundStats::default();
        let mut scored_parts: Vec<Vec<Candidate>> = Vec::with_capacity(n);
        let mut states: Vec<MemberState> = Vec::with_capacity(n);
        let mut drift_samples = 0usize;

        let mut quantizer_invalidated = false;
        let mut absorb = |stats: &mut EngineRoundStats, info: &BuildInfo, had_prev: bool| {
            stats.build_secs += info.secs;
            if info.incremental {
                stats.incremental_members += 1;
            } else {
                stats.rebuilt_members += 1;
            }
            if had_prev {
                stats.mean_drift += info.drift;
                drift_samples += 1;
                if !info.incremental {
                    // A member with prior state rebuilt from scratch:
                    // its quantizer retrained on drifted rows, so the
                    // calibrated nprobe no longer describes the index it
                    // was measured on. Recalibrate next round.
                    quantizer_invalidated = true;
                }
            }
            // Same staleness through the other door: a refresh whose
            // growth-triggered retrain replaced the quantizer in place.
            quantizer_invalidated |= info.retrained;
        };

        if self.pipeline_depth == 0 || n <= 1 {
            // Sequential reference path: build (or refresh) member m,
            // then probe it, then move on.
            for m in 0..n {
                let had_prev = prev[m].is_some();
                let (state, info) = prepare_member(
                    &self.spec,
                    self.incremental_threshold,
                    self.rows,
                    prev[m].take(),
                    if m == 0 { prebuilt0.take() } else { None },
                    views_r[m],
                    dim,
                );
                absorb(&mut stats, &info, had_prev);
                let t0 = Instant::now();
                let mut scored = Vec::new();
                probe_blocked(&mut scored, state.index.as_ref(), views_s[m], dim, k);
                stats.probe_secs += t0.elapsed().as_secs_f64();
                scored_parts.push(scored);
                states.push(state);
            }
        } else {
            // Two-stage pipeline: a builder thread streams prepared
            // member states through a bounded channel while this thread
            // probes them. FIFO order means states arrive tagged in
            // member order, so slot m is member m by construction.
            let spec = &self.spec;
            let threshold = self.incremental_threshold;
            let rows = self.rows;
            let had_prev: Vec<bool> = prev.iter().map(Option::is_some).collect();
            std::thread::scope(|s| {
                let (tx, rx) = sync_channel(self.pipeline_depth);
                s.spawn(move || {
                    for (m, view) in views_r.iter().enumerate() {
                        let pre = if m == 0 { prebuilt0.take() } else { None };
                        let out =
                            prepare_member(spec, threshold, rows, prev[m].take(), pre, view, dim);
                        if tx.send(out).is_err() {
                            break;
                        }
                    }
                });
                for (state, info) in rx {
                    let m = states.len();
                    absorb(&mut stats, &info, had_prev[m]);
                    let t0 = Instant::now();
                    let mut scored = Vec::new();
                    probe_blocked(&mut scored, state.index.as_ref(), views_s[m], dim, k);
                    stats.probe_secs += t0.elapsed().as_secs_f64();
                    scored_parts.push(scored);
                    states.push(state);
                }
            });
        }

        self.members = states;
        self.maybe_save();
        if quantizer_invalidated {
            self.calibrated = false;
        }
        if drift_samples > 0 {
            stats.mean_drift /= drift_samples as f64;
        }
        stats.wall_secs = t_wall.elapsed().as_secs_f64();
        self.last = stats;

        let mut scored = Vec::with_capacity(scored_parts.iter().map(Vec::len).sum());
        for part in scored_parts {
            scored.extend(part);
        }
        CandidateSet::from_scored(scored, max_size)
    }
}

impl Drop for RetrievalEngine {
    fn drop(&mut self) {
        // Never leak a background snapshot thread past the engine.
        self.join_background();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{index_by_committee, index_single};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DIM: usize = 8;

    fn views(n_rows: usize, members: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..members)
            .map(|_| (0..n_rows * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    fn emb(data: Vec<f32>) -> ListEmbeddings {
        ListEmbeddings { dim: DIM, data }
    }

    #[test]
    fn first_round_matches_index_by_committee() {
        let vr = views(40, 3, 1);
        let vs = views(25, 3, 2);
        for depth in [0usize, 2] {
            let mut engine = RetrievalEngine::new(IndexSpec::Flat, 0.0, depth);
            let got = engine.retrieve_committee(&vr, &vs, DIM, 3, 500);
            let want = index_by_committee(&vr, &vs, DIM, 3, 500, &IndexSpec::Flat);
            assert_eq!(got.pairs(), want.pairs(), "depth={depth}");
            assert_eq!(engine.last_round().rebuilt_members, 3);
            assert_eq!(engine.last_round().incremental_members, 0);
        }
    }

    #[test]
    fn unchanged_views_take_the_incremental_path_and_stay_exact() {
        let vr = views(40, 2, 3);
        let vs = views(25, 2, 4);
        let mut engine = RetrievalEngine::new(IndexSpec::Flat, 0.0, 2);
        let first = engine.retrieve_committee(&vr, &vs, DIM, 3, 500);
        let second = engine.retrieve_committee(&vr, &vs, DIM, 3, 500);
        assert_eq!(first.pairs(), second.pairs());
        let st = engine.last_round();
        assert_eq!(st.incremental_members, 2, "drift 0 must refresh, not rebuild");
        assert_eq!(st.rebuilt_members, 0);
        assert_eq!(st.mean_drift, 0.0);
    }

    #[test]
    fn drift_above_threshold_rebuilds() {
        let vr = views(30, 2, 5);
        let vs = views(20, 2, 6);
        let mut engine = RetrievalEngine::new(IndexSpec::Flat, 1e-6, 2);
        engine.retrieve_committee(&vr, &vs, DIM, 3, 500);
        let moved = views(30, 2, 99); // completely different embeddings
        let got = engine.retrieve_committee(&moved, &vs, DIM, 3, 500);
        let st = engine.last_round();
        assert_eq!(st.rebuilt_members, 2);
        assert!(st.mean_drift > 1e-6, "drift {} not measured", st.mean_drift);
        // And the rebuilt state retrieves exactly like a fresh engine.
        let want = index_by_committee(&moved, &vs, DIM, 3, 500, &IndexSpec::Flat);
        assert_eq!(got.pairs(), want.pairs());
    }

    #[test]
    fn incremental_refresh_with_changed_rows_matches_rebuild_exactly() {
        // Perturb a few rows and append some: under a permissive
        // threshold the Flat engine refreshes in place, and the result
        // must still be bit-identical to a from-scratch committee build.
        let vr = views(40, 2, 7);
        let vs = views(25, 2, 8);
        for spec in [IndexSpec::Flat, IndexSpec::Flat.sharded(3)] {
            let mut engine = RetrievalEngine::new(spec.clone(), f64::MAX, 2);
            engine.retrieve_committee(&vr, &vs, DIM, 3, 500);
            let mut moved = vr.clone();
            moved[0][3] += 0.25;
            moved[1][5 * DIM] -= 0.5;
            for v in &mut moved {
                v.extend(views(4, 1, 11)[0].iter());
            }
            let got = engine.retrieve_committee(&moved, &vs, DIM, 3, 500);
            assert_eq!(engine.last_round().incremental_members, 2, "{}", spec.name());
            let want = index_by_committee(&moved, &vs, DIM, 3, 500, &spec);
            assert_eq!(got.pairs(), want.pairs(), "{}", spec.name());
        }
    }

    #[test]
    fn scaled_rows_at_zero_threshold_rebuild_not_refresh() {
        // A purely scaled row has cosine shift exactly 0 but IS bitwise
        // changed; the strictly-zero default threshold must refuse the
        // overwrite (an IVF refresh of that row would be silently
        // inexact) and rebuild instead.
        let vr = views(30, 1, 40);
        let vs = views(20, 1, 41);
        let mut engine = RetrievalEngine::new(IndexSpec::Flat, 0.0, 2);
        engine.retrieve_committee(&vr, &vs, DIM, 3, 500);
        let mut scaled = vr.clone();
        for x in &mut scaled[0][..DIM] {
            *x *= 2.0;
        }
        let got = engine.retrieve_committee(&scaled, &vs, DIM, 3, 500);
        let st = engine.last_round();
        assert_eq!(st.rebuilt_members, 1, "scaled row must force a rebuild at threshold 0");
        assert_eq!(st.incremental_members, 0);
        assert!(st.mean_drift < 1e-12, "pure scaling is (near-)invisible to the cosine drift");
        let want = index_by_committee(&scaled, &vs, DIM, 3, 500, &IndexSpec::Flat);
        assert_eq!(got.pairs(), want.pairs());
    }

    #[test]
    fn declining_family_falls_back_to_rebuild() {
        // PQ and HNSW accept append-only refreshes but decline row
        // overwrites; with an overwritten row under a permissive
        // threshold the engine must rebuild (and still answer exactly
        // like a fresh committee build). Unchanged views, by contrast,
        // now ride the no-op refresh even for these families.
        let spec = IndexSpec::Hnsw(dial_ann::HnswParams::default());
        let vr = views(40, 1, 12);
        let vs = views(20, 1, 13);
        let mut engine = RetrievalEngine::new(spec.clone(), f64::MAX, 2);
        engine.retrieve_committee(&vr, &vs, DIM, 3, 500);
        let got = engine.retrieve_committee(&vr, &vs, DIM, 3, 500);
        assert_eq!(engine.last_round().incremental_members, 1, "no-op refresh is accepted");
        let want = index_by_committee(&vr, &vs, DIM, 3, 500, &spec);
        assert_eq!(got.pairs(), want.pairs());
        let mut moved = vr.clone();
        moved[0][3] += 0.25; // overwrite one stored row
        let got = engine.retrieve_committee(&moved, &vs, DIM, 3, 500);
        assert_eq!(engine.last_round().rebuilt_members, 1, "overwrites still decline");
        let want = index_by_committee(&moved, &vs, DIM, 3, 500, &spec);
        assert_eq!(got.pairs(), want.pairs());
    }

    #[test]
    fn pipelined_and_sequential_retrieval_are_identical() {
        let vr = views(60, 4, 14);
        let vs = views(35, 4, 15);
        let run = |depth: usize| {
            let mut engine = RetrievalEngine::new(IndexSpec::Flat, 0.0, depth);
            let a = engine.retrieve_committee(&vr, &vs, DIM, 4, 800);
            let b = engine.retrieve_committee(&vr, &vs, DIM, 4, 800);
            (a, b)
        };
        let (seq_a, seq_b) = run(0);
        for depth in [1usize, 2, 8] {
            let (pip_a, pip_b) = run(depth);
            assert_eq!(seq_a.pairs(), pip_a.pairs(), "depth={depth} round 0");
            assert_eq!(seq_b.pairs(), pip_b.pairs(), "depth={depth} round 1");
        }
    }

    #[test]
    fn failed_member_build_panics_the_pipelined_round_instead_of_hanging() {
        // Member 1's view is one value short of whole rows, so the builder
        // thread trips `build_rows`' packed-length check after member 0
        // went through. Its sender drops on unwind: the probing loop
        // drains member 0, sees the channel close, and the scope re-raises.
        let mut vr = views(30, 3, 20);
        let vs = views(12, 3, 21);
        vr[1].pop();
        for depth in [1usize, 2] {
            let mut engine = RetrievalEngine::new(IndexSpec::Flat, 0.0, depth);
            let round = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.retrieve_committee(&vr, &vs, DIM, 3, 200)
            }));
            assert!(round.is_err(), "depth={depth}: a failed member build must panic");
        }
    }

    #[test]
    fn single_retrieval_is_persistent_and_matches_index_single() {
        let er = emb(views(50, 1, 16).remove(0));
        let es = emb(views(30, 1, 17).remove(0));
        let mut engine = RetrievalEngine::new(IndexSpec::Flat, 0.0, 2);
        let got = engine.retrieve_single(&er, &es, 3, 400);
        let want = index_single(&er, &es, 3, 400, &IndexSpec::Flat);
        assert_eq!(got.pairs(), want.pairs());
        // Second round, same trunk: incremental.
        let again = engine.retrieve_single(&er, &es, 3, 400);
        assert_eq!(again.pairs(), want.pairs());
        assert_eq!(engine.last_round().incremental_members, 1);
    }

    #[test]
    fn committee_size_change_resets_state() {
        let mut engine = RetrievalEngine::new(IndexSpec::Flat, f64::MAX, 2);
        engine.retrieve_committee(&views(20, 3, 18), &views(10, 3, 19), DIM, 2, 100);
        engine.retrieve_committee(&views(20, 2, 18), &views(10, 2, 19), DIM, 2, 100);
        assert_eq!(engine.last_round().rebuilt_members, 2);
        assert_eq!(engine.last_round().incremental_members, 0);
    }

    /// `members` views of a clustered corpus plus matching probe views:
    /// `n_rows` points in `clusters` tight blobs (the shape committee
    /// embeddings actually take), probes perturbed from corpus rows.
    fn clustered_views(
        n_rows: usize,
        nq: usize,
        members: usize,
        clusters: usize,
        seed: u64,
    ) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<f32> = (0..clusters * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let point = |i: usize, rng: &mut StdRng| -> Vec<f32> {
            let c = i % clusters;
            centers[c * DIM..(c + 1) * DIM]
                .iter()
                .map(|&x| x + rng.gen_range(-0.01f32..0.01))
                .collect()
        };
        let mut vr = Vec::new();
        let mut vs = Vec::new();
        for _ in 0..members {
            vr.push((0..n_rows).flat_map(|i| point(i, &mut rng)).collect());
            vs.push((0..nq).flat_map(|i| point(i, &mut rng)).collect());
        }
        (vr, vs)
    }

    fn ivf_spec(nlist: usize, nprobe: usize) -> IndexSpec {
        IndexSpec::IvfFlat(dial_ann::IvfParams { nlist, nprobe, ..Default::default() })
    }

    #[test]
    fn tuner_is_deterministic_and_never_worse_than_static() {
        let (vr, vs) = clustered_views(600, 120, 2, 12, 50);
        let run = || {
            let mut e =
                RetrievalEngine::with_tuning(ivf_spec(24, 3), 0.0, 2, TuneConfig::default());
            let cand = e.retrieve_committee(&vr, &vs, DIM, 5, 2_000);
            (cand, e.last_tuning().cloned().expect("an IVF spec must calibrate"))
        };
        let (cand_a, a) = run();
        let (cand_b, b) = run();
        // Calibration determinism: same data, same chosen width, same
        // measured recall at every step (latency is recorded but never
        // consulted), same retrieved candidates.
        assert_eq!(a.chosen_width, b.chosen_width);
        assert_eq!(a.shards, b.shards);
        assert_eq!(a.knob, "nprobe");
        let key = |t: &TuningOutcome| {
            t.steps.iter().map(|s| (s.width, s.recall.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_eq!(cand_a.pairs(), cand_b.pairs());
        // The tuner never loses recall to the static default, and never
        // scans more than the ceiling.
        assert!(a.chosen_recall >= a.static_recall, "{a:?}");
        assert!(a.chosen_width <= a.ceiling);
        assert!(a.steps.iter().any(|s| s.width == a.static_width), "floor must be measured");
        assert!(a.calibrate_secs > 0.0);
        // The recall the sweep reads: the truth scores 1 against itself,
        // and a list that keeps half of its ids scores 0.5.
        let truth = vec![vec![Hit { id: 1, distance: 0.1 }, Hit { id: 2, distance: 0.2 }]];
        let half = vec![vec![Hit { id: 9, distance: 0.1 }, Hit { id: 2, distance: 0.2 }]];
        assert_eq!(recall_at_k(&truth, &truth, 2), 1.0);
        assert_eq!(recall_at_k(&half, &truth, 2), 0.5);
    }

    #[test]
    fn tuner_calibrates_sharded_ivf_through_the_knob() {
        let (vr, vs) = clustered_views(600, 100, 1, 10, 51);
        let spec = ivf_spec(12, 2).sharded(2);
        let mut e = RetrievalEngine::with_tuning(spec, 0.0, 0, TuneConfig::default());
        e.retrieve_committee(&vr, &vs, DIM, 4, 1_000);
        let t = e.last_tuning().expect("sharded IVF carries the knob");
        assert_eq!(t.shards, 2);
        assert!(t.chosen_recall >= t.static_recall);
        assert!(t.ceiling <= 12, "ceiling is the smallest per-shard nlist");
    }

    #[test]
    fn tuning_is_a_noop_for_knobless_specs() {
        // A flat spec (what auto resolves to below the size ceiling) has
        // no nprobe knob: the armed tuner must retrieve bit-for-bit what
        // the untuned engine does — `--auto-tune` off or on, today's
        // static-auto candidate sets are reproduced exactly.
        let vr = views(50, 2, 52);
        let vs = views(30, 2, 53);
        let mut tuned =
            RetrievalEngine::with_tuning(IndexSpec::Flat, 0.0, 2, TuneConfig::default());
        let mut plain = RetrievalEngine::new(IndexSpec::Flat, 0.0, 2);
        let a = tuned.retrieve_committee(&vr, &vs, DIM, 3, 500);
        let b = plain.retrieve_committee(&vr, &vs, DIM, 3, 500);
        assert_eq!(a.pairs(), b.pairs());
        assert!(tuned.last_tuning().is_none());
    }

    #[test]
    fn quantizer_invalidating_rebuild_triggers_recalibration() {
        let (vr, vs) = clustered_views(400, 80, 1, 8, 54);
        let (vr2, vs2) = clustered_views(400, 80, 1, 8, 99); // different blobs
        let mut e = RetrievalEngine::with_tuning(ivf_spec(16, 2), 1e-6, 0, TuneConfig::default());
        e.retrieve_committee(&vr, &vs, DIM, 4, 1_000);
        let first = e.last_tuning().cloned().unwrap();
        // Fully drifted rows: the member rebuilds (quantizer retrains),
        // which must invalidate the calibration...
        e.retrieve_committee(&vr2, &vs2, DIM, 4, 1_000);
        assert_eq!(e.last_round().rebuilt_members, 1);
        // ...so the next round recalibrates against the new embeddings:
        // its sweep matches a fresh engine calibrated on them directly,
        // and the refreshed member probes at the recalibrated width (the
        // candidates match a fresh engine's bit-for-bit).
        let got = e.retrieve_committee(&vr2, &vs2, DIM, 4, 1_000);
        let recal = e.last_tuning().cloned().unwrap();
        let mut fresh =
            RetrievalEngine::with_tuning(ivf_spec(16, 2), 1e-6, 0, TuneConfig::default());
        let want_cand = fresh.retrieve_committee(&vr2, &vs2, DIM, 4, 1_000);
        let want = fresh.last_tuning().cloned().unwrap();
        let key = |t: &TuningOutcome| {
            (
                t.chosen_width,
                t.steps.iter().map(|s| (s.width, s.recall.to_bits())).collect::<Vec<_>>(),
            )
        };
        assert_eq!(key(&recal), key(&want));
        assert_eq!(got.pairs(), want_cand.pairs());
        // Sanity: the record really was replaced (first round's steps
        // were measured on the old blobs).
        let _ = first;
    }

    #[test]
    fn growth_retrain_during_refresh_invalidates_calibration() {
        // An IVF index built over a tiny seed pool clamps nlist to it; a
        // refresh that appends past RETRAIN_GROWTH retrains the
        // quantizer in place (the probe-width ceiling changes), and the
        // engine must recalibrate against the new quantizer.
        let (vr, vs) = clustered_views(30, 40, 1, 6, 60);
        let mut e =
            RetrievalEngine::with_tuning(ivf_spec(64, 4), f64::MAX, 0, TuneConfig::default());
        e.retrieve_committee(&vr, &vs, DIM, 3, 1_000);
        let first = e.last_tuning().cloned().unwrap();
        assert_eq!(first.ceiling, 30, "build clamps nlist (and the ceiling) to the seed pool");
        // Grow the member's view 5x: the in-place refresh retrains.
        let mut grown = vr.clone();
        grown[0].extend(views(120, 1, 61).remove(0));
        e.retrieve_committee(&grown, &vs, DIM, 3, 1_000);
        assert_eq!(e.last_round().incremental_members, 1, "growth must ride the refresh path");
        // Next round: recalibrated, with the un-clamped ceiling.
        e.retrieve_committee(&grown, &vs, DIM, 3, 1_000);
        assert_eq!(
            e.last_tuning().unwrap().ceiling,
            64,
            "recalibration must see the retrained nlist"
        );
    }

    fn hnsw_spec(ef: usize) -> IndexSpec {
        IndexSpec::Hnsw(dial_ann::HnswParams { ef_search: ef, ..Default::default() })
    }

    #[test]
    fn tuner_calibrates_hnsw_ef_search() {
        let (vr, vs) = clustered_views(600, 100, 1, 12, 55);
        let mut e = RetrievalEngine::with_tuning(hnsw_spec(4), 0.0, 0, TuneConfig::default());
        e.retrieve_committee(&vr, &vs, DIM, 5, 2_000);
        let t = e.last_tuning().cloned().expect("an HNSW spec must calibrate");
        assert_eq!(t.knob, "ef_search");
        assert_eq!(t.ceiling, 600, "beam ceiling is the node count");
        assert!(t.chosen_recall >= t.static_recall, "{t:?}");
        assert!(t.steps.iter().any(|s| s.width == t.static_width), "floor must be measured");
        // The tuned width is written back to the spec, so the rebuilds
        // HNSW pays every round (it declines in-place refresh) keep it.
        assert_eq!(e.spec.knob(), Some((dial_ann::Knob::EfSearch, t.chosen_width)));
    }

    #[test]
    fn tuner_calibrates_sharded_hnsw_through_the_knob() {
        let (vr, vs) = clustered_views(600, 80, 1, 10, 56);
        let spec = hnsw_spec(4).sharded(2);
        let mut e = RetrievalEngine::with_tuning(spec, 0.0, 0, TuneConfig::default());
        e.retrieve_committee(&vr, &vs, DIM, 4, 1_000);
        let t = e.last_tuning().expect("sharded HNSW carries the knob");
        assert_eq!(t.knob, "ef_search");
        assert_eq!(t.shards, 2);
        assert_eq!(t.ceiling, 300, "ceiling is the smallest shard's node count");
        assert!(t.chosen_recall >= t.static_recall, "{t:?}");
    }

    #[test]
    fn compressed_rows_ride_the_engine_end_to_end() {
        // An f16-rows engine must rank against the *decoded* rows: its
        // retrieval is bitwise an f32 engine fed the f16-roundtripped
        // embeddings, and the incremental path still engages (the stored
        // f32 drift baseline is unchanged by the storage format).
        use dial_ann::rowstore::{f16_to_f32, f32_to_f16};
        let vr = views(50, 2, 70);
        let vs = views(30, 2, 71);
        let decoded: Vec<Vec<f32>> =
            vr.iter().map(|v| v.iter().map(|&x| f16_to_f32(f32_to_f16(x))).collect()).collect();
        let mut half = RetrievalEngine::new(IndexSpec::Flat, 0.0, 2);
        half.set_rows(RowFormat::F16);
        let mut full = RetrievalEngine::new(IndexSpec::Flat, 0.0, 2);
        let got = half.retrieve_committee(&vr, &vs, DIM, 3, 500);
        let want = full.retrieve_committee(&decoded, &vs, DIM, 3, 500);
        assert_eq!(got.pairs(), want.pairs());
        // Unchanged views: the refresh path, not a rebuild.
        let again = half.retrieve_committee(&vr, &vs, DIM, 3, 500);
        assert_eq!(again.pairs(), want.pairs());
        assert_eq!(half.last_round().incremental_members, 2);
        // Switching formats drops cached state (stored rows would
        // otherwise keep the old encoding).
        half.set_rows(RowFormat::Bf16);
        half.retrieve_committee(&vr, &vs, DIM, 3, 500);
        assert_eq!(half.last_round().rebuilt_members, 2);
    }

    fn snap_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dial_engine_snap_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_start_retrieves_bitwise_like_cold_and_skips_the_rebuild() {
        let vr = views(60, 2, 80);
        let vs = views(30, 2, 81);
        for spec in [IndexSpec::Flat, ivf_spec(8, 3), IndexSpec::Flat.sharded(3), hnsw_spec(16)] {
            let dir = snap_dir(&format!("warm_{}", spec.name()));
            // Cold engine: builds from scratch, saves member snapshots.
            let mut cold = RetrievalEngine::new(spec.clone(), 0.0, 2);
            cold.set_snapshot(Some(dir.clone()), false, DIM);
            let want = cold.retrieve_committee(&vr, &vs, DIM, 3, 500);
            assert!(cold.take_background_secs() > 0.0, "saver must run ({})", spec.name());
            assert!(dir.join("member-1.snap").exists(), "{}", spec.name());
            // Warm engine: loads them, takes the no-op refresh path, and
            // retrieves bit-for-bit the cold candidates.
            let mut warm = RetrievalEngine::new(spec.clone(), 0.0, 2);
            warm.set_snapshot(Some(dir.clone()), true, DIM);
            let got = warm.retrieve_committee(&vr, &vs, DIM, 3, 500);
            assert_eq!(got.pairs(), want.pairs(), "{}", spec.name());
            let st = warm.last_round();
            assert_eq!(st.incremental_members, 2, "warm start must not rebuild ({})", spec.name());
            assert_eq!(st.rebuilt_members, 0, "{}", spec.name());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn warm_start_with_drifted_rows_rebuilds_and_stays_exact() {
        // Snapshots from one run, embeddings from another: the bitwise
        // row comparison must notice and rebuild — same trajectory as a
        // cold run on the new rows.
        let dir = snap_dir("drifted");
        let vs = views(25, 2, 83);
        let mut first = RetrievalEngine::new(IndexSpec::Flat, 0.0, 2);
        first.set_snapshot(Some(dir.clone()), false, DIM);
        first.retrieve_committee(&views(40, 2, 82), &vs, DIM, 3, 500);
        first.take_background_secs();
        let moved = views(40, 2, 99);
        let mut warm = RetrievalEngine::new(IndexSpec::Flat, 0.0, 2);
        warm.set_snapshot(Some(dir.clone()), true, DIM);
        let got = warm.retrieve_committee(&moved, &vs, DIM, 3, 500);
        assert_eq!(warm.last_round().rebuilt_members, 2);
        let want = index_by_committee(&moved, &vs, DIM, 3, 500, &IndexSpec::Flat);
        assert_eq!(got.pairs(), want.pairs());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_mismatched_snapshots_fall_back_to_a_cold_build() {
        let dir = snap_dir("corrupt");
        let vr = views(40, 2, 84);
        let vs = views(25, 2, 85);
        let mut first = RetrievalEngine::new(IndexSpec::Flat, 0.0, 2);
        first.set_snapshot(Some(dir.clone()), false, DIM);
        let want = first.retrieve_committee(&vr, &vs, DIM, 3, 500);
        first.take_background_secs();
        let run_warm = |spec: IndexSpec, dim: usize| {
            let mut warm = RetrievalEngine::new(spec, 0.0, 2);
            warm.set_snapshot(Some(dir.clone()), true, dim);
            let got = warm.retrieve_committee(&vr, &vs, DIM, 3, 500);
            (got, warm.last_round().rebuilt_members)
        };
        // Flip a byte mid-file: checksum rejects it, cold build follows.
        let path = dir.join("member-0.snap");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (got, rebuilt) = run_warm(IndexSpec::Flat, DIM);
        assert_eq!(rebuilt, 2, "corrupt snapshot must fall back to rebuild");
        assert_eq!(got.pairs(), want.pairs());
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // Truncation is caught the same way.
        let keep = bytes.len() / 3;
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let (got, rebuilt) = run_warm(IndexSpec::Flat, DIM);
        assert_eq!(rebuilt, 2, "truncated snapshot must fall back to rebuild");
        assert_eq!(got.pairs(), want.pairs());
        std::fs::write(&path, &bytes).unwrap();
        // A spec mismatch (snapshots were Flat, engine wants IVF) and a
        // width mismatch both discard the snapshots up front.
        let (got, rebuilt) = run_warm(ivf_spec(8, 2), DIM);
        assert_eq!(rebuilt, 2, "family mismatch must fall back to rebuild");
        let want_ivf = index_by_committee(&vr, &vs, DIM, 3, 500, &ivf_spec(8, 2));
        assert_eq!(got.pairs(), want_ivf.pairs());
        let (got, rebuilt) = run_warm(IndexSpec::Flat, DIM + 1);
        assert_eq!(rebuilt, 2, "dim mismatch must fall back to rebuild");
        assert_eq!(got.pairs(), want.pairs());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mean_cosine_shift_properties() {
        let a = [1.0f32, 0.0, 0.0, 1.0]; // two 2-d rows
        assert_eq!(mean_cosine_shift(&a, &a, 2), 0.0);
        // Pure scaling keeps the angle: shift stays 0.
        let scaled = [2.0f32, 0.0, 0.0, 3.0];
        assert!(mean_cosine_shift(&a, &scaled, 2) < 1e-12);
        // A 90° rotation of one of two rows: mean shift 0.5.
        let rot = [0.0f32, 1.0, 0.0, 1.0];
        assert!((mean_cosine_shift(&a, &rot, 2) - 0.5).abs() < 1e-12);
        // Zero→nonzero counts as a full shift.
        let z = [0.0f32, 0.0, 0.0, 1.0];
        assert!((mean_cosine_shift(&z, &a, 2) - 0.5).abs() < 1e-12);
        assert_eq!(mean_cosine_shift(&[], &[], 2), 0.0);
    }
}
