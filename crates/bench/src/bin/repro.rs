//! Reproduce every table and figure of the DIAL paper's evaluation.
//!
//! ```text
//! cargo run --release --bin repro -- <experiment> [--backend=<spec>] [--rows=<fmt>]
//!                                                  [--shards=<n>] [--auto-tune]
//!                                                  [--snapshot-dir=<dir>] [--threads=<n>]
//!
//! experiments:
//!   table1   dataset statistics
//!   fig4     progressive test-set F1 (5 datasets × 4 TPLM methods)
//!   table2   end-of-AL all-pairs P/R/F1 + RT (8 methods × 5 datasets)
//!   fig5     progressive blocker recall
//!   table3   multilingual all-pairs P/R/F1
//!   fig6     multilingual progressive F1
//!   table4   labeled vs random negatives ablation
//!   table5   blocker objective ablation
//!   table6   candidate-size ablation
//!   table7   committee-size ablation
//!   table8   selection strategies (also emits Figure 7 series)
//!   table9   per-operation timings
//!   table10  testing time vs committee size
//!   backends ANN backend sweep: recall + latency per index family
//!   all      everything above in order
//!
//! options:
//!   --backend=<spec>  ANN index backend for every retrieval (default flat):
//!                     flat | ivf[:nlist[,nprobe]] | pq[:m[,nbits]]
//!                     | hnsw[:m[,ef_search]] | auto (size heuristic),
//!                     optionally with a `@<shards>` suffix (e.g.
//!                     ivf:64,8@4)
//!   --rows=<fmt>      scan-row storage for flat/IVF retrieval indexes:
//!                     f32 (default) | f16 | bf16 — half-width rows halve
//!                     the scan footprint and rank against the decoded
//!                     values (quantized/graph backends ignore it)
//!   --shards=<n>      round-robin shards per retrieval index (default 1;
//!                     n > 1 builds shards concurrently and merges top-k;
//!                     wins over a `@<shards>` spec suffix)
//!   --auto-tune       calibrate IVF-backed retrieval from observed
//!                     recall: sweep nprobe on a held-out sample against
//!                     the exact ground truth, pick the cheapest width
//!                     that loses nothing, and (for `auto` with no
//!                     explicit --shards) pick the shard count from
//!                     worker threads; prints a `tuning` table
//!   --snapshot-dir=<dir>  persist round-0 member indexes as versioned
//!                     snapshots under `<dir>/<dataset>-s<seed>/` and
//!                     warm-start from any already there; retrieval is
//!                     bit-for-bit the cold run's either way
//!   --threads=<n>     pin the work-stealing executor's worker count
//!                     (the programmatic form of RAYON_NUM_THREADS)
//! ```
//!
//! Environment: `REPRO_SCALE` (bench|smoke|paper), `REPRO_ROUNDS`,
//! `REPRO_SEEDS`, `REPRO_OUT`, `REPRO_BACKEND` (same values as
//! `--backend`), `REPRO_ROWS` (same as `--rows`), `REPRO_SHARDS` (same
//! as `--shards`), `REPRO_SNAPSHOT_DIR` (same as `--snapshot-dir`), and
//! `REPRO_DATASETS` (comma-separated subset of `WA,AG,DA,DS,AB`).

use dial_bench::report::{pct, print_table, secs, write_json};
use dial_bench::runner::{self, run_jedai_row, run_rf_row, run_tplm, ExpContext, TplmRunSummary};
use dial_core::{
    BlockerObjective, BlockingStrategy, CandSize, IndexBackend, NegativeSource, SelectionStrategy,
};
use dial_datasets::Benchmark;

const USAGE: &str = "usage: repro <experiment> [--backend=<spec>] [--rows=<fmt>] [--shards=<n>]
                     [--auto-tune] [--snapshot-dir=<dir>] [--threads=<n>]

experiments:
  table1    dataset statistics
  fig4      progressive test-set F1 (5 datasets x 4 TPLM methods)
  table2    end-of-AL all-pairs P/R/F1 + RT (8 methods x 5 datasets)
  fig5      progressive blocker recall
  table3    multilingual all-pairs P/R/F1  (fig6: progressive view)
  table4    labeled vs random negatives ablation
  table5    blocker objective ablation
  table6    candidate-size ablation
  table7    committee-size ablation
  table8    selection strategies (also emits Figure 7 series)
  table9    per-operation timings
  table10   testing time vs committee size
  backends  ANN backend sweep: blocker recall + retrieval latency per family
  all       everything above in order

options:
  --backend=<spec>   ANN index backend used for every embedding retrieval.
                     <spec> is one of:
                       flat                   exact brute-force (default)
                       ivf[:nlist[,nprobe]]   IVF-Flat, e.g. ivf:64,8
                       pq[:m[,nbits]]         product quantization, e.g. pq:8,6
                       hnsw[:m[,ef_search]]   HNSW graph, e.g. hnsw:16,48
                       auto                   size heuristic: flat below 50k
                                              rows, ivf with nlist=sqrt(n)
                                              above (reports show the
                                              resolved family)
                     each optionally suffixed with @<shards>, e.g.
                     ivf:64,8@4 (an explicit --shards flag wins).
  --rows=<fmt>       scan-row storage for flat/IVF retrieval indexes:
                     f32 (default, exact storage) | f16 | bf16. Half-width
                     rows halve the scan footprint and decode to f32 inside
                     the distance kernels, so ranking is against the decoded
                     values; quantized (pq) and graph (hnsw) backends keep
                     their own storage and ignore the flag.
  --shards=<n>       round-robin shards per retrieval index (default 1).
                     n > 1 builds the shards concurrently and merges the
                     per-shard top-k at probe time; sharded flat retrieval
                     is exactly equivalent to unsharded flat.
  --auto-tune        close the auto-tuning loop from observed metrics:
                     before the first round the retrieval engine probes a
                     held-out sample of S against the exact flat ground
                     truth, raises the backend's knob (IVF nprobe, HNSW
                     ef_search) until marginal recall@k flattens (never
                     settling below the static default's recall), and —
                     for `auto` with no explicit --shards — picks the
                     shard count from worker-thread count and per-shard
                     size. Off by default: the static heuristic's
                     candidate sets are reproduced bit-for-bit. Runs that
                     calibrated print a `tuning` table (chosen width and
                     shards, measured recall/latency at each sweep step).
  --snapshot-dir=<dir>  versioned index snapshots + warm start: after the
                     first AL round each run persists its trained member
                     indexes under <dir>/<dataset>-s<seed>/ (written on a
                     background thread, overlapping selection), and the
                     next run with the same flag loads them back on a
                     background thread overlapping round-0 training —
                     paying file I/O instead of k-means/graph builds. A
                     snapshot that fails validation (corrupt, truncated,
                     or from a different backend/width/row format) warns
                     and falls back to a cold build; warm and cold runs
                     retrieve bit-for-bit the same candidates either way.
  --threads=<n>      pin the work-stealing executor's worker count — the
                     programmatic form of RAYON_NUM_THREADS, resolved
                     before any parallel work. Applies to kernel scans,
                     shard builds, encoding, and the matcher.

environment:
  REPRO_SCALE=bench|smoke|paper   dataset scale (default bench)
  REPRO_ROUNDS=<n>                active-learning rounds (default 5)
  REPRO_SEEDS=<n>                 averaged seeds (default 1)
  REPRO_BACKEND=<spec>            same values as --backend
  REPRO_ROWS=<fmt>                same values as --rows
  REPRO_SHARDS=<n>                same values as --shards
  REPRO_AUTO_TUNE=1               same as --auto-tune
  REPRO_SNAPSHOT_DIR=<dir>        same as --snapshot-dir
  REPRO_DATASETS=WA,AG,DA,DS,AB  benchmark subset
  REPRO_OUT=<dir>                 JSONL output directory (default results/)";

fn main() {
    let mut backend_flag: Option<(IndexBackend, Option<usize>)> = None;
    let mut shards_flag: Option<usize> = None;
    let mut rows_flag: Option<dial_core::RowFormat> = None;
    let mut auto_tune_flag = false;
    let mut snapshot_dir_flag: Option<String> = None;
    let mut threads_flag: Option<usize> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if let Some(v) = a.strip_prefix("--backend=") {
            backend_flag = Some(parse_backend_or_exit(v));
        } else if a == "--backend" {
            let v = args.next().unwrap_or_default();
            backend_flag = Some(parse_backend_or_exit(&v));
        } else if let Some(v) = a.strip_prefix("--shards=") {
            shards_flag = Some(parse_shards_or_exit(v));
        } else if a == "--shards" {
            let v = args.next().unwrap_or_default();
            shards_flag = Some(parse_shards_or_exit(&v));
        } else if let Some(v) = a.strip_prefix("--rows=") {
            rows_flag = Some(parse_rows_or_exit(v));
        } else if a == "--rows" {
            let v = args.next().unwrap_or_default();
            rows_flag = Some(parse_rows_or_exit(&v));
        } else if a == "--auto-tune" {
            auto_tune_flag = true;
        } else if let Some(v) = a.strip_prefix("--snapshot-dir=") {
            snapshot_dir_flag = Some(v.to_string());
        } else if a == "--snapshot-dir" {
            snapshot_dir_flag = Some(args.next().unwrap_or_default());
        } else if let Some(v) = a.strip_prefix("--threads=") {
            threads_flag = Some(parse_threads_or_exit(v));
        } else if a == "--threads" {
            let v = args.next().unwrap_or_default();
            threads_flag = Some(parse_threads_or_exit(&v));
        } else {
            positional.push(a);
        }
    }
    // Pin the executor before anything runs in parallel: the count is
    // resolved once for the process lifetime.
    if let Some(n) = threads_flag {
        let effective = rayon::set_num_threads(n);
        if effective != n {
            eprintln!("# --threads={n} came too late: executor already resolved to {effective}");
        }
    }
    let which = positional.first().map(String::as_str).unwrap_or("help");
    if matches!(which, "help" | "--help" | "-h") {
        eprintln!("{USAGE}");
        return;
    }
    let mut ctx = ExpContext::from_env();
    if let Some((b, spec_shards)) = backend_flag {
        ctx.backend = b;
        // A `@shards` suffix on the CLI (even `@1`) overrides the
        // environment; an explicit --shards flag wins over the suffix.
        if let Some(s) = spec_shards {
            ctx.shards = s;
        }
    }
    if let Some(s) = shards_flag {
        ctx.shards = s;
    }
    if let Some(r) = rows_flag {
        ctx.rows = r;
    }
    ctx.auto_tune |= auto_tune_flag;
    if let Some(dir) = snapshot_dir_flag.filter(|v| !v.is_empty()) {
        ctx.snapshot_dir = Some(dir);
    }
    eprintln!(
        "# context: scale={:?} rounds={} seeds={:?} backend={} rows={} shards={} auto_tune={} \
         snapshots={} datasets={:?}",
        ctx.scale,
        ctx.rounds,
        ctx.seeds,
        ctx.backend.label(),
        ctx.rows.label(),
        ctx.shards,
        ctx.auto_tune,
        ctx.snapshot_dir.as_deref().unwrap_or("off"),
        five(&ctx)
    );
    match which {
        "table1" => table1(&ctx),
        "fig4" => fig4_fig5(&ctx, false),
        "fig5" => fig4_fig5(&ctx, true),
        "table2" => table2(&ctx),
        "table3" => table3(&ctx),
        "fig6" => table3(&ctx), // same runs; fig6 is the progressive view
        "table4" => table4(&ctx),
        "table5" => table5(&ctx),
        "table6" => table6(&ctx),
        "table7" => table7(&ctx),
        "table8" | "fig7" => table8(&ctx),
        "table9" => table9(&ctx),
        "table10" => table10(&ctx),
        "backends" => backends(&ctx),
        "all" => {
            table1(&ctx);
            fig4_fig5(&ctx, false);
            table2(&ctx);
            table3(&ctx);
            table4(&ctx);
            table5(&ctx);
            table6(&ctx);
            table7(&ctx);
            table8(&ctx);
            table9(&ctx);
            table10(&ctx);
            backends(&ctx);
        }
        other => {
            eprintln!("unknown experiment {other:?}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Parse a `--backend` value; the shard count is `Some` only when the
/// spec carried an explicit `@shards` suffix, so `flat` and `flat@1` are
/// distinguishable for precedence purposes.
fn parse_backend_or_exit(v: &str) -> (IndexBackend, Option<usize>) {
    match IndexBackend::parse_sharded(v) {
        Some((b, s)) => (b, v.contains('@').then_some(s)),
        None => {
            eprintln!("--backend {v:?} not recognized\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn parse_shards_or_exit(v: &str) -> usize {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("--shards {v:?} not recognized (positive integer)\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn parse_threads_or_exit(v: &str) -> usize {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("--threads {v:?} not recognized (positive integer)\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn parse_rows_or_exit(v: &str) -> dial_core::RowFormat {
    dial_core::RowFormat::parse(v).unwrap_or_else(|| {
        eprintln!("--rows {v:?} not recognized (f32 | f16 | bf16)\n\n{USAGE}");
        std::process::exit(2);
    })
}

/// The five DeepMatcher-style benchmarks, optionally filtered by
/// `REPRO_DATASETS`.
fn five(_ctx: &ExpContext) -> Vec<Benchmark> {
    let all = Benchmark::five();
    match std::env::var("REPRO_DATASETS") {
        Err(_) => all.to_vec(),
        Ok(list) => {
            let wanted: Vec<&str> = list.split(',').map(str::trim).collect();
            all.into_iter()
                .filter(|b| {
                    wanted.iter().any(|w| {
                        w.eq_ignore_ascii_case(b.short_name().replace('-', "").as_str())
                            || w.eq_ignore_ascii_case(b.short_name())
                    })
                })
                .collect()
        }
    }
}

fn table1(ctx: &ExpContext) {
    let mut rows = Vec::new();
    for b in Benchmark::all() {
        let d = runner::dataset(b, ctx.scale, ctx.seeds[0]);
        let st = d.data.stats();
        write_json("table1", &st);
        rows.push(vec![
            st.name.clone(),
            st.r_size.to_string(),
            st.s_size.to_string(),
            st.dups.to_string(),
            format!("{:.1e}", st.density),
            st.test_size.to_string(),
        ]);
    }
    print_table(
        "Table 1: dataset statistics",
        &["Dataset", "|R|", "|S|", "|dups|", "density", "|Dtest|"],
        &rows,
    );
}

const TPLM_METHODS: [(&str, BlockingStrategy); 4] = [
    ("SentenceBERT", BlockingStrategy::SentenceBert),
    ("PairedFixed", BlockingStrategy::PairedFixed),
    ("PairedAdapt", BlockingStrategy::PairedAdapt),
    ("DIAL", BlockingStrategy::Dial),
];

fn fig4_fig5(ctx: &ExpContext, recall_view: bool) {
    let title = if recall_view {
        "Figure 5: progressive blocker recall on cand"
    } else {
        "Figure 4: progressive test-set F1"
    };
    let mut rows = Vec::new();
    for b in five(ctx) {
        for (name, strat) in TPLM_METHODS {
            let s = run_tplm(ctx, b, name, runner::strategy_mutator(strat));
            write_json(if recall_view { "fig5" } else { "fig4" }, &s);
            rows.push(series_row(&s, recall_view));
        }
        if recall_view {
            let s = run_tplm(ctx, b, "Rules", runner::strategy_mutator(BlockingStrategy::Rules));
            write_json("fig5", &s);
            rows.push(series_row(&s, recall_view));
        }
    }
    print_table(title, &["Dataset", "Method", "per-round series (|T| -> value %)"], &rows);
}

fn series_row(s: &TplmRunSummary, recall_view: bool) -> Vec<String> {
    let series: Vec<String> = s
        .rounds
        .iter()
        .map(|r| format!("{}:{}", r.labels, pct(if recall_view { r.recall } else { r.test_f1 })))
        .collect();
    vec![s.dataset.clone(), s.method.clone(), series.join(" ")]
}

fn table2(ctx: &ExpContext) {
    let mut rows = Vec::new();
    for b in five(ctx) {
        // Non-TPLM baselines.
        let rf = run_rf_row(ctx, b);
        write_json("table2", &rf);
        rows.push(vec![
            b.name().into(),
            rf.method.clone(),
            pct(rf.p),
            pct(rf.r),
            pct(rf.f1),
            secs(rf.rt_secs),
        ]);
        for agnostic in [false, true] {
            let j = run_jedai_row(ctx, b, agnostic);
            write_json("table2", &j);
            rows.push(vec![
                b.name().into(),
                j.method.clone(),
                pct(j.p),
                pct(j.r),
                pct(j.f1),
                secs(j.rt_secs),
            ]);
        }
        // TPLM methods + Rules.
        for (name, strat) in TPLM_METHODS.into_iter().chain([("Rules", BlockingStrategy::Rules)]) {
            let s = run_tplm(ctx, b, name, runner::strategy_mutator(strat));
            write_json("table2", &s);
            let l = s.last();
            rows.push(vec![
                b.name().into(),
                name.into(),
                pct(l.all_p),
                pct(l.all_r),
                pct(l.all_f1),
                secs(s.rt_secs),
            ]);
        }
    }
    print_table(
        "Table 2: all-pairs P/R/F1 + RT at end of AL",
        &["Dataset", "Method", "P", "R", "F1", "RT(s)"],
        &rows,
    );
}

fn table3(ctx: &ExpContext) {
    let mut rows = Vec::new();
    for (name, strat) in [
        ("PairedFixed", BlockingStrategy::PairedFixed),
        ("PairedAdapt", BlockingStrategy::PairedAdapt),
        ("DIAL", BlockingStrategy::Dial),
    ] {
        let s = run_tplm(ctx, Benchmark::Multilingual, name, runner::strategy_mutator(strat));
        write_json("table3", &s);
        let l = s.last();
        rows.push(vec![name.into(), pct(l.all_p), pct(l.all_r), pct(l.all_f1)]);
        // Figure 6 series.
        let series: Vec<String> =
            s.rounds.iter().map(|r| format!("{}:{}", r.labels, pct(r.test_f1))).collect();
        rows.push(vec![format!("  fig6 {name}"), series.join(" "), String::new(), String::new()]);
    }
    print_table("Table 3 / Figure 6: MultiLingual", &["Method", "P", "R", "F1"], &rows);
}

fn table4(ctx: &ExpContext) {
    let mut rows = Vec::new();
    for b in five(ctx) {
        for (name, neg) in
            [("Labeled", NegativeSource::Labeled), ("Random", NegativeSource::Random)]
        {
            let s = run_tplm(ctx, b, &format!("DIAL-neg-{name}"), runner::negatives_mutator(neg));
            write_json("table4", &s);
            let l = s.last();
            rows.push(vec![
                b.short_name().into(),
                name.into(),
                pct(l.recall),
                pct(s.rounds.last().unwrap().test_f1),
                pct(l.all_f1),
            ]);
        }
    }
    print_table(
        "Table 4: labeled vs random negatives for the blocker",
        &["Dataset", "Negatives", "Recall of cand", "Test F1", "All-pairs F1"],
        &rows,
    );
}

fn table5(ctx: &ExpContext) {
    let mut rows = Vec::new();
    for b in five(ctx) {
        for (name, obj) in [
            ("Classification", BlockerObjective::Classification),
            ("Triplet", BlockerObjective::Triplet),
            ("Contrastive", BlockerObjective::Contrastive),
        ] {
            let s = run_tplm(ctx, b, &format!("DIAL-obj-{name}"), runner::objective_mutator(obj));
            write_json("table5", &s);
            let l = s.last();
            rows.push(vec![b.short_name().into(), name.into(), pct(l.test_f1), pct(l.all_f1)]);
        }
    }
    print_table(
        "Table 5: blocker training objective",
        &["Dataset", "Objective", "Test F1", "All-pairs F1"],
        &rows,
    );
}

fn table6(ctx: &ExpContext) {
    let mut rows = Vec::new();
    for b in five(ctx) {
        for (name, size) in
            [("Small", CandSize::Small), ("Medium", CandSize::Medium), ("Large", CandSize::Large)]
        {
            let s = run_tplm(ctx, b, &format!("DIAL-cand-{name}"), runner::cand_size_mutator(size));
            write_json("table6", &s);
            let l = s.last();
            rows.push(vec![b.short_name().into(), name.into(), pct(l.recall), pct(l.all_f1)]);
        }
    }
    print_table(
        "Table 6: candidate-set size",
        &["Dataset", "|cand|", "Recall", "All-pairs F1"],
        &rows,
    );
}

fn table7(ctx: &ExpContext) {
    let mut rows = Vec::new();
    for b in five(ctx) {
        for n in [1usize, 3, 5] {
            let s = run_tplm(ctx, b, &format!("DIAL-N{n}"), runner::committee_mutator(n));
            write_json("table7", &s);
            let l = s.last();
            rows.push(vec![b.short_name().into(), n.to_string(), pct(l.test_f1), pct(l.all_f1)]);
        }
    }
    print_table("Table 7: committee size N", &["Dataset", "N", "Test F1", "All-pairs F1"], &rows);
}

fn table8(ctx: &ExpContext) {
    let strategies = [
        ("Random", SelectionStrategy::Random),
        ("Greedy", SelectionStrategy::Greedy),
        ("Partition-2", SelectionStrategy::Partition2),
        ("Partition-4", SelectionStrategy::Partition4),
        ("QBC", SelectionStrategy::Qbc),
        ("BADGE", SelectionStrategy::Badge),
        ("Uncertainty", SelectionStrategy::Uncertainty),
    ];
    let mut rows = Vec::new();
    for b in five(ctx) {
        for (name, sel) in strategies {
            let s = run_tplm(ctx, b, &format!("DIAL-sel-{name}"), runner::selection_mutator(sel));
            write_json("table8", &s);
            let l = s.last();
            // Figure 7 = the same runs viewed per round; series stored in JSON.
            rows.push(vec![b.short_name().into(), name.into(), pct(l.all_f1)]);
        }
    }
    print_table(
        "Table 8 / Figure 7: selection strategies (all-pairs F1)",
        &["Dataset", "Selector", "All-pairs F1"],
        &rows,
    );
}

fn table9(ctx: &ExpContext) {
    let mut rows = Vec::new();
    let mut tuned = Vec::new();
    for b in five(ctx) {
        let s = run_tplm(ctx, b, "DIAL", runner::strategy_mutator(BlockingStrategy::Dial));
        write_json("table9", &s);
        if let Some(t) = &s.tuning {
            tuned.push((format!("{}/DIAL", b.short_name()), t.clone(), s.overlap_ratio));
        }
        rows.push(vec![
            b.short_name().into(),
            secs(s.timing_train_matcher),
            secs(s.timing_train_committee),
            secs(s.timing_indexing_retrieval),
            secs(s.timing_selection),
            overlap_cell(s.overlap_ratio),
        ]);
    }
    print_table(
        "Table 9: time (s) per operation in the final AL round",
        &[
            "Dataset",
            "Train Matcher",
            "Train Committee",
            "Indexing&Retrieval",
            "Selection",
            "Overlap",
        ],
        &rows,
    );
    print_tuning(&tuned);
}

/// The snapshot-save overlap as a table cell: the fraction of background
/// snapshot I/O hidden behind selection (`RoundTimings::overlap_ratio`),
/// `-` when the run had no background saves to hide.
fn overlap_cell(overlap_ratio: f64) -> String {
    if overlap_ratio > 0.0 {
        format!("{:.0}%", overlap_ratio * 100.0)
    } else {
        "-".into()
    }
}

/// The `tuning` report table: for every run whose retrieval engine
/// calibrated, the measured recall/latency of each knob sweep step
/// (IVF `nprobe` or HNSW `ef_search`) and the chosen configuration
/// (width, shard count, static baseline), plus the run's snapshot-save
/// overlap ratio. Each record also lands in `tuning.jsonl`, wrapped as
/// `{"run": ..., "overlap_ratio": ..., "tuning": {...}}`.
fn print_tuning(entries: &[(String, dial_core::TuningOutcome, f64)]) {
    if entries.is_empty() {
        return;
    }
    struct TuningRecord<'a> {
        run: &'a str,
        overlap_ratio: f64,
        tuning: &'a dial_core::TuningOutcome,
    }
    impl dial_bench::report::ToJson for TuningRecord<'_> {
        fn to_json(&self) -> String {
            dial_bench::report::json_obj(&[
                ("run", dial_bench::report::json_str(self.run)),
                ("overlap_ratio", dial_bench::report::json_f64(self.overlap_ratio)),
                ("tuning", dial_bench::report::ToJson::to_json(self.tuning)),
            ])
        }
    }
    let mut rows = Vec::new();
    for (label, t, overlap) in entries {
        write_json("tuning", &TuningRecord { run: label, overlap_ratio: *overlap, tuning: t });
        for s in &t.steps {
            rows.push(vec![
                label.clone(),
                "step".into(),
                format!("{}={}", t.knob, s.width),
                format!("{:.3}", s.recall),
                format!("{:.0}", s.probe_ns_per_query),
            ]);
        }
        rows.push(vec![
            label.clone(),
            "chosen".into(),
            format!("{}={}", t.knob, t.chosen_width),
            format!("{:.3}", t.chosen_recall),
            format!(
                "shards={} static width={} cal={:.0}ms overlap={}",
                t.shards,
                t.static_width,
                t.calibrate_secs * 1e3,
                overlap_cell(*overlap),
            ),
        ]);
    }
    print_table(
        "Tuning: observed-recall knob calibration (per run)",
        &["Run", "Case", "Width", "Recall@k", "ns/query"],
        &rows,
    );
}

/// ANN backend sweep: the recall/latency trade-off of §5.4's FAISS knob,
/// measured end to end through the DIAL loop. Per backend and dataset:
/// final blocker recall, all-pairs F1, indexing+retrieval seconds, and RT.
/// Every preset runs at the context's shard count, the sweep always
/// includes at least one sharded row (`flat@4` by default) so the parallel
/// build + merged-probe path shows its measured build and probe latency
/// next to the single-index families, and an `auto` row shows the size
/// heuristic with the concrete family it resolved to on that dataset.
fn backends(ctx: &ExpContext) {
    let mut cases: Vec<(IndexBackend, usize)> =
        IndexBackend::presets().into_iter().map(|b| (b, ctx.shards)).collect();
    if ctx.shards == 1 {
        cases.push((IndexBackend::Flat, 4));
    }
    cases.push((IndexBackend::Auto, ctx.shards));
    let mut rows = Vec::new();
    let mut tuned = Vec::new();
    for b in five(ctx) {
        // Auto resolves against the row count of the indexed list (|R|),
        // per shard when sharded.
        let n_r = runner::dataset(b, ctx.scale, ctx.seeds[0]).data.r.len();
        for &(backend, shards) in &cases {
            let s = run_tplm(
                ctx,
                b,
                &format!("DIAL-ix-{}", backend.label_sharded(shards)),
                runner::backend_mutator(backend, shards),
            );
            write_json("backends", &s);
            if let Some(t) = &s.tuning {
                tuned.push((
                    format!("{}/{}", b.short_name(), backend.label_sharded(shards)),
                    t.clone(),
                    s.overlap_ratio,
                ));
            }
            // Report the shard count the run actually resolved: under
            // --auto-tune an unsharded Auto case picks its own count
            // from worker threads, and the label/family must reflect
            // the index that really ran.
            let mut cfg = ctx.base_config(b, ctx.seeds[0]);
            runner::backend_mutator(backend, shards)(&mut cfg);
            let used_shards = cfg.resolved_shards(n_r);
            let l = s.last();
            rows.push(vec![
                b.short_name().into(),
                backend.resolved_label_sharded(n_r, used_shards),
                used_shards.to_string(),
                pct(l.recall),
                pct(l.all_f1),
                format!("{:.3}", s.timing_indexing_retrieval),
                secs(s.rt_secs),
                overlap_cell(s.overlap_ratio),
            ]);
        }
    }
    print_table(
        "Backends: ANN index family vs blocker recall and retrieval latency",
        &[
            "Dataset",
            "Backend",
            "Shards",
            "Recall",
            "All-pairs F1",
            "Index&Retrieval(s)",
            "RT(s)",
            "Overlap",
        ],
        &rows,
    );
    print_tuning(&tuned);
}

fn table10(ctx: &ExpContext) {
    let mut rows = Vec::new();
    for b in five(ctx) {
        let mut cells = vec![b.short_name().to_string()];
        for n in [1usize, 3, 10] {
            let s = run_tplm(ctx, b, &format!("DIAL-N{n}"), runner::committee_mutator(n));
            write_json("table10", &s);
            cells.push(secs(s.rt_secs));
        }
        rows.push(cells);
    }
    print_table(
        "Table 10: testing time (s) vs committee size",
        &["Dataset", "N=1", "N=3", "N=10"],
        &rows,
    );
}
