//! Model-kernel performance regression harness.
//!
//! Times the optimized algorithmic-model kernels — the receiver-major
//! Eq. 3 knowledge closure (`ClosureWorkspace`), the per-stage knowledge
//! trace (`KnowledgeTrace::recompute`) and the maintained-array SSS
//! clustering — against the frozen pre-optimization copies in
//! `hbar_bench::baseline_model` across rank counts, asserts bit-parity on
//! every output (closures, every trace state, cluster assignments, and
//! tuned schedules), and writes interval estimates (median + 95%
//! nonparametric CI, adaptive rep counts) and a reproducibility manifest
//! to `BENCH_model.json`.
//!
//! ```text
//! model-perf [--out FILE] [--reps N] [--quick]
//! ```
//!
//! `--quick` restricts the sweep to P = 64/256 for CI smoke runs (the
//! full sweep adds P = 1024 and, for the closure and the trace, P = 4096)
//! and shrinks the adaptive rep budget.

use hbar_bench::baseline::tune_hybrid_costs_baseline;
use hbar_bench::baseline_model::{
    baseline_knowledge_closure, baseline_knowledge_trace, baseline_sss_clusters, BaselineBitMat,
};
use hbar_bench::perf_cli::PerfArgs;
use hbar_bench::stats::{
    ratio_interval, time_estimate, Estimate, EstimatorSettings, Interval, RunManifest,
};
use hbar_core::algorithms::Algorithm;
use hbar_core::clustering::{try_sss_clusters_with, SssScratch, SSS_DEFAULT_SPARSENESS};
use hbar_core::compose::{tune_hybrid_costs_with, TunerConfig};
use hbar_core::cost::CostEvaluator;
use hbar_matrix::{BoolMatrix, ClosureWorkspace, KnowledgeTrace};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::metric::DistanceMetric;
use hbar_topo::profile::TopologyProfile;
use serde::{Serialize, Value};
use std::hint::black_box;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One harness row: point estimates for humans, intervals for rigor.
fn row_entries(
    before: &Estimate,
    after: &Estimate,
    speedup: f64,
    speedup_ci: Interval,
) -> Vec<(&'static str, Value)> {
    vec![
        ("before_s", Value::Float(before.median)),
        ("after_s", Value::Float(after.median)),
        ("speedup", Value::Float(speedup)),
        ("speedup_ci_lo", Value::Float(speedup_ci.lo)),
        ("speedup_ci_hi", Value::Float(speedup_ci.hi)),
        ("before", before.to_value()),
        ("after", after.to_value()),
    ]
}

/// ⌈log₂ n⌉ dissemination stages: stage s sends i → (i + 2^s) mod n.
/// Knowledge saturates only at the last stage, so the closure cannot
/// coast on its early exit.
fn dissemination(n: usize) -> Vec<BoolMatrix> {
    let mut stages = Vec::new();
    let mut step = 1;
    while step < n {
        let mut s = BoolMatrix::zeros(n);
        for i in 0..n {
            s.set(i, (i + step) % n, true);
        }
        stages.push(s);
        step *= 2;
    }
    stages
}

fn main() {
    let args = PerfArgs::parse("BENCH_model.json");
    let adaptive = if args.quick {
        args.adaptive(3, 5)
    } else {
        args.adaptive(7, 25)
    };
    let ranks: &[usize] = if args.quick {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096]
    };

    let mut closure_rows = Vec::new();
    let mut trace_rows = Vec::new();
    let mut cluster_rows = Vec::new();
    let mut tune_parity = Vec::new();
    let mut ws = ClosureWorkspace::new();
    let mut trace = KnowledgeTrace::new();
    let mut base_states = Vec::new();
    let mut scratch = SssScratch::default();

    println!(
        "{:>10} {:>6} {:>14} {:>14} {:>8} {:>18} {:>7}",
        "kernel", "P", "before", "after", "speedup", "95% CI", "reps"
    );
    for &p in ranks {
        let batch = match p {
            0..=127 => 20,
            128..=511 => 8,
            512..=2047 => 2,
            _ => 1,
        };

        // --- Eq. 3 knowledge closure over a dissemination schedule. ---
        let stages = dissemination(p);
        let base_stages: Vec<BaselineBitMat> =
            stages.iter().map(BaselineBitMat::from_matrix).collect();

        // Both kernels must agree bit-for-bit before timings mean anything.
        let base_k = baseline_knowledge_closure(p, &base_stages);
        assert_eq!(
            base_k.to_matrix(),
            *ws.closure(p, &stages),
            "closure diverged at p={p}"
        );
        assert_eq!(
            base_k.is_all_true(),
            ws.is_barrier(p, &stages),
            "barrier verdict diverged at p={p}"
        );

        let before = time_estimate(&adaptive, batch, || {
            black_box(baseline_knowledge_closure(p, black_box(&base_stages)));
        });
        let after = time_estimate(&adaptive, batch, || {
            black_box(ws.closure(p, black_box(&stages)));
        });
        let speedup = before.median / after.median;
        let speedup_ci = ratio_interval(&before, &after);
        println!(
            "{:>10} {:>6} {:>12.3}ms {:>12.3}ms {:>7.2}x [{:>6.2}, {:>6.2}] {:>3}/{:<3}",
            "closure",
            p,
            before.median * 1e3,
            after.median * 1e3,
            speedup,
            speedup_ci.lo,
            speedup_ci.hi,
            before.n,
            after.n
        );
        let mut entries = vec![
            ("ranks", Value::UInt(p as u64)),
            ("stages", Value::UInt(stages.len() as u64)),
        ];
        entries.extend(row_entries(&before, &after, speedup, speedup_ci));
        closure_rows.push(obj(entries));

        // --- Per-stage knowledge trace over the tree barrier (arrival
        // then departure), whose sparse stages are the shape the tuner
        // emits. The baseline keeps `K[i][j]` = "j knows i"; the trace is
        // receiver-major, so every state is compared with the baseline's
        // transpose, bit by bit.
        let members: Vec<usize> = (0..p).collect();
        let tree: Vec<BoolMatrix> = Algorithm::Tree
            .full_schedule(p, &members)
            .stages()
            .iter()
            .map(|s| s.matrix.clone())
            .collect();
        baseline_knowledge_trace(p, &tree, &mut base_states);
        trace.recompute(p, &tree);
        assert_eq!(
            base_states.len(),
            trace.stages() + 1,
            "trace length at p={p}"
        );
        for (a, k) in base_states.iter().enumerate() {
            for i in 0..p {
                for j in 0..p {
                    assert_eq!(
                        k.get(i, j),
                        trace.knows(a, j, i),
                        "trace state {a} diverged at p={p}"
                    );
                }
            }
        }

        let before = time_estimate(&adaptive, batch, || {
            baseline_knowledge_trace(p, black_box(&tree), &mut base_states);
        });
        let after = time_estimate(&adaptive, batch, || {
            trace.recompute(p, black_box(&tree));
        });
        let speedup = before.median / after.median;
        let speedup_ci = ratio_interval(&before, &after);
        println!(
            "{:>10} {:>6} {:>12.3}ms {:>12.3}ms {:>7.2}x [{:>6.2}, {:>6.2}] {:>3}/{:<3}",
            "trace",
            p,
            before.median * 1e3,
            after.median * 1e3,
            speedup,
            speedup_ci.lo,
            speedup_ci.hi,
            before.n,
            after.n
        );
        let mut entries = vec![
            ("ranks", Value::UInt(p as u64)),
            ("stages", Value::UInt(tree.len() as u64)),
            (
                "before_per_stage_s",
                Value::Float(before.median / tree.len() as f64),
            ),
            (
                "after_per_stage_s",
                Value::Float(after.median / tree.len() as f64),
            ),
        ];
        entries.extend(row_entries(&before, &after, speedup, speedup_ci));
        trace_rows.push(obj(entries));

        // The SSS rows need a dense P² metric; they stop at P = 1024.
        if p > 1024 {
            continue;
        }

        // --- SSS clustering over a two-level machine metric. ---
        let machine = MachineSpec::new(p.div_ceil(8), 2, 4);
        let profile = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, p);
        let metric = DistanceMetric::from_costs(&profile.cost);
        let dia = metric.diameter();

        let base_clusters = baseline_sss_clusters(&metric, &members, SSS_DEFAULT_SPARSENESS, dia);
        let opt_clusters =
            try_sss_clusters_with(&metric, &members, SSS_DEFAULT_SPARSENESS, dia, &mut scratch)
                .expect("ground-truth metric is finite");
        assert_eq!(base_clusters, opt_clusters, "clusters diverged at p={p}");

        let before = time_estimate(&adaptive, batch, || {
            black_box(baseline_sss_clusters(
                black_box(&metric),
                &members,
                SSS_DEFAULT_SPARSENESS,
                dia,
            ));
        });
        let after = time_estimate(&adaptive, batch, || {
            black_box(
                try_sss_clusters_with(
                    black_box(&metric),
                    &members,
                    SSS_DEFAULT_SPARSENESS,
                    dia,
                    &mut scratch,
                )
                .expect("finite"),
            );
        });
        let speedup = before.median / after.median;
        let speedup_ci = ratio_interval(&before, &after);
        println!(
            "{:>10} {:>6} {:>12.3}ms {:>12.3}ms {:>7.2}x [{:>6.2}, {:>6.2}] {:>3}/{:<3}",
            "sss",
            p,
            before.median * 1e3,
            after.median * 1e3,
            speedup,
            speedup_ci.lo,
            speedup_ci.hi,
            before.n,
            after.n
        );
        let mut entries = vec![
            ("ranks", Value::UInt(p as u64)),
            ("clusters", Value::UInt(base_clusters.len() as u64)),
        ];
        entries.extend(row_entries(&before, &after, speedup, speedup_ci));
        cluster_rows.push(obj(entries));

        // --- Tuned-schedule parity: the end-to-end tune over the reworked
        // kernels must still emit the seed-era schedule. The frozen tuner is
        // quadratic-ish, so the comparison stops at P = 256.
        if p <= 256 {
            let cfg = TunerConfig::default();
            let mut eval = CostEvaluator::new(cfg.cost_params);
            let base = tune_hybrid_costs_baseline(&profile.cost, &members, &cfg);
            let opt = tune_hybrid_costs_with(&profile.cost, &members, &cfg, &mut eval);
            assert_eq!(base.schedule, opt.schedule, "schedule diverged at p={p}");
            assert_eq!(
                base.predicted_cost.to_bits(),
                opt.predicted_cost.to_bits(),
                "prediction diverged at p={p}"
            );
            tune_parity.push(Value::UInt(p as u64));
        }
    }

    let manifest = RunManifest::capture(
        "model_kernels",
        0, // deterministic kernels over ground-truth inputs, no noise
        "dissemination-stage closure, tree-barrier trace + SSS over \
         ground-truth metrics; samples average size-scaled batches \
         (20/8/2/1 calls at P=64/256/1024/4096)",
        "P/8 dual quad-core nodes, round-robin mapping",
        EstimatorSettings::for_adaptive(&adaptive),
    );
    let doc = obj(vec![
        ("benchmark", Value::Str("model_kernels".to_string())),
        ("manifest", manifest.to_value()),
        (
            "before",
            Value::Str(
                "frozen pre-optimization kernels (hbar_bench::baseline_model): \
                 per-set-bit row-OR product, allocating per-stage closure, \
                 dense per-stage product trace (one K matrix per state), \
                 min_by SSS over recomputed distances"
                    .to_string(),
            ),
        ),
        (
            "after",
            Value::Str(
                "receiver-major Eq. 3 (ClosureWorkspace / KnowledgeTrace): \
                 per signal i -> j, OR snapshot row i into row j; full rows \
                 skipped, early exit once all are full; the trace records \
                 only the rows each stage changed. SSS with maintained \
                 nearest-center arrays over contiguous metric rows"
                    .to_string(),
            ),
        ),
        (
            "machine",
            Value::Str("P/8 dual quad-core nodes, round-robin mapping".to_string()),
        ),
        (
            "statistic",
            Value::Str(
                "median wall-clock seconds with 95% binomial order-statistic CI; \
                 reps adaptive until the relative CI half-width meets the target \
                 or the budget is spent (see manifest.estimator)"
                    .to_string(),
            ),
        ),
        ("closure", Value::Array(closure_rows)),
        ("trace", Value::Array(trace_rows)),
        ("clustering", Value::Array(cluster_rows)),
        ("tune_parity_ranks", Value::Array(tune_parity)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write(&args.out, json + "\n").expect("write BENCH_model.json");
    println!("wrote {}", args.out.display());
}
