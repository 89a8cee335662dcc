//! Large-P memory-wall regression harness.
//!
//! Gates the class-compressed cost model and the out-of-core scatter
//! against the dense cost matrices and records the results to
//! `BENCH_scale.json`:
//!
//! 1. **Bit-parity** — at P ≤ 256 the compressed model of the clustered
//!    sweep must agree with its dense expansion: `to_dense()` recompresses
//!    (`CompressedCostModel::from_dense`) to the same fingerprint, the
//!    dense and compressed fingerprints agree, and a full tune over either
//!    backing emits the identical schedule and prediction (asserted
//!    before any timing is reported).
//! 2. **Cold-tune timing** — dense vs compressed end-to-end tunes
//!    (clustering metric build included — the dense path allocates an
//!    O(|P|²) distance matrix, the compressed path aliases the class
//!    grid zero-copy) per rank count as interval estimates, with the
//!    resident cost-model bytes of both backings recorded alongside.
//! 3. **Headline** — the P = 16384 compressed clustered profile and
//!    warm tune under `--mem-budget` (default 2 GiB): the scatter runs
//!    tile-at-a-time against a staging budget of one eighth of the
//!    memory budget (256 MiB at the default, which is less than the
//!    512 MiB class grid, so the spill path demonstrably executes), and
//!    the kernel's own peak-RSS gauge (`VmHWM`) is recorded and gated
//!    against the budget. The dense pipeline would need 4 GiB for the
//!    O/L matrices alone before tuning could even start.
//!
//! ```text
//! scale-perf [--out FILE] [--reps N] [--quick] [--skip-4096] [--mem-budget BYTES]
//! ```
//!
//! `--quick` shrinks the sweep (parity at P = 8/64, timing at P = 256,
//! headline at P = 2048) for CI smoke runs; pairing it with a tiny
//! `--mem-budget` forces every scatter tile through the spill
//! directory, which is exactly what the CI smoke does. The peak-RSS
//! gate only applies when the budget is ≥ 1 GiB (a deliberately tiny
//! budget proves spilling, not residency).

use hbar_bench::perf_cli::PerfArgs;
use hbar_bench::stats::{
    peak_rss_bytes, ratio_interval, time_estimate, EstimatorSettings, RunManifest,
};
use hbar_core::compose::{tune_hybrid_costs, tune_hybrid_costs_with, TunerConfig};
use hbar_core::cost::CostEvaluator;
use hbar_simnet::profiling::ProfilingConfig;
use hbar_simnet::{
    measure_profile_compressed, LocalExecutor, NoiseModel, SpillConfig, SpillReport, SweepConfig,
    SweepReport,
};
use hbar_topo::compressed::CompressedCostModel;
use hbar_topo::cost::CostProvider;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use serde::{Serialize, Value};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 42;

/// Default memory budget: 2 GiB, the headline residency claim.
const DEFAULT_MEM_BUDGET: u64 = 2 << 30;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Dual quad-core nodes (cluster-A-derived), enough of them for `p`.
fn machine_for(p: usize) -> MachineSpec {
    MachineSpec::new(p.div_ceil(8), 2, 4)
}

/// A scratch spill directory unique to this process.
fn spill_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hbar-scale-{}-{tag}", std::process::id()))
}

/// The sweep on a local executor.
fn sweep(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &SweepConfig,
    spill: &SpillConfig,
) -> (CompressedCostModel, SweepReport, SpillReport) {
    let mut executor = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
    measure_profile_compressed(machine, mapping, p, noise, cfg, spill, &mut executor)
        .expect("local sweep below the class limit")
}

/// Dense-equivalent resident bytes of a `p`-rank cost model: two
/// `p × p` f64 matrices (O and L).
fn dense_bytes(p: usize) -> u64 {
    2 * (p as u64) * (p as u64) * 8
}

fn main() {
    let (args, extras) = PerfArgs::parse_with("BENCH_scale.json", &["mem-budget"]);
    let quick = args.quick;
    let mem_budget: u64 = extras
        .get("mem-budget")
        .map(|v| {
            v.parse()
                .ok()
                .filter(|&n: &u64| n > 0)
                .expect("--mem-budget needs a positive byte count")
        })
        .unwrap_or(DEFAULT_MEM_BUDGET);
    // The scatter's staging budget: tiles beyond this spill to disk.
    // One eighth of the memory budget keeps staged tiles comfortably
    // below the ceiling while still forcing spills whenever the grid is
    // larger than budget/8 (512 MiB grid vs 256 MiB staging at P=16384
    // under the default budget).
    let staging_budget = (mem_budget / 8).max(1) as usize;
    let adaptive = if quick {
        args.adaptive(2, 3)
    } else {
        args.adaptive(3, 5)
    };
    let noise = NoiseModel::realistic(SEED);
    let mapping = RankMapping::Block;
    let profiling = if quick {
        ProfilingConfig::fast()
    } else {
        ProfilingConfig::default()
    };
    let sweep_cfg = SweepConfig {
        profiling,
        ..if quick {
            SweepConfig::fast()
        } else {
            SweepConfig::default()
        }
    };
    let tuner_cfg = TunerConfig::default();

    let parity_ranks: &[usize] = if quick { &[8, 64] } else { &[8, 64, 256] };
    let mut timing_ranks: Vec<usize> = if quick {
        vec![256]
    } else {
        vec![256, 1024, 4096]
    };
    if args.skip_4096 {
        timing_ranks.retain(|&p| p != 4096);
    }
    let headline_p = if quick { 2048 } else { 16384 };

    // 1. Bit-parity gate: the clustered sweep's compressed model against
    // its dense expansion.
    let mut parity_rows = Vec::new();
    for &p in parity_ranks {
        let machine = machine_for(p);
        let spill = SpillConfig::in_memory(spill_dir(&format!("parity{p}")));
        let (model, _, _) = sweep(&machine, &mapping, p, noise, &sweep_cfg, &spill);
        let dense = model.to_dense();
        let recompressed =
            CompressedCostModel::from_dense(&dense).expect("recompress at parity scale");
        assert_eq!(
            recompressed.fingerprint(),
            model.fingerprint(),
            "P={p}: dense round trip diverged"
        );
        assert_eq!(
            model.fingerprint(),
            dense.fingerprint(),
            "P={p}: fingerprints diverged"
        );
        let members: Vec<usize> = (0..p).collect();
        let dense_tune = tune_hybrid_costs(&dense, &members, &tuner_cfg);
        let comp_tune = tune_hybrid_costs(&model, &members, &tuner_cfg);
        assert_eq!(
            dense_tune.schedule, comp_tune.schedule,
            "P={p}: tuned schedules diverged across backings"
        );
        assert_eq!(
            dense_tune.predicted_cost.to_bits(),
            comp_tune.predicted_cost.to_bits(),
            "P={p}: predictions diverged across backings"
        );
        println!(
            "parity  P={p:>4}: dense round trip agrees over {} entries x 2 matrices, {} classes, \
             identical {}-stage tune",
            p * p,
            model.classes(),
            comp_tune.schedule.len()
        );
        parity_rows.push(obj(vec![
            ("ranks", Value::UInt(p as u64)),
            ("classes", Value::UInt(model.classes() as u64)),
            ("dense_roundtrip_equal", Value::Bool(true)),
            ("fingerprint_equal", Value::Bool(true)),
            ("tune_equal", Value::Bool(true)),
        ]));
    }

    // 2. Cold-tune timing: dense vs compressed backing, clustering
    // metric build included.
    let mut timing_rows = Vec::new();
    println!(
        "{:>6} {:>14} {:>14} {:>8} {:>18} {:>7} {:>12} {:>12}",
        "P", "dense", "compressed", "speedup", "95% CI", "reps", "dense_B", "compr_B"
    );
    for &p in &timing_ranks {
        let machine = machine_for(p);
        let spill = SpillConfig::in_memory(spill_dir(&format!("timing{p}")));
        let (model, _, _) = sweep(&machine, &mapping, p, noise, &sweep_cfg, &spill);
        let dense = model.to_dense();
        let members: Vec<usize> = (0..p).collect();
        // Outputs must agree before the timings mean anything.
        let dense_tune = tune_hybrid_costs(&dense, &members, &tuner_cfg);
        let comp_tune = tune_hybrid_costs(&model, &members, &tuner_cfg);
        assert_eq!(
            dense_tune.schedule, comp_tune.schedule,
            "P={p}: tuned schedules diverged across backings"
        );
        let before = time_estimate(&adaptive, 1, || {
            black_box(tune_hybrid_costs(black_box(&dense), &members, &tuner_cfg));
        });
        let after = time_estimate(&adaptive, 1, || {
            black_box(tune_hybrid_costs(black_box(&model), &members, &tuner_cfg));
        });
        let speedup = before.median / after.median;
        let speedup_ci = ratio_interval(&before, &after);
        println!(
            "{:>6} {:>12.3}ms {:>12.3}ms {:>7.2}x [{:>6.2}, {:>6.2}] {:>3}/{:<3} {:>12} {:>12}",
            p,
            before.median * 1e3,
            after.median * 1e3,
            speedup,
            speedup_ci.lo,
            speedup_ci.hi,
            before.n,
            after.n,
            dense_bytes(p),
            model.heap_bytes()
        );
        timing_rows.push(obj(vec![
            ("ranks", Value::UInt(p as u64)),
            ("dense_s", Value::Float(before.median)),
            ("compressed_s", Value::Float(after.median)),
            ("speedup", Value::Float(speedup)),
            ("speedup_ci_lo", Value::Float(speedup_ci.lo)),
            ("speedup_ci_hi", Value::Float(speedup_ci.hi)),
            ("dense", before.to_value()),
            ("compressed", after.to_value()),
            ("dense_model_bytes", Value::UInt(dense_bytes(p))),
            (
                "compressed_model_bytes",
                Value::UInt(model.heap_bytes() as u64),
            ),
            ("classes", Value::UInt(model.classes() as u64)),
            ("stages", Value::UInt(comp_tune.schedule.len() as u64)),
        ]));
    }

    // 3. Headline: the compressed clustered profile and warm tune at
    // P = 16384 (2048 under --quick) inside the memory budget. Single
    // timed executions — at this scale the sweep is the benchmark, and
    // it is seed-deterministic.
    let p = headline_p;
    let machine = machine_for(p);
    let spill = SpillConfig::budgeted(spill_dir("headline"), staging_budget);
    let profile_started = Instant::now();
    let (model, report, spill_report) = sweep(&machine, &mapping, p, noise, &sweep_cfg, &spill);
    let profile_s = profile_started.elapsed().as_secs_f64();
    let grid_bytes = model.heap_bytes();
    let spill_forced = grid_bytes > staging_budget;
    if spill_forced {
        assert!(
            spill_report.spilled_tiles >= 1,
            "staging budget {staging_budget} is below the {grid_bytes}-byte grid, \
             yet no tile spilled: {spill_report:?}"
        );
    }
    let members: Vec<usize> = (0..p).collect();
    let mut eval = CostEvaluator::new(tuner_cfg.cost_params);
    let tune_started = Instant::now();
    let cold_tune = tune_hybrid_costs_with(&model, &members, &tuner_cfg, &mut eval);
    let tune_s = tune_started.elapsed().as_secs_f64();
    // Warm: same evaluator, memoized scores and derived caches intact.
    let warm_started = Instant::now();
    let warm_tune = tune_hybrid_costs_with(&model, &members, &tuner_cfg, &mut eval);
    let warm_tune_s = warm_started.elapsed().as_secs_f64();
    assert_eq!(
        cold_tune.predicted_cost.to_bits(),
        warm_tune.predicted_cost.to_bits(),
        "warm tune must be bit-stable"
    );
    assert_eq!(cold_tune.schedule, warm_tune.schedule);
    let peak = peak_rss_bytes();
    // The residency gate: only meaningful for real budgets — a tiny
    // --mem-budget exists to prove spilling, and the process image
    // alone exceeds it.
    let gate_budget = mem_budget >= 1 << 30;
    let budget_respected = match peak {
        Some(rss) => rss <= mem_budget,
        None => false,
    };
    if gate_budget {
        let rss = peak.expect("peak-RSS gauge required for the headline claim");
        assert!(
            rss <= mem_budget,
            "peak RSS {rss} exceeds the {mem_budget}-byte budget"
        );
    }
    println!(
        "P={p}: compressed profile {profile_s:.2}s ({} classes, {} measurements, \
         {}/{} tiles spilled, {} spill bytes), tune {tune_s:.2}s (warm {warm_tune_s:.3}s, \
         {} stages, predicted {:.1} us), model {} B vs dense {} B, peak RSS {:?} \
         (budget {mem_budget})",
        report.pair_classes + report.diag_classes,
        report.measurements,
        spill_report.spilled_tiles,
        spill_report.tiles,
        spill_report.spill_bytes,
        warm_tune.schedule.len(),
        warm_tune.predicted_cost * 1e6,
        grid_bytes,
        dense_bytes(p),
        peak
    );
    let headline = obj(vec![
        ("ranks", Value::UInt(p as u64)),
        ("profile_s", Value::Float(profile_s)),
        ("tune_s", Value::Float(tune_s)),
        ("warm_tune_s", Value::Float(warm_tune_s)),
        ("predicted_cost_s", Value::Float(warm_tune.predicted_cost)),
        ("stages", Value::UInt(warm_tune.schedule.len() as u64)),
        (
            "signals",
            Value::UInt(warm_tune.schedule.total_signals() as u64),
        ),
        ("pair_classes", Value::UInt(report.pair_classes as u64)),
        ("diag_classes", Value::UInt(report.diag_classes as u64)),
        ("measurements", Value::UInt(report.measurements as u64)),
        ("compressed_model_bytes", Value::UInt(grid_bytes as u64)),
        ("dense_equivalent_bytes", Value::UInt(dense_bytes(p))),
        ("mem_budget_bytes", Value::UInt(mem_budget)),
        ("staging_budget_bytes", Value::UInt(staging_budget as u64)),
        (
            "peak_rss_bytes",
            match peak {
                Some(rss) => Value::UInt(rss),
                None => Value::Null,
            },
        ),
        ("budget_respected", Value::Bool(budget_respected)),
        ("spill_forced", Value::Bool(spill_forced)),
        (
            "spill",
            obj(vec![
                ("tiles", Value::UInt(spill_report.tiles as u64)),
                (
                    "spilled_tiles",
                    Value::UInt(spill_report.spilled_tiles as u64),
                ),
                (
                    "staged_peak_bytes",
                    Value::UInt(spill_report.staged_peak_bytes as u64),
                ),
                ("spill_bytes", Value::UInt(spill_report.spill_bytes)),
                ("tile_rows", Value::UInt(spill_report.tile_rows as u64)),
            ]),
        ),
    ]);

    // Captured after the workload, so manifest.peak_rss_bytes gauges
    // the whole run.
    let manifest = RunManifest::capture(
        "scale_compressed",
        SEED,
        if quick {
            "ProfilingConfig::fast (--quick); SweepConfig::fast classing"
        } else {
            "ProfilingConfig::default (paper §IV-A); SweepConfig::default classing"
        },
        "dual quad-core nodes (cluster-A-derived), block placement",
        EstimatorSettings::for_adaptive(&adaptive),
    );
    let doc = obj(vec![
        ("benchmark", Value::Str("scale_compressed".to_string())),
        ("manifest", manifest.to_value()),
        (
            "before",
            Value::Str(
                "dense |P|^2 cost storage: two p x p f64 matrices (O, L) plus an \
                 O(|P|^2) f64 distance matrix materialized per tune for clustering"
                    .to_string(),
            ),
        ),
        (
            "after",
            Value::Str(
                "class-compressed cost model: u16 pair-class grid + per-class value \
                 tables built straight from the sweep's classify_pairs buckets via \
                 budget-bounded scatter tiles (overflow spills to disk, merged \
                 deterministically by tile id); the clustering metric aliases the \
                 grid zero-copy"
                    .to_string(),
            ),
        ),
        (
            "machine",
            Value::Str("dual quad-core nodes (cluster-A-derived), block placement".to_string()),
        ),
        (
            "statistic",
            Value::Str(
                "cold-tune rows: median wall-clock seconds with 95% binomial \
                 order-statistic CI, adaptive reps (see manifest.estimator); the \
                 headline profile/tune are single timed executions of \
                 seed-deterministic work"
                    .to_string(),
            ),
        ),
        (
            "parity_semantics",
            Value::Str(
                "compressed model of the clustered sweep vs its to_dense() \
                 expansion: from_dense(to_dense()) reproduces the fingerprint, \
                 cost fingerprints equal, full tunes emit identical schedules and \
                 bit-identical predictions (asserted before timing)"
                    .to_string(),
            ),
        ),
        ("mem_budget_bytes", Value::UInt(mem_budget)),
        ("parity", Value::Array(parity_rows)),
        ("cold_tune", Value::Array(timing_rows)),
        ("headline", headline),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write(&args.out, json + "\n").expect("write BENCH_scale.json");
    println!("wrote {}", args.out.display());
}
