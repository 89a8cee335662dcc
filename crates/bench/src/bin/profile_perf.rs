//! Profiling-sweep regression harness.
//!
//! Gates the sweep (`measure_profile_compressed` on a local executor,
//! expanded with `to_dense()` for comparison) against the
//! frozen exhaustive baseline
//! (`hbar_bench::baseline_profile::measure_profile_exhaustive_baseline`)
//! and records the results to `BENCH_profile.json`:
//!
//! 1. **Bit-parity** — in the singleton-class regime
//!    (`SweepConfig::exact`) the sweep must reproduce the
//!    frozen exhaustive sweep bit for bit (asserted entry by entry before
//!    any timing is reported).
//! 2. **Error bound** — with topology classing, every `(O, L)` entry must
//!    stay within the recorded relative error bound of the exhaustive
//!    profile. The gate runs under [`NoiseModel::quiet`] (the pinned,
//!    dedicated-node regime every serious profiling methodology
//!    prescribes): ≤ 5% on the full schedule, 20% on the `--quick` fast
//!    schedule. A separate **informational** pass records the same
//!    comparison under [`NoiseModel::realistic`]: there the dominant
//!    term is the exhaustive sweep's own per-pair Hockney-intercept
//!    scatter (4% multiplicative jitter amplified through the size
//!    sweep), which clustering smooths over — so the number is reported,
//!    not gated.
//! 3. **Timing** — exhaustive vs clustered wall clock per rank count as
//!    interval estimates (median + 95% nonparametric CI, adaptive rep
//!    counts — the sweeps are seed-deterministic, so repeated runs
//!    re-execute identical measurement plans and the dispersion is pure
//!    harness noise), plus the headline clustered-only sweep at
//!    P = 4096 on the dual-quad-derived synthetic machine, with the
//!    exhaustive cost at that scale extrapolated from the measured
//!    per-pair cost (and recorded as an extrapolation, not a
//!    measurement).
//!
//! ```text
//! profile-perf [--out FILE] [--reps N] [--quick] [--skip-4096]
//! ```

use hbar_bench::baseline_profile::measure_profile_exhaustive_baseline;
use hbar_bench::perf_cli::PerfArgs;
use hbar_bench::stats::{ratio_interval, time_estimate, EstimatorSettings, RunManifest};
use hbar_simnet::profiling::ProfilingConfig;
use hbar_simnet::{
    measure_profile_compressed, LocalExecutor, NoiseModel, SpillConfig, SweepConfig, SweepReport,
};
use hbar_topo::compressed::CompressedCostModel;
use hbar_topo::cost::CostMatrices;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use serde::{Serialize, Value};
use std::hint::black_box;

const SEED: u64 = 42;

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

/// The sweep on a local executor, every scatter tile staged in memory.
fn sweep(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &SweepConfig,
) -> (CompressedCostModel, SweepReport) {
    let mut executor = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
    let spill = SpillConfig::in_memory(std::env::temp_dir());
    let (model, report, _) =
        measure_profile_compressed(machine, mapping, p, noise, cfg, &spill, &mut executor)
            .expect("local sweep below the class limit");
    (model, report)
}

/// Max and mean relative error of `a` against reference `b` over every
/// off-diagonal `(O, L)` entry, and the diagonal `O` entries.
fn rel_errors(a: &CostMatrices, b: &CostMatrices) -> (f64, f64) {
    let mut max = 0.0f64;
    let mut sum = 0.0f64;
    let mut count = 0usize;
    let mut track = |x: f64, y: f64| {
        let e = (x - y).abs() / y.abs().max(1e-300);
        max = max.max(e);
        sum += e;
        count += 1;
    };
    for i in 0..a.p() {
        for j in 0..a.p() {
            if i == j {
                track(a.o[(i, i)], b.o[(i, i)]);
            } else {
                track(a.o[(i, j)], b.o[(i, j)]);
                track(a.l[(i, j)], b.l[(i, j)]);
            }
        }
    }
    (max, sum / count as f64)
}

fn assert_bit_parity(a: &CostMatrices, b: &CostMatrices, label: &str) {
    for (name, x, y) in [("O", &a.o, &b.o), ("L", &a.l, &b.l)] {
        for (idx, (u, v)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "{label}: {name} diverged at entry {idx}"
            );
        }
    }
}

fn main() {
    let args = PerfArgs::parse("BENCH_profile.json");
    let quick = args.quick;
    // The sweeps under test run for seconds each; a handful of adaptive
    // reps is what the budget affords.
    let adaptive = if quick {
        args.adaptive(2, 3)
    } else {
        args.adaptive(3, 5)
    };

    // Parity is exercised under the *noisy* regime (bit-identity must
    // hold under any noise); the error bound is gated under the *quiet*
    // regime, where per-pair intercepts are tight enough for entrywise
    // comparison to measure clustering bias rather than jitter.
    let parity_noise = NoiseModel::realistic(SEED);
    let noise = if quick {
        NoiseModel::realistic(SEED)
    } else {
        NoiseModel::quiet(SEED)
    };
    let mapping = RankMapping::Block;
    let (schedule, parity_ranks, error_ranks, error_bound) = if quick {
        (
            ProfilingConfig::fast(),
            vec![8usize, 12],
            vec![16usize, 32],
            0.2,
        )
    } else {
        (
            ProfilingConfig::default(),
            vec![8usize, 16],
            vec![64usize, 128, 256],
            0.05,
        )
    };

    // 1. Bit-parity gate: singleton-class sweep vs the frozen exhaustive
    // baseline.
    for &p in &parity_ranks {
        let machine = machine_for(p);
        let exhaustive =
            measure_profile_exhaustive_baseline(&machine, &mapping, p, parity_noise, &schedule);
        let (exact, report) = sweep(
            &machine,
            &mapping,
            p,
            parity_noise,
            &SweepConfig::exact(schedule.clone()),
        );
        assert_eq!(
            report.measurements,
            p * (p - 1) / 2 + p,
            "singleton regime must perform exactly the exhaustive measurements"
        );
        assert_bit_parity(
            &exhaustive.cost,
            &exact.to_dense(),
            &format!("parity P={p}"),
        );
        println!(
            "parity  P={p:>4}: bit-identical over {} entries x 2 matrices",
            p * p
        );
    }

    // 2 + 3. Error bound and timing, per rank count.
    let sweep_cfg = SweepConfig {
        profiling: schedule.clone(),
        ..if quick {
            SweepConfig::fast()
        } else {
            SweepConfig::default()
        }
    };
    let mut rows = Vec::new();
    let mut last_per_pair_cost = 0.0f64;
    println!(
        "{:>6} {:>14} {:>14} {:>8} {:>7} {:>9} {:>9} {:>9}",
        "P", "exhaustive", "clustered", "speedup", "reps", "classes", "max_err", "mean_err"
    );
    for &p in &error_ranks {
        let machine = machine_for(p);
        // The sweeps are seed-deterministic: every adaptive rep re-runs
        // the identical measurement plan, so one captured result speaks
        // for all reps.
        let mut exhaustive_result = None;
        let before = time_estimate(&adaptive, 1, || {
            exhaustive_result = Some(black_box(measure_profile_exhaustive_baseline(
                &machine, &mapping, p, noise, &schedule,
            )));
        });
        let exhaustive = exhaustive_result.take().expect("at least one rep ran");
        let mut clustered_result = None;
        let after = time_estimate(&adaptive, 1, || {
            clustered_result = Some(black_box(sweep(&machine, &mapping, p, noise, &sweep_cfg)));
        });
        let (clustered, report) = clustered_result.take().expect("at least one rep ran");
        let (max_err, mean_err) = rel_errors(&clustered.to_dense(), &exhaustive.cost);
        assert!(
            max_err <= error_bound,
            "P={p}: clustered max relative error {max_err} exceeds bound {error_bound}"
        );
        let speedup = before.median / after.median;
        let speedup_ci = ratio_interval(&before, &after);
        last_per_pair_cost = before.median / (p * (p - 1) / 2 + p) as f64;
        println!(
            "{:>6} {:>12.3}ms {:>12.3}ms {:>7.1}x {:>3}/{:<3} {:>9} {:>8.4} {:>8.4}",
            p,
            before.median * 1e3,
            after.median * 1e3,
            speedup,
            before.n,
            after.n,
            report.pair_classes + report.diag_classes,
            max_err,
            mean_err
        );
        rows.push(obj(vec![
            ("ranks", Value::UInt(p as u64)),
            ("exhaustive_s", Value::Float(before.median)),
            ("clustered_s", Value::Float(after.median)),
            ("speedup", Value::Float(speedup)),
            ("speedup_ci_lo", Value::Float(speedup_ci.lo)),
            ("speedup_ci_hi", Value::Float(speedup_ci.hi)),
            ("exhaustive", before.to_value()),
            ("clustered", after.to_value()),
            ("pair_classes", Value::UInt(report.pair_classes as u64)),
            ("diag_classes", Value::UInt(report.diag_classes as u64)),
            ("measurements", Value::UInt(report.measurements as u64)),
            (
                "exhaustive_measurements",
                Value::UInt((p * (p - 1) / 2 + p) as u64),
            ),
            ("max_rel_error", Value::Float(max_err)),
            ("mean_rel_error", Value::Float(mean_err)),
            (
                "within_class_max_spread",
                Value::Float(report.max_rel_spread),
            ),
        ]));
    }

    // Informational pass: the same comparison under the noisy regime.
    // Not gated — under 4% multiplicative jitter the exhaustive sweep's
    // own per-pair intercepts scatter up to ~20% around the class
    // center (the size sweep amplifies jitter into the intercept), so
    // entrywise deviation measures jitter, not clustering bias. The
    // within-class spread recorded alongside is the evidence.
    let mut noisy_regime = Value::Null;
    if !quick {
        let p = 64usize;
        let machine = machine_for(p);
        let loud = NoiseModel::realistic(SEED);
        let exhaustive =
            measure_profile_exhaustive_baseline(&machine, &mapping, p, loud, &schedule);
        let (clustered, report) = sweep(&machine, &mapping, p, loud, &sweep_cfg);
        let (max_err, mean_err) = rel_errors(&clustered.to_dense(), &exhaustive.cost);
        println!(
            "noisy (informational) P={p}: max_err {max_err:.4} mean_err {mean_err:.4} \
             within-class spread {:.4}",
            report.max_rel_spread
        );
        noisy_regime = obj(vec![
            ("ranks", Value::UInt(p as u64)),
            ("jitter_sigma", Value::Float(loud.jitter_sigma)),
            ("spike_prob", Value::Float(loud.spike_prob)),
            ("max_rel_error", Value::Float(max_err)),
            ("mean_rel_error", Value::Float(mean_err)),
            (
                "within_class_max_spread",
                Value::Float(report.max_rel_spread),
            ),
            (
                "note",
                Value::Str(
                    "informational, not gated: under realistic noise the exhaustive \
                     sweep's own per-pair Hockney intercepts scatter by up to ~20% \
                     around the class center, so entrywise deviation is dominated by \
                     jitter in the reference, not by clustering bias"
                        .to_string(),
                ),
            ),
        ]);
    }

    // The headline run: P = 4096 on the dual-quad-derived machine,
    // clustered only — the exhaustive sweep at this scale (8.4M pair
    // benchmarks) is exactly what the decomposition exists to avoid, so
    // its cost is extrapolated from the measured per-pair cost above.
    let mut headline = Value::Null;
    if !args.skip_4096 && !quick {
        let p = 4096usize;
        let machine = MachineSpec::new(512, 2, 4);
        let mut headline_result = None;
        let clustered_est = time_estimate(&adaptive, 1, || {
            headline_result = Some(black_box(sweep(&machine, &mapping, p, noise, &sweep_cfg)));
        });
        let (model, report) = headline_result.take().expect("at least one rep ran");
        assert_eq!(model.p(), p);
        let pairs = p * (p - 1) / 2 + p;
        let extrapolated_exhaustive_s = last_per_pair_cost * pairs as f64;
        let speedup = extrapolated_exhaustive_s / clustered_est.median;
        println!(
            "P=4096: clustered {:.2}s (n={}) over {} classes / {} measurements; \
             exhaustive extrapolates to {:.0}s ({:.0}x)",
            clustered_est.median,
            clustered_est.n,
            report.pair_classes + report.diag_classes,
            report.measurements,
            extrapolated_exhaustive_s,
            speedup
        );
        headline = obj(vec![
            ("ranks", Value::UInt(p as u64)),
            ("clustered_s", Value::Float(clustered_est.median)),
            ("clustered", clustered_est.to_value()),
            ("pair_classes", Value::UInt(report.pair_classes as u64)),
            ("diag_classes", Value::UInt(report.diag_classes as u64)),
            ("measurements", Value::UInt(report.measurements as u64)),
            ("exhaustive_measurements", Value::UInt(pairs as u64)),
            (
                "exhaustive_s_extrapolated",
                Value::Float(extrapolated_exhaustive_s),
            ),
            ("speedup_extrapolated", Value::Float(speedup)),
            (
                "extrapolation",
                Value::Str(
                    "exhaustive cost = measured per-pair cost at the largest exhaustively \
                     measured P, times |P|(|P|-1)/2 + |P|; the exhaustive sweep was not run \
                     at P=4096"
                        .to_string(),
                ),
            ),
        ]);
    }

    let manifest = RunManifest::capture(
        "measure_profile_compressed",
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
        (
            "benchmark",
            Value::Str("measure_profile_compressed".to_string()),
        ),
        ("manifest", manifest.to_value()),
        (
            "before",
            Value::Str(
                "frozen exhaustive sweep (hbar_bench::baseline_profile): every pair of \
                 |P|(|P|-1)/2 benchmarked individually, statically-chunked parallel map"
                    .to_string(),
            ),
        ),
        (
            "after",
            Value::Str(
                "classed sweep: feature-vector pair clustering (interconnect class, \
                 hop signature, socket relation, noise regime), one representative + \
                 validation probes per class with adaptive repetition growth \
                 (hbar_stats::StoppingRule), work-stealing local fan-out, estimates \
                 scattered into the compressed class-grid model"
                    .to_string(),
            ),
        ),
        (
            "machine",
            Value::Str("dual quad-core nodes (cluster-A-derived), block placement".to_string()),
        ),
        (
            "schedule",
            Value::Str(if quick {
                "ProfilingConfig::fast (--quick)".to_string()
            } else {
                "ProfilingConfig::default (paper §IV-A)".to_string()
            }),
        ),
        (
            "statistic",
            Value::Str(
                "median wall-clock seconds with 95% binomial order-statistic CI; reps \
                 adaptive (see manifest.estimator). The timed sweeps are \
                 seed-deterministic, so rep dispersion is harness noise, not \
                 measurement noise"
                    .to_string(),
            ),
        ),
        (
            "parity",
            Value::Str(format!(
                "sweep in the singleton-class regime (SweepConfig::exact) is \
                 bit-identical to the frozen exhaustive baseline at P in {parity_ranks:?} \
                 (asserted before timing)"
            )),
        ),
        ("error_bound", Value::Float(error_bound)),
        (
            "error_semantics",
            Value::Str(
                "max/mean relative deviation of every clustered (O, L) entry from the \
                 frozen exhaustive profile of the same machine, mapping, noise seed, \
                 and schedule"
                    .to_string(),
            ),
        ),
        (
            "gate_noise_regime",
            obj(vec![
                ("jitter_sigma", Value::Float(noise.jitter_sigma)),
                ("spike_prob", Value::Float(noise.spike_prob)),
                (
                    "note",
                    Value::Str(
                        "error bound gated under the quiet (pinned, dedicated-node) \
                         regime; parity gated under the realistic noisy regime"
                            .to_string(),
                    ),
                ),
            ]),
        ),
        ("results", Value::Array(rows)),
        ("noisy_regime_informational", noisy_regime),
        ("headline_p4096", headline),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write(&args.out, json + "\n").expect("write BENCH_profile.json");
    println!("wrote {}", args.out.display());
}
