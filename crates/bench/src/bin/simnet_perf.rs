//! Simulation-engine performance regression harness.
//!
//! Times the full §IV-A profiling sweep (`measure_profile_compressed`
//! with `SweepConfig::exact`: every pair benchmarked on the
//! reusable-engine/amortized-program path) against the frozen pre-rework
//! stack (`hbar_bench::baseline_engine` with its verbatim Box–Muller
//! sampler) across rank counts, and writes interval estimates (median +
//! 95% nonparametric CI, adaptive rep counts), a single-run events/sec
//! estimate, and a reproducibility manifest to `BENCH_simnet.json`.
//!
//! Correctness and speed are checked against two baseline variants:
//! the **parity** sweep runs the frozen engine with the reworked shared
//! sampler injected ([`BaselineNoise::Shared`]), so both stacks see the
//! same noise draws and the topology profiles must agree bit-for-bit;
//! the **timing** sweep runs the fully frozen stack
//! ([`BaselineNoise::Frozen`]) so the "before" number honestly includes
//! the pre-rework Box–Muller sampling cost.
//!
//! ```text
//! simnet-perf [--out FILE] [--reps N] [--quick]
//! ```
//!
//! A separate large-P `engine` row times the simulator itself at
//! P = 4096: building a world (`SimWorld::new`, O(P) since the engine
//! holds no `p × p` table) and the events/s of a reused world running a
//! dissemination barrier, each an interval estimate under its own
//! manifest.
//!
//! `--quick` shrinks the schedule to a CI-sized parity smoke test: the
//! bit-parity assertions still run on every matrix entry, but with the
//! reduced [`ProfilingConfig::fast`] schedule, a tiny rep budget, and the
//! engine row at P = 1024.

use hbar_bench::baseline_engine::{measure_profile_baseline, BaselineNoise};
use hbar_bench::perf_cli::PerfArgs;
use hbar_bench::stats::{ratio_interval, time_estimate, EstimatorSettings, RunManifest};
use hbar_core::algorithms::Algorithm;
use hbar_simnet::barrier::schedule_programs;
use hbar_simnet::profiling::ProfilingConfig;
use hbar_simnet::world::{SimConfig, SimWorld};
use hbar_simnet::{
    measure_profile_compressed, LocalExecutor, NoiseModel, SpillConfig, SweepConfig,
};
use hbar_topo::cost::CostMatrices;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use serde::{Serialize, Value};
use std::hint::black_box;

const RANKS: [usize; 3] = [8, 16, 32];
const SEED: u64 = 42;
/// Rank count of the large-P engine row (`--quick`: [`ENGINE_RANKS_QUICK`]).
const ENGINE_RANKS: usize = 4096;
const ENGINE_RANKS_QUICK: usize = 1024;
/// Barrier repetitions per engine-row run.
const ENGINE_BARRIER_REPS: usize = 5;

/// The exhaustive sweep (exact classes: every pair benchmarked),
/// expanded to dense matrices.
fn measure_every_pair(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &ProfilingConfig,
) -> CostMatrices {
    let mut executor = LocalExecutor::new(machine.clone(), noise, cfg.clone());
    let spill = SpillConfig::in_memory(std::env::temp_dir());
    let exact = SweepConfig::exact(cfg.clone());
    let (model, _, _) =
        measure_profile_compressed(machine, mapping, p, noise, &exact, &spill, &mut executor)
            .expect("local exact sweep below the class limit");
    model.to_dense()
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Engine throughput: events per wall-clock second executing a
/// many-round dissemination barrier on a reused world, with the run
/// time itself measured adaptively.
fn events_per_sec(
    machine: &MachineSpec,
    p: usize,
    adaptive: &hbar_bench::stats::AdaptiveConfig,
) -> (f64, f64, f64) {
    let members: Vec<usize> = (0..p).collect();
    let sched = Algorithm::Dissemination.full_schedule(p, &members);
    let programs = schedule_programs(&sched, 50);
    let mut world = SimWorld::new(
        SimConfig {
            machine: machine.clone(),
            mapping: RankMapping::RoundRobin,
            noise: NoiseModel::realistic(SEED),
        },
        p,
    );
    // Warm the arenas once so the figure reflects steady-state reuse.
    let events = world.run(&programs).expect("barrier runs").events as f64;
    let run_time = time_estimate(adaptive, 1, || {
        black_box(world.run(&programs).expect("barrier runs"));
    });
    // Events per run are deterministic, so the throughput CI is the
    // reciprocal image of the run-time CI.
    (
        events / run_time.median,
        events / run_time.ci_hi,
        events / run_time.ci_lo,
    )
}

/// The large-P engine row: construction time of a P-rank world and the
/// events/s of a reused world running a dissemination barrier.
fn engine_row(p: usize, adaptive: &hbar_bench::stats::AdaptiveConfig) -> Value {
    let cfg = SimConfig {
        machine: MachineSpec::new(p / 8, 2, 4),
        mapping: RankMapping::Block,
        noise: NoiseModel::realistic(SEED),
    };
    let construct = time_estimate(adaptive, 1, || {
        black_box(SimWorld::new(black_box(cfg.clone()), p));
    });
    let members: Vec<usize> = (0..p).collect();
    let sched = Algorithm::Dissemination.full_schedule(p, &members);
    let programs = schedule_programs(&sched, ENGINE_BARRIER_REPS);
    let mut world = SimWorld::new(cfg, p);
    // Warm the slot pool once so the figure reflects steady-state reuse.
    let events = world.run(&programs).expect("barrier runs").events as f64;
    let run = time_estimate(adaptive, 1, || {
        black_box(world.run(&programs).expect("barrier runs"));
    });
    println!(
        "engine P={p}: SimWorld::new {:.3} ms, run {:.3} ms, {:.2}M events/s",
        construct.median * 1e3,
        run.median * 1e3,
        events / run.median / 1e6
    );
    let manifest = RunManifest::capture(
        "engine_large_p",
        SEED,
        &format!("dissemination barrier x{ENGINE_BARRIER_REPS} on a reused world"),
        &format!("dual quad-core nodes (P/8), block placement, P = {p}, NoiseModel::realistic"),
        EstimatorSettings::for_adaptive(adaptive),
    );
    obj(vec![
        ("ranks", Value::UInt(p as u64)),
        ("manifest", manifest.to_value()),
        ("construct_s", Value::Float(construct.median)),
        ("construct", construct.to_value()),
        ("run_s", Value::Float(run.median)),
        ("run", run.to_value()),
        ("events", Value::Float(events)),
        // Events per run are deterministic, so the throughput CI is the
        // reciprocal image of the run-time CI.
        ("events_per_sec", Value::Float(events / run.median)),
        ("events_per_sec_ci_lo", Value::Float(events / run.ci_hi)),
        ("events_per_sec_ci_hi", Value::Float(events / run.ci_lo)),
    ])
}

fn main() {
    let args = PerfArgs::parse("BENCH_simnet.json");
    let adaptive = if args.quick {
        args.adaptive(2, 3)
    } else {
        args.adaptive(5, 15)
    };
    let cfg = if args.quick {
        ProfilingConfig::fast()
    } else {
        ProfilingConfig::default()
    };
    let noise = NoiseModel::realistic(SEED);
    let mapping = RankMapping::RoundRobin;

    let mut rows = Vec::new();
    println!(
        "{:>6} {:>14} {:>14} {:>8} {:>18} {:>7} {:>12}",
        "P", "before", "after", "speedup", "95% CI", "reps", "events/s"
    );
    for p in RANKS {
        // Dual quad-core nodes like cluster A, but without its 8-node cap.
        let machine = MachineSpec::new(p.div_ceil(8), 2, 4);

        // Both sweeps must agree bit-for-bit before timings mean anything;
        // the parity run injects the shared sampler into the frozen engine
        // so the comparison isolates engine mechanics.
        let base =
            measure_profile_baseline(&machine, &mapping, p, noise, BaselineNoise::Shared, &cfg);
        let opt = measure_every_pair(&machine, &mapping, p, noise, &cfg);
        for (name, x, y) in [("O", &base.cost.o, &opt.o), ("L", &base.cost.l, &opt.l)] {
            for (idx, (a, b)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name} diverged at p={p}, entry {idx}"
                );
            }
        }

        let before = time_estimate(&adaptive, 1, || {
            black_box(measure_profile_baseline(
                black_box(&machine),
                &mapping,
                p,
                noise,
                BaselineNoise::Frozen,
                &cfg,
            ));
        });
        let after = time_estimate(&adaptive, 1, || {
            black_box(measure_every_pair(
                black_box(&machine),
                &mapping,
                p,
                noise,
                &cfg,
            ));
        });
        let speedup = before.median / after.median;
        let speedup_ci = ratio_interval(&before, &after);
        let (eps, eps_lo, eps_hi) = events_per_sec(&machine, p, &adaptive);
        println!(
            "{:>6} {:>12.3}ms {:>12.3}ms {:>7.2}x [{:>6.2}, {:>6.2}] {:>3}/{:<3} {:>10.2}M",
            p,
            before.median * 1e3,
            after.median * 1e3,
            speedup,
            speedup_ci.lo,
            speedup_ci.hi,
            before.n,
            after.n,
            eps / 1e6
        );
        rows.push(obj(vec![
            ("ranks", Value::UInt(p as u64)),
            ("before_s", Value::Float(before.median)),
            ("after_s", Value::Float(after.median)),
            ("speedup", Value::Float(speedup)),
            ("speedup_ci_lo", Value::Float(speedup_ci.lo)),
            ("speedup_ci_hi", Value::Float(speedup_ci.hi)),
            ("before", before.to_value()),
            ("after", after.to_value()),
            ("events_per_sec", Value::Float(eps)),
            ("events_per_sec_ci_lo", Value::Float(eps_lo)),
            ("events_per_sec_ci_hi", Value::Float(eps_hi)),
        ]));
    }

    let engine = engine_row(
        if args.quick {
            ENGINE_RANKS_QUICK
        } else {
            ENGINE_RANKS
        },
        &adaptive,
    );

    let manifest = RunManifest::capture(
        "measure_profile",
        SEED,
        if args.quick {
            "ProfilingConfig::fast (--quick)"
        } else {
            "ProfilingConfig::default (paper §IV-A)"
        },
        "dual quad-core nodes (P/8), round-robin placement, NoiseModel::realistic",
        EstimatorSettings::for_adaptive(&adaptive),
    );
    let doc = obj(vec![
        ("benchmark", Value::Str("measure_profile".to_string())),
        ("manifest", manifest.to_value()),
        (
            "before",
            Value::Str(
                "frozen pre-rework stack (hbar_bench::baseline_engine, Frozen): fresh \
                 engine and cloned ground truth per run, binary-heap event queue, \
                 VecDeque matching pools, per-run program clones with owned mark \
                 labels, Box-Muller noise sampler with libm round"
                    .to_string(),
            ),
        ),
        (
            "after",
            Value::Str(
                "reusable engine: arenas built once per pair and reset between runs, \
                 radix-heap event queue, class-indexed link costs and a sparse \
                 pair-slot matching pool recycled between runs, Copy instructions \
                 with interned mark labels, in-place program rebuilds via \
                 PairBench, ziggurat noise sampler; driven through the exact-class \
                 sweep (classing and class-grid scatter included)"
                    .to_string(),
            ),
        ),
        (
            "machine",
            Value::Str("dual quad-core nodes, round-robin placement".to_string()),
        ),
        (
            "schedule",
            Value::Str(if args.quick {
                "ProfilingConfig::fast (--quick)".to_string()
            } else {
                "ProfilingConfig::default (paper §IV-A)".to_string()
            }),
        ),
        (
            "statistic",
            Value::Str(
                "median wall-clock seconds of one full sweep with 95% binomial \
                 order-statistic CI, reps adaptive (see manifest.estimator); every \
                 sweep sample point is itself a median of independent single-round \
                 runs"
                    .to_string(),
            ),
        ),
        (
            "parity",
            Value::Str(
                "O and L matrices bit-identical at every entry to the frozen engine \
                 running the shared sampler (asserted before timing)"
                    .to_string(),
            ),
        ),
        ("results", Value::Array(rows)),
        ("engine", engine),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write(&args.out, json + "\n").expect("write BENCH_simnet.json");
    println!("wrote {}", args.out.display());
}
