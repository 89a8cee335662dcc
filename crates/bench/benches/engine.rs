//! Reworked simulation-engine microbenchmarks: raw event throughput on a
//! reused world, and the amortized profiling sweep that the §IV-A cost
//! matrices are built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hbar_core::algorithms::Algorithm;
use hbar_simnet::barrier::schedule_programs;
use hbar_simnet::profiling::ProfilingConfig;
use hbar_simnet::world::{SimConfig, SimWorld};
use hbar_simnet::{
    measure_profile_compressed, LocalExecutor, NoiseModel, SpillConfig, SweepConfig,
};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use std::hint::black_box;

/// Steady-state interpreter throughput: a many-round dissemination barrier
/// re-run on one world, so arenas, matching pools and the event queue are
/// all reused between iterations.
fn bench_engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    for p in [16usize, 64] {
        let machine = MachineSpec::new(p.div_ceil(8), 2, 4);
        let members: Vec<usize> = (0..p).collect();
        let sched = Algorithm::Dissemination.full_schedule(p, &members);
        let programs = schedule_programs(&sched, 50);
        let mut world = SimWorld::new(
            SimConfig {
                machine,
                mapping: RankMapping::RoundRobin,
                noise: NoiseModel::realistic(42),
            },
            p,
        );
        group.bench_with_input(
            BenchmarkId::new("dissemination-50r", p),
            &programs,
            |b, programs| b.iter(|| black_box(world.run(black_box(programs)).expect("runs"))),
        );
    }
    group.finish();
}

/// The exhaustive (exact-class) profiling sweep on the reduced schedule:
/// the end-to-end path the BENCH_simnet harness measures, at
/// criterion-friendly size.
fn bench_profile_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile_sweep");
    group.sample_size(10);
    let cfg = SweepConfig::exact(ProfilingConfig::fast());
    let noise = NoiseModel::realistic(42);
    let mapping = RankMapping::RoundRobin;
    let spill = SpillConfig::in_memory(std::env::temp_dir());
    for p in [8usize, 16] {
        let machine = MachineSpec::new(p.div_ceil(8), 2, 4);
        let mut executor = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
        group.bench_with_input(BenchmarkId::new("fast", p), &machine, |b, machine| {
            b.iter(|| {
                black_box(
                    measure_profile_compressed(
                        black_box(machine),
                        &mapping,
                        p,
                        noise,
                        &cfg,
                        &spill,
                        &mut executor,
                    )
                    .expect("local sweep"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_throughput, bench_profile_sweep);
criterion_main!(benches);
