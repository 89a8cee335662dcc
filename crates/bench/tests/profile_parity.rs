//! The exhaustive-sweep oracle: the profiling sweep in its exact-class
//! regime must reproduce the frozen §IV-A exhaustive sweep
//! ([`measure_profile_exhaustive_baseline`]) bit for bit, on random
//! machine shapes, mappings and noise seeds.

use hbar_bench::baseline_profile::measure_profile_exhaustive_baseline;
use hbar_matrix::DenseMatrix;
use hbar_simnet::profiling::ProfilingConfig;
use hbar_simnet::sweep::SweepConfig;
use hbar_simnet::{measure_profile_compressed, LocalExecutor, NoiseModel, SpillConfig};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Singleton-class property: when every pair is its own class, the
    /// sweep IS the exhaustive sweep — bit for bit, for any machine
    /// shape, mapping, and noise seed.
    #[test]
    fn singleton_regime_is_bit_identical_to_exhaustive(
        (nodes, sockets, cores) in (1usize..=2, 1usize..=2, 1usize..=3),
        p in 2usize..=8,
        seed in 0u64..1000,
        round_robin in any::<bool>(),
    ) {
        let machine = MachineSpec::new(nodes, sockets, cores);
        prop_assume!(p <= machine.total_cores());
        let mapping = if round_robin { RankMapping::RoundRobin } else { RankMapping::Block };
        let noise = NoiseModel::realistic(seed);
        let cfg = ProfilingConfig::fast();
        let exhaustive = measure_profile_exhaustive_baseline(&machine, &mapping, p, noise, &cfg);
        let mut executor = LocalExecutor::new(machine.clone(), noise, cfg.clone());
        let spill = SpillConfig::in_memory(std::env::temp_dir().join("hbar_profile_parity_unused"));
        let (model, report, _) = measure_profile_compressed(
            &machine,
            &mapping,
            p,
            noise,
            &SweepConfig::exact(cfg),
            &spill,
            &mut executor,
        )
        .expect("local sweep is infallible below the class limit");
        let exact = model.to_dense();
        let bits = |m: &DenseMatrix<f64>| -> Vec<u64> {
            m.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        prop_assert_eq!(bits(&exhaustive.cost.o), bits(&exact.o));
        prop_assert_eq!(bits(&exhaustive.cost.l), bits(&exact.l));
        prop_assert_eq!(report.measurements, p * (p - 1) / 2 + p);
    }
}
