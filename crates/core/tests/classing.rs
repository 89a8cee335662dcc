//! The factoring contract behind site-space classing.
//!
//! `classify_pairs` hashes a pair's features only the first time its
//! `(site_i, site_j, same_node)` relation appears and answers every other
//! pair from the relation table. That is sound exactly when the
//! extractor's features factor through sites, so this property test
//! checks the table's answers against features computed directly for
//! every cell, over random machines, placements, both extractors and
//! both scan orientations.

use hbar_core::clustering::{classify_pairs, ClassingConfig};
use hbar_topo::features::{ExactExtractor, PairFeatureExtractor, TopologyExtractor};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn class_lookups_match_directly_computed_features(
        (nodes, sockets, cores_per_socket) in (1usize..=4, 1usize..=3, 1usize..=4),
        p_frac in 0.0f64..1.0,
        round_robin in any::<bool>(),
        exact in any::<bool>(),
        symmetric in any::<bool>(),
        noise_regime in 0u16..4,
    ) {
        let machine = MachineSpec::new(nodes, sockets, cores_per_socket);
        let total = machine.total_cores();
        prop_assume!(total >= 2);
        let p = 2 + ((total - 2) as f64 * p_frac) as usize;
        let mapping = if round_robin { RankMapping::RoundRobin } else { RankMapping::Block };
        let cores = mapping.place(&machine, p);
        let topology = TopologyExtractor::with_noise_regime(noise_regime);
        let exact_extractor = ExactExtractor { noise_regime };
        let ex: &dyn PairFeatureExtractor = if exact { &exact_extractor } else { &topology };
        let classing = classify_pairs(
            &machine,
            &cores,
            p,
            ex,
            &ClassingConfig { symmetric, probes_per_class: 2, probe_seed: 5 },
        );
        prop_assert_eq!(classing.p(), p);
        for i in 0..p {
            let f = ex.rank_features(&machine, i, cores[i]);
            prop_assert_eq!(classing.diag_classes[classing.diag_class_of(i)].features, f);
            for j in (0..p).filter(|&j| j != i) {
                // A symmetric classing scanned `(min, max)` only.
                let (a, b) = if symmetric { (i.min(j), i.max(j)) } else { (i, j) };
                let f = ex.pair_features(&machine, (a, b), (cores[a], cores[b]));
                prop_assert_eq!(classing.pair_classes[classing.class_of(i, j)].features, f);
            }
        }
        let scanned = if symmetric { p * (p - 1) / 2 } else { p * (p - 1) };
        prop_assert_eq!(classing.total_pairs, scanned);
        let members: usize = classing.pair_classes.iter().map(|c| c.members).sum();
        prop_assert_eq!(members, scanned);
        let diag_members: usize = classing.diag_classes.iter().map(|c| c.members).sum();
        prop_assert_eq!(diag_members, p);
    }
}
