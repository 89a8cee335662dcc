//! Scale guard: classing and scatter at P = 16384 cost O(P) feature
//! calls, and the scatter stays within its staging budget.
//!
//! A pair's class is resolved from per-rank sites through a relation
//! table, so the extractor is asked for features once per distinct
//! `(site_i, site_j, same_node)` relation, however many of the
//! 134 million pairs share it. CI runs this file in release under
//! `ulimit -v 2097152`, the 2 GiB per-node budget, with a 256 MiB staging
//! budget so the scatter spills: the 512 MiB class grid plus the staged
//! tiles must fit.

use hbar_core::clustering::{classify_pairs, ClassingConfig};
use hbar_simnet::sweep::noise_regime_of;
use hbar_simnet::{
    measure_profile_compressed, DescriptorExecutor, NoiseModel, PairSample, PairWorkDescriptor,
    SpillConfig, SweepConfig, SweepError,
};
use hbar_topo::features::{PairFeatureExtractor, PairFeatures, RankFeatures, TopologyExtractor};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use std::sync::atomic::{AtomicUsize, Ordering};

const P: usize = 16384;

/// Answers every descriptor with the same `(O, L)`, so no class grows or
/// explodes.
struct ConstantExecutor;

impl DescriptorExecutor for ConstantExecutor {
    fn execute_batch(
        &mut self,
        descriptors: &[PairWorkDescriptor],
    ) -> Result<Vec<PairSample>, SweepError> {
        Ok(descriptors
            .iter()
            .map(|d| PairSample {
                id: d.id,
                o: 1e-6,
                l: 1e-7,
            })
            .collect())
    }
}

/// The sweep's topology extractor, counting its feature calls.
struct CountingExtractor {
    inner: TopologyExtractor,
    pair_calls: AtomicUsize,
    rank_calls: AtomicUsize,
}

impl PairFeatureExtractor for CountingExtractor {
    fn site(&self, machine: &MachineSpec, rank: usize, core: usize) -> u32 {
        self.inner.site(machine, rank, core)
    }

    fn pair_features(
        &self,
        machine: &MachineSpec,
        ranks: (usize, usize),
        cores: (usize, usize),
    ) -> PairFeatures {
        self.pair_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.pair_features(machine, ranks, cores)
    }

    fn rank_features(&self, machine: &MachineSpec, rank: usize, core: usize) -> RankFeatures {
        self.rank_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.rank_features(machine, rank, core)
    }

    fn noise_regime(&self) -> u16 {
        self.inner.noise_regime()
    }
}

#[test]
fn classing_and_spilled_scatter_at_p16384() {
    let machine = MachineSpec::new(P / 8, 2, 4);
    let noise = NoiseModel::realistic(7);
    let cfg = SweepConfig::default();

    let ex = CountingExtractor {
        inner: TopologyExtractor::with_noise_regime(noise_regime_of(&noise)),
        pair_calls: AtomicUsize::new(0),
        rank_calls: AtomicUsize::new(0),
    };
    let cores = RankMapping::Block.place(&machine, P);
    let classing = classify_pairs(&machine, &cores, P, &ex, &ClassingConfig::default());
    assert_eq!(
        (classing.pair_classes.len(), classing.diag_classes.len()),
        (4, 2)
    );
    // Two sites (sockets): at most 2 × 2 × 2 pair relations, 2 diagonal.
    let pair_calls = ex.pair_calls.load(Ordering::Relaxed);
    assert!(pair_calls <= 8, "{pair_calls} pair feature calls");
    assert!(ex.rank_calls.load(Ordering::Relaxed) <= 2);

    let dir = std::env::temp_dir().join(format!("hbar_classing_scale_{}", std::process::id()));
    let spill = SpillConfig::budgeted(&dir, 256 << 20);
    let (model, report, spill_report) = measure_profile_compressed(
        &machine,
        &RankMapping::Block,
        P,
        noise,
        &cfg,
        &spill,
        &mut ConstantExecutor,
    )
    .expect("constant sweep completes");
    assert_eq!((report.pair_classes, report.diag_classes), (4, 2));
    assert_eq!(report.total_pairs, P * (P - 1) / 2);
    assert_eq!(model.classes(), 6);
    assert!(model.is_symmetric());
    assert!(
        spill_report.spilled_tiles > 0,
        "the budget must force a spill"
    );
    assert!(spill_report.staged_peak_bytes <= spill.mem_budget_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
