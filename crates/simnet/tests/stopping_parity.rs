//! Pins the profiling sweep's numbers to golden FNV-1a fingerprints.
//!
//! The first pair of tests pins the adaptive-repetition behavior to hashes
//! captured before the stopping rule was delegated to `hbar-stats`. Their
//! configuration deliberately drives every layer of the repetition logic —
//! multi-member classes, validation probes, a tolerance tight enough to
//! force growth rounds, and the explosion safety valve disabled — so any
//! drift in the shared rule's arithmetic (median, relative spread,
//! grow/stop decision) changes the scattered matrices and flips the hash.
//!
//! The rest pin every classing regime the sweep offers — exact classes
//! (measurement-for-measurement the exhaustive `|P|(|P|−1)/2` sweep of
//! §IV-A), topology classes under `SweepConfig::fast()`/`default()`, the
//! explosion valve at zero tolerance, and an asymmetric sweep — so the
//! numbers outlive any refactor of the code that produces them. Each
//! fingerprint covers both cost matrices and the measurement count.
//!
//! The last test pins the classing and the scattered class grid at the
//! `pipeline-4096` shape (P = 4096), where every class has millions of
//! members and the probe reservoir runs far past its capacity.

use hbar_core::clustering::{classify_pairs, ClassingConfig};
use hbar_simnet::profiling::ProfilingConfig;
use hbar_simnet::sweep::{noise_regime_of, SweepConfig, SweepReport};
use hbar_simnet::{
    measure_profile_compressed, DescriptorExecutor, LocalExecutor, NoiseModel, PairSample,
    PairWorkDescriptor, SpillConfig, SweepError,
};
use hbar_topo::cost::CostMatrices;
use hbar_topo::features::TopologyExtractor;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;

/// FNV-1a over `bytes`.
fn fnv1a_bytes(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    fnv1a_bytes(words.flat_map(u64::to_le_bytes))
}

/// The bit patterns of both cost matrices, row-major O then L.
fn cost_bits(cost: &CostMatrices) -> impl Iterator<Item = u64> + '_ {
    cost.o
        .as_slice()
        .iter()
        .chain(cost.l.as_slice())
        .map(|v| v.to_bits())
}

/// FNV-1a over both matrices, then the sweep's measurement count.
fn sweep_fingerprint(cost: &CostMatrices, report: &SweepReport) -> u64 {
    fnv1a(cost_bits(cost).chain([report.measurements as u64]))
}

/// Profiles `p` block-placed ranks of a dual-quad cluster and returns the
/// dense expansion of the compressed model.
fn sweep(p: usize, noise: NoiseModel, cfg: &SweepConfig) -> (CostMatrices, SweepReport) {
    let machine = MachineSpec::dual_quad_cluster(p.div_ceil(8));
    let mut executor = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
    let spill = SpillConfig::in_memory(std::env::temp_dir().join("hbar_stopping_parity_unused"));
    let (model, report, _) = measure_profile_compressed(
        &machine,
        &RankMapping::Block,
        p,
        noise,
        cfg,
        &spill,
        &mut executor,
    )
    .expect("local sweep is infallible below the class limit");
    (model.to_dense(), report)
}

/// Asserts every `(p, noise, golden)` case of `cfg` against its pin.
fn check(name: &str, cfg: &SweepConfig, cases: &[(usize, NoiseModel, u64)]) {
    for &(p, noise, golden) in cases {
        let (cost, report) = sweep(p, noise, cfg);
        assert_eq!(
            sweep_fingerprint(&cost, &report),
            golden,
            "{name} sweep at P={p} under {noise:?} diverged from its pinned numbers"
        );
    }
}

/// The frozen configuration: fast schedule, 2 probes per class, a 1%
/// tolerance that realistic noise cannot meet in round 0 (so growth
/// rounds actually run), and no explosion.
fn pinned_config() -> SweepConfig {
    SweepConfig {
        profiling: ProfilingConfig::fast(),
        probes_per_class: 2,
        probe_seed: 0,
        ci_rel_tol: 0.01,
        max_growth_rounds: 2,
        explode_rel_tol: f64::INFINITY,
        exact_classes: false,
    }
}

#[test]
fn adaptive_repetition_is_bit_identical_to_pre_refactor_behavior_p8() {
    let (cost, report) = sweep(8, NoiseModel::realistic(42), &pinned_config());
    assert!(
        report.growth_rounds > 0,
        "the pinned tolerance must actually exercise the stopping rule"
    );
    assert_eq!(
        fnv1a(cost_bits(&cost)),
        GOLDEN_P8,
        "clustered profile at P=8 diverged from the pre-refactor stopping rule"
    );
}

#[test]
fn adaptive_repetition_is_bit_identical_to_pre_refactor_behavior_p16() {
    let (cost, report) = sweep(16, NoiseModel::realistic(42), &pinned_config());
    assert!(
        report.growth_rounds > 0,
        "the pinned tolerance must actually exercise the stopping rule"
    );
    assert_eq!(
        fnv1a(cost_bits(&cost)),
        GOLDEN_P16,
        "clustered profile at P=16 diverged from the pre-refactor stopping rule"
    );
}

/// Golden fingerprints captured from the pre-refactor sweep (the
/// hand-rolled `rel_spreads`/`medians` in `sweep.rs` as of PR 7) under
/// the pinned seeds above. Do not update these without demonstrating the
/// new value reproduces the old measurement plan measurement-for-
/// measurement.
const GOLDEN_P8: u64 = 7051013349102083021;
const GOLDEN_P16: u64 = 15183762971726166949;

/// Exact classes: every pair is its own class, so the sweep runs the
/// exhaustive §IV-A schedule. These pins were recorded when a separate
/// exhaustive driver still existed and matched it bit for bit.
#[test]
fn exact_sweep_matches_pinned_exhaustive_numbers() {
    let cfg = SweepConfig::exact(ProfilingConfig::fast());
    check(
        "exact",
        &cfg,
        &[
            (8, NoiseModel::quiet(42), GOLDEN_EXACT_P8_QUIET),
            (8, NoiseModel::realistic(42), GOLDEN_EXACT_P8_REALISTIC),
            (16, NoiseModel::quiet(42), GOLDEN_EXACT_P16_QUIET),
            (16, NoiseModel::realistic(42), GOLDEN_EXACT_P16_REALISTIC),
            (64, NoiseModel::quiet(42), GOLDEN_EXACT_P64_QUIET),
            (64, NoiseModel::realistic(42), GOLDEN_EXACT_P64_REALISTIC),
        ],
    );
}

#[test]
fn classed_sweeps_match_pinned_numbers() {
    let noise = NoiseModel::realistic(42);
    let fast = SweepConfig::fast();
    check(
        "fast",
        &fast,
        &[(16, noise, GOLDEN_FAST_P16), (64, noise, GOLDEN_FAST_P64)],
    );
    // The default classing policy (4 probes, growth, explosion at 25%)
    // over the short schedule, to keep the debug-mode runtime small.
    let default = SweepConfig {
        profiling: ProfilingConfig::fast(),
        ..SweepConfig::default()
    };
    let cases = [
        (16, noise, GOLDEN_DEFAULT_P16),
        (64, noise, GOLDEN_DEFAULT_P64),
    ];
    check("default", &default, &cases);
    let explode_all = SweepConfig {
        explode_rel_tol: 0.0,
        ..SweepConfig::fast()
    };
    check(
        "explode-all",
        &explode_all,
        &[(16, noise, GOLDEN_EXPLODE_P16)],
    );
}

#[test]
fn asymmetric_sweeps_match_pinned_numbers() {
    let asymmetric = ProfilingConfig {
        symmetric: false,
        ..ProfilingConfig::fast()
    };
    check(
        "asymmetric exact",
        &SweepConfig::exact(asymmetric.clone()),
        &[(8, NoiseModel::realistic(42), GOLDEN_ASYM_EXACT_P8)],
    );
    check(
        "asymmetric fast",
        &SweepConfig {
            profiling: asymmetric,
            ..SweepConfig::fast()
        },
        &[(8, NoiseModel::realistic(42), GOLDEN_ASYM_FAST_P8)],
    );
}

/// Fingerprints (both matrices + measurement count) recorded at the
/// commit that still carried the exhaustive driver, the dense clustered
/// sweep and the compressed sweep side by side, all three agreeing.
const GOLDEN_EXACT_P8_QUIET: u64 = 5276836474302953929;
const GOLDEN_EXACT_P8_REALISTIC: u64 = 14947259644843024402;
const GOLDEN_EXACT_P16_QUIET: u64 = 7738855863078476397;
const GOLDEN_EXACT_P16_REALISTIC: u64 = 3556501847599642928;
const GOLDEN_EXACT_P64_QUIET: u64 = 3986286442874048512;
const GOLDEN_EXACT_P64_REALISTIC: u64 = 2435585147008718140;
const GOLDEN_FAST_P16: u64 = 2110868192739554551;
const GOLDEN_FAST_P64: u64 = 6524105660469911575;
const GOLDEN_DEFAULT_P16: u64 = 2867546725479570219;
const GOLDEN_DEFAULT_P64: u64 = 917039256779189915;
const GOLDEN_EXPLODE_P16: u64 = 9197574297472494434;
const GOLDEN_ASYM_EXACT_P8: u64 = 2211033263937631309;
const GOLDEN_ASYM_FAST_P8: u64 = 12723387879333297626;

/// Answers every descriptor with the same `(O, L)`: no class ever shows
/// scatter, so nothing grows or explodes and the scattered grid is the
/// classing itself.
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

/// The `pipeline-4096` shape: 512 dual-quad nodes, block placement, the
/// realistic noise regime and the default classing policy. The pin covers
/// every class's representative, probes and member count, then the grid
/// bytes the sweep scatters.
#[test]
fn pipeline_4096_classing_and_grid_match_pinned_bytes() {
    let machine = MachineSpec::new(512, 2, 4);
    let p = 4096;
    let noise = NoiseModel::realistic(7);
    let cfg = SweepConfig::default();
    let cores = RankMapping::Block.place(&machine, p);
    let classing = classify_pairs(
        &machine,
        &cores,
        p,
        &TopologyExtractor::with_noise_regime(noise_regime_of(&noise)),
        &ClassingConfig {
            symmetric: cfg.profiling.symmetric,
            probes_per_class: cfg.probes_per_class,
            probe_seed: cfg.probe_seed,
        },
    );
    assert_eq!(
        (classing.pair_classes.len(), classing.diag_classes.len()),
        (4, 2)
    );
    let mut words = Vec::new();
    for class in &classing.pair_classes {
        let (i, j) = class.representative;
        words.extend([u64::from(i), u64::from(j), class.members as u64]);
        words.extend(
            class
                .probes
                .iter()
                .flat_map(|&(i, j)| [u64::from(i), u64::from(j)]),
        );
    }
    for class in &classing.diag_classes {
        words.extend([u64::from(class.representative), class.members as u64]);
        words.extend(class.probes.iter().map(|&i| u64::from(i)));
    }

    let spill = SpillConfig::in_memory(std::env::temp_dir().join("hbar_pipeline_4096_unused"));
    let (model, _, _) = measure_profile_compressed(
        &machine,
        &RankMapping::Block,
        p,
        noise,
        &cfg,
        &spill,
        &mut ConstantExecutor,
    )
    .expect("local sweep is infallible below the class limit");
    let bytes = words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .chain(model.grid().iter().flat_map(|c| c.to_le_bytes()));
    assert_eq!(
        fnv1a_bytes(bytes),
        GOLDEN_PIPELINE_4096,
        "classing or grid at the pipeline-4096 shape diverged from its pin"
    );
}

/// Recorded before classing moved to per-rank sites, when every pair's
/// features were hashed during classing and again during the scatter.
const GOLDEN_PIPELINE_4096: u64 = 6393992219595303460;
