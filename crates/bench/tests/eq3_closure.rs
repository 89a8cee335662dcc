//! Pins the Eq. 3 knowledge closure to golden FNV-1a fingerprints.
//!
//! Every state of a [`KnowledgeTrace`] is hashed in one fixed order —
//! state by state, receiver by receiver, the receiver's knowledge of each
//! arrival packed into 64-bit words — followed by `is_barrier` and
//! `first_complete_stage`. The order names the fact ("receiver `j` knows
//! arrival `i` before stage `s`"), not a storage layout, so the pins hold
//! across any change to how the trace stores its matrices.
//!
//! The schedules are the tree and dissemination library barriers and the
//! hybrid tuner's output at P ∈ {64, 1024} on `P/8` dual-quad nodes with
//! block placement, plus the schedule the seed-7 `pipeline-4096` workload
//! tunes from its profiled model (release builds only: the profile and
//! the tune take minutes without optimizations).
//!
//! A property test then holds the closure entry points to the frozen
//! dense-product closure in `hbar_bench::baseline_model` on random stage
//! sequences with `n ∈ 1..=130`, so rows cross the word boundaries at 64
//! and 128.

use hbar_bench::baseline_model::{baseline_knowledge_closure, BaselineBitMat};
use hbar_core::algorithms::Algorithm;
use hbar_core::compose::{tune_hybrid, tune_hybrid_costs, TunerConfig};
use hbar_core::schedule::BarrierSchedule;
use hbar_core::verify;
use hbar_matrix::{BoolMatrix, ClosureWorkspace};
use hbar_simnet::sweep::SweepConfig;
use hbar_simnet::{measure_profile_compressed, LocalExecutor, NoiseModel, SpillConfig};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use proptest::prelude::*;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.flat_map(u64::to_le_bytes) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Hashes every state of `schedule`'s trace, then its verdicts.
fn trace_fingerprint(schedule: &BarrierSchedule) -> u64 {
    let n = schedule.n();
    let trace = verify::trace(schedule);
    let mut words = Vec::new();
    for s in 0..=trace.stages() {
        for j in 0..n {
            let mut word = 0u64;
            for i in 0..n {
                if trace.knows(s, j, i) {
                    word |= 1 << (i % 64);
                }
                if i % 64 == 63 || i + 1 == n {
                    words.push(word);
                    word = 0;
                }
            }
        }
    }
    assert_eq!(verify::is_barrier(schedule), trace.is_barrier());
    words.push(u64::from(trace.is_barrier()));
    words.push(trace.first_complete_stage().map_or(u64::MAX, |s| s as u64));
    fnv1a(words.into_iter())
}

fn library_schedules(p: usize) -> [(&'static str, BarrierSchedule); 3] {
    let members: Vec<usize> = (0..p).collect();
    let machine = MachineSpec::new(p / 8, 2, 4);
    let profile = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::Block, p);
    [
        ("tree", Algorithm::Tree.full_schedule(p, &members)),
        (
            "dissemination",
            Algorithm::Dissemination.full_schedule(p, &members),
        ),
        (
            "tune_hybrid",
            tune_hybrid(&profile, &TunerConfig::default()).schedule,
        ),
    ]
}

fn check_goldens(p: usize, golden: [u64; 3]) {
    let got = library_schedules(p).map(|(_, schedule)| trace_fingerprint(&schedule));
    assert_eq!(
        got, golden,
        "tree / dissemination / tune_hybrid traces at P = {p} diverged from their pins"
    );
}

#[test]
fn library_traces_match_golden_at_p64() {
    check_goldens(64, GOLDEN_P64);
}

#[test]
fn library_traces_match_golden_at_p1024() {
    check_goldens(1024, GOLDEN_P1024);
}

/// The schedule `pipeline-4096` tunes for seed 7: 512 dual-quad nodes,
/// block placement, the default clustered sweep under realistic noise.
#[test]
#[cfg_attr(debug_assertions, ignore = "profiles and tunes P = 4096; release only")]
fn pipeline_4096_trace_matches_golden() {
    let machine = MachineSpec::new(512, 2, 4);
    let p = 4096;
    let noise = NoiseModel::realistic(7);
    let cfg = SweepConfig::default();
    let spill = SpillConfig::in_memory(std::env::temp_dir().join("hbar_eq3_golden_unused"));
    let mut exec = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
    let (model, _, _) = measure_profile_compressed(
        &machine,
        &RankMapping::Block,
        p,
        noise,
        &cfg,
        &spill,
        &mut exec,
    )
    .expect("local sweep is infallible below the class limit");
    let members: Vec<usize> = (0..p).collect();
    let tuned = tune_hybrid_costs(&model, &members, &TunerConfig::default());
    assert_eq!(
        trace_fingerprint(&tuned.schedule),
        GOLDEN_PIPELINE_4096,
        "pipeline-4096 tuned trace diverged from its pin"
    );
}

/// Recorded with the dense product trace (`K[i][j]` = "j knows i",
/// `K_a = K_{a-1} + K_{a-1}·S_a` as a boolean matrix product).
const GOLDEN_P64: [u64; 3] = [
    14524450388138512127,
    15413102167114549845,
    2224824388864495662,
];
const GOLDEN_P1024: [u64; 3] = [
    15143208240542579863,
    15362665859115134481,
    6348685104809478138,
];
const GOLDEN_PIPELINE_4096: u64 = 8540416123497364412;

/// One random stage over `n` ranks: a full shift `i → i + k` (so that
/// sequences of them synchronize) or scattered signals. Never a
/// self-signal, so every sequence is a valid schedule.
fn arb_stage(n: usize) -> impl Strategy<Value = BoolMatrix> {
    (
        any::<bool>(),
        1..n.max(2),
        prop::collection::vec((0..n, 0..n), 0..2 * n),
    )
        .prop_map(move |(shift, k, edges)| {
            let mut m = BoolMatrix::zeros(n);
            if shift {
                for i in 0..n {
                    if (i + k) % n != i {
                        m.set(i, (i + k) % n, true);
                    }
                }
            } else {
                for (i, j) in edges.into_iter().filter(|(i, j)| i != j) {
                    m.set(i, j, true);
                }
            }
            m
        })
}

fn arb_sequence() -> impl Strategy<Value = (usize, Vec<BoolMatrix>, Vec<usize>)> {
    (1usize..=130).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec(arb_stage(n), 0..6),
            prop::collection::vec(0..n, 1..8),
        )
    })
}

fn frozen_closure(n: usize, stages: &[BoolMatrix]) -> BaselineBitMat {
    let base: Vec<BaselineBitMat> = stages.iter().map(BaselineBitMat::from_matrix).collect();
    baseline_knowledge_closure(n, &base)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `closure`, `is_barrier`, `closure_excluding` of every signal and
    /// `synchronizes_subset` agree with the frozen dense closure.
    /// `closure_excluding` is receiver-major, so it is compared with the
    /// transposed baseline.
    #[test]
    fn closure_matches_frozen_baseline((n, stages, members) in arb_sequence()) {
        let mut ws = ClosureWorkspace::new();
        let want = frozen_closure(n, &stages).to_matrix();
        prop_assert_eq!(ws.closure(n, &stages), &want);
        prop_assert_eq!(ws.is_barrier(n, &stages), want.is_all_true());

        for (si, stage) in stages.iter().enumerate() {
            for (i, j) in stage.edges() {
                let mut without = stages.clone();
                without[si].set(i, j, false);
                let reduced = frozen_closure(n, &without).to_matrix().transpose();
                prop_assert_eq!(ws.closure_excluding(n, &stages, si, (i, j)), &reduced);
            }
        }

        let schedule = BarrierSchedule::from_arrival_matrices(n, stages);
        let expected = members
            .iter()
            .all(|&i| members.iter().all(|&j| want.get(i, j)));
        prop_assert_eq!(verify::synchronizes_subset(&schedule, &members), expected);
        prop_assert_eq!(verify::is_barrier(&schedule), want.is_all_true());
    }
}
