//! Frozen exhaustive profiling sweep — the "before" of the decomposed
//! (pair-clustered, work-stealing, distributable) sweep rework.
//!
//! This is a verbatim copy of the exhaustive `measure_profile` driver
//! (since folded into `hbar_simnet::measure_profile_compressed`) as it
//! stood when the clustered sweep landed: every one of the
//! `|P|(|P|−1)/2` pairs benchmarked individually (statically-chunked
//! rayon map), plus `|P|` diagonal tests, with the SplitMix64 per-pair
//! sub-seed scheme. It must never track later changes to the live
//! drivers — its entire value is pinning the exhaustive sweep's exact
//! numbers so `profile-perf` can assert, release after release, that
//!
//! 1. the clustered sweep in the singleton-class regime reproduces this
//!    baseline **bit for bit**, and
//! 2. the clustered sweep with topology classing stays within the
//!    recorded relative error bound of it at every matrix entry.
//!
//! The sub-seed derivation and the SplitMix64 constants are duplicated
//! here (not imported) for the same reason: if the live scheme drifts,
//! parity must *fail*, not silently follow.

use hbar_matrix::DenseMatrix;
use hbar_simnet::benchprog::PairBench;
use hbar_simnet::profiling::ProfilingConfig;
use hbar_simnet::world::{SimConfig, SimWorld};
use hbar_simnet::NoiseModel;
use hbar_topo::cost::CostMatrices;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use hbar_topo::regress::{hockney_intercept, latency_gradient};
use rayon::prelude::*;

/// Frozen copy of the SplitMix64 finalizer.
fn splitmix64_frozen(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Frozen copy of the per-pair sub-seed derivation.
pub fn pair_sub_seed_frozen(i: usize, j: usize, seed: u64) -> u64 {
    splitmix64_frozen(
        splitmix64_frozen(splitmix64_frozen(seed ^ 0x9E37_79B9_7F4A_7C15) ^ i as u64) ^ j as u64,
    )
}

/// Frozen copy of the diagonal sub-seed derivation.
pub fn diag_sub_seed_frozen(i: usize, seed: u64) -> u64 {
    splitmix64_frozen(splitmix64_frozen(seed ^ 0x000D_D1A6_u64) ^ i as u64)
}

/// Frozen copy of the §IV-A message-size schedule regression for one
/// pair: ping-pong size sweep, then burst sweep, medians regressed to
/// `(O, L)`.
fn measure_pair_frozen(bench: &mut PairBench, cfg: &ProfilingConfig) -> (f64, f64) {
    let o_points: Vec<(f64, f64)> = cfg
        .sizes
        .iter()
        .map(|&s| (s as f64, bench.one_way(s, cfg.reps)))
        .collect();
    let l_points: Vec<(f64, f64)> = (1..=cfg.max_messages)
        .map(|k| (k as f64, bench.burst(k, cfg.burst_reps)))
        .collect();
    (hockney_intercept(&o_points), latency_gradient(&l_points))
}

/// Frozen copy of the two-rank benchmark-world construction.
fn pair_bench_frozen(
    machine: &MachineSpec,
    core_a: usize,
    core_b: usize,
    noise: NoiseModel,
    sub_seed: u64,
) -> PairBench {
    let per_pair_noise = NoiseModel {
        seed: sub_seed,
        ..noise
    };
    let cfg = SimConfig {
        machine: machine.clone(),
        mapping: RankMapping::Custom(vec![core_a, core_b]),
        noise: per_pair_noise,
    };
    PairBench::new(SimWorld::new(cfg, 2))
}

/// The frozen exhaustive sweep: benchmark every pair, no classing, no
/// probes, no adaptive growth, statically-chunked parallel map.
///
/// # Panics
/// Panics if `p < 2` or the mapping cannot place `p` ranks.
pub fn measure_profile_exhaustive_baseline(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &ProfilingConfig,
) -> TopologyProfile {
    assert!(p >= 2, "profiling needs at least two ranks, got {p}");
    let cores = mapping.place(machine, p);
    let directed_pairs: Vec<(usize, usize)> = if cfg.symmetric {
        (0..p)
            .flat_map(|i| ((i + 1)..p).map(move |j| (i, j)))
            .collect()
    } else {
        (0..p)
            .flat_map(|i| (0..p).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect()
    };

    let measured: Vec<(usize, usize, f64, f64)> = directed_pairs
        .par_iter()
        .map(|&(i, j)| {
            let mut bench = pair_bench_frozen(
                machine,
                cores[i],
                cores[j],
                noise,
                pair_sub_seed_frozen(i, j, noise.seed),
            );
            let (o, l) = measure_pair_frozen(&mut bench, cfg);
            (i, j, o, l)
        })
        .collect();

    let diag: Vec<f64> = (0..p)
        .into_par_iter()
        .map(|i| {
            let partner = cores[(i + 1) % p];
            let mut bench = pair_bench_frozen(
                machine,
                cores[i],
                partner,
                noise,
                diag_sub_seed_frozen(i, noise.seed),
            );
            bench.noop(cfg.noop_calls)
        })
        .collect();

    let mut o = DenseMatrix::new(p);
    let mut l = DenseMatrix::new(p);
    for (i, j, oij, lij) in measured {
        o[(i, j)] = oij;
        l[(i, j)] = lij;
        if cfg.symmetric {
            o[(j, i)] = oij;
            l[(j, i)] = lij;
        }
    }
    for (i, &oii) in diag.iter().enumerate() {
        o[(i, i)] = oii;
        l[(i, i)] = 0.0;
    }

    TopologyProfile {
        machine: machine.clone(),
        mapping: mapping.clone(),
        p,
        cost: CostMatrices { o, l },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_simnet::profiling::{diag_sub_seed, pair_sub_seed};

    #[test]
    fn frozen_sub_seeds_match_live_scheme() {
        for (i, j, seed) in [(0usize, 1usize, 0u64), (3, 128, 42), (4095, 17, u64::MAX)] {
            assert_eq!(pair_sub_seed_frozen(i, j, seed), pair_sub_seed(i, j, seed));
            assert_eq!(diag_sub_seed_frozen(i, seed), diag_sub_seed(i, seed));
        }
    }
}
