//! The profiling sweep: classing → representatives → scatter.
//!
//! The paper profiles a machine with `|P|(|P|−1)/2` pairwise benchmarks
//! (§IV-A) and notes that one measurement per class of similar pairs,
//! replicated across the class, loses no significant information (§IV-B).
//! [`measure_profile_compressed`] is the one sweep that does both, in
//! three independent layers:
//!
//! 1. **classing** — pairs are grouped into equivalence classes by
//!    feature vector ([`hbar_topo::features`]; exact hashing in
//!    [`hbar_core::clustering::classify_pairs`]). Two regimes:
//!    [`SweepConfig::exact_classes`] makes every pair its own class, so
//!    the sweep *is* the exhaustive §IV-A sweep, measurement for
//!    measurement under the same sub-seeds; otherwise topology features
//!    (link class, hop signature, socket relation, noise regime) group
//!    pairs, the generalization of §IV-B's one-pair-per-link-class
//!    shortcut;
//! 2. **execution** — one *representative* per class is measured, plus a
//!    configurable number of *validation probes* (other members measured
//!    under their own sub-seeds) that estimate the within-class scatter;
//!    repetitions grow geometrically until the scatter is below the
//!    configured tolerance (the Hunold & Carpen-Amarie prescription:
//!    adaptive repetition, stop when the CI is tight). The grow/stop
//!    decision and the median/spread arithmetic are delegated to
//!    [`hbar_stats`] ([`StoppingRule`], [`hbar_stats::rel_spread`],
//!    [`hbar_stats::median`]) — the same implementation the `*-perf`
//!    harnesses measure under, pinned bit-identical to the historical
//!    in-module code by the `stopping_parity` regression test. Work
//!    items are self-contained [`PairWorkDescriptor`]s, so execution can
//!    fan out to a work-stealing thread pool ([`LocalExecutor`]) or a TCP
//!    worker fleet ([`crate::distrib`]) interchangeably;
//! 3. **scatter** — class estimates are written into a
//!    [`CompressedCostModel`] class grid, tile-at-a-time under a memory
//!    budget ([`crate::scatter`]). `model.to_dense()` gives the full
//!    `|P|²` matrices when a caller needs them.
//!
//! Everything is seed-deterministic: descriptors carry their noise
//! sub-seed, representatives and probes are chosen by deterministic scan
//! order and counter-hash reservoirs, and estimates are medians over a
//! fixed sample order — so local, distributed, and differently-threaded
//! runs produce bit-identical profiles. The `stopping_parity` golden
//! fingerprints pin the numbers of every regime, and `hbar-bench`'s
//! `profile_parity` test holds the exact regime to the frozen exhaustive
//! sweep bit for bit.

use crate::noise::NoiseModel;
use crate::profiling::{diag_sub_seed, measure_pair, pair_bench, pair_sub_seed, ProfilingConfig};
use crate::scatter::{scatter_compressed_tiles, SpillConfig, SpillReport};
use hbar_core::clustering::{classify_pairs, ClassingConfig, PairClassing};
use hbar_stats::StoppingRule;
use hbar_topo::compressed::{CompressError, CompressedCostModel, MAX_CLASSES};
use hbar_topo::features::{ExactExtractor, PairFeatureExtractor, TopologyExtractor};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What a work descriptor measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkKind {
    /// Off-diagonal `(O_ij, L_ij)` pair benchmark.
    Pair,
    /// Diagonal `O_ii` transmission-free call benchmark.
    Diag,
}

/// One self-contained unit of profiling work: everything a worker needs
/// to reproduce the measurement, including the noise sub-seed (so the
/// result is independent of *which* worker runs it, *when*, and in what
/// order).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PairWorkDescriptor {
    /// Driver-assigned identity; responses are merged by this key.
    pub id: u32,
    /// Pair or diagonal measurement.
    pub kind: WorkKind,
    /// Rank `i` (for `Diag`: the measured rank).
    pub i: u32,
    /// Rank `j` (for `Diag`: the idle partner rank).
    pub j: u32,
    /// Flat core index rank `i` is pinned to.
    pub core_a: u32,
    /// Flat core index rank `j` is pinned to.
    pub core_b: u32,
    /// Pre-mixed noise sub-seed (see
    /// [`crate::profiling::pair_sub_seed`]); carried in the descriptor so
    /// remote workers never re-derive it.
    pub sub_seed: u64,
    /// Repetition multiplier from adaptive growth (1 = the base
    /// [`ProfilingConfig`] schedule).
    pub rep_scale: u32,
}

/// The measured result of one descriptor. `l` is 0 for diagonal work.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PairSample {
    /// Echoed descriptor identity.
    pub id: u32,
    /// Estimated `O` (seconds).
    pub o: f64,
    /// Estimated `L` (seconds); 0 for diagonal work.
    pub l: f64,
}

/// Errors of the sweep. The distributed layer contributes the
/// socket/protocol variants; the class-compressed scatter
/// ([`crate::scatter`]) contributes spill i/o and model-construction
/// failures. Local execution below the class limit is infallible.
#[derive(Debug)]
pub enum SweepError {
    /// Socket-level failure talking to a worker, or spill-file i/o.
    Io(std::io::Error),
    /// A worker answered with a malformed or mismatched frame.
    Protocol(String),
    /// Every worker died (reconnects exhausted) with work left over and
    /// local fallback disabled.
    WorkersExhausted {
        /// Batches never executed.
        remaining_batches: usize,
    },
    /// The sweep could not build a valid class model (e.g. the class
    /// space overflowed the `u16` grid — exact classes above `P = 361`).
    Compress(CompressError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "worker i/o failed: {e}"),
            SweepError::Protocol(msg) => write!(f, "worker protocol violation: {msg}"),
            SweepError::WorkersExhausted { remaining_batches } => write!(
                f,
                "all workers exhausted with {remaining_batches} batches unexecuted"
            ),
            SweepError::Compress(e) => write!(f, "class model failed: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

/// Something that can execute a batch of descriptors and return one
/// sample per descriptor (any order; merging is by `id`). The sweep's
/// control flow is executor-agnostic, which is what makes the local and
/// distributed paths produce identical profiles.
pub trait DescriptorExecutor {
    /// Executes every descriptor, returning exactly one sample per id.
    fn execute_batch(
        &mut self,
        descriptors: &[PairWorkDescriptor],
    ) -> Result<Vec<PairSample>, SweepError>;
}

/// In-process executor: fans descriptors out over the work-stealing
/// thread pool. Item costs are wildly uneven once adaptive growth kicks
/// in (a grown representative runs 4–8× longer than its neighbours), so
/// dynamic scheduling matters here.
pub struct LocalExecutor {
    machine: MachineSpec,
    noise: NoiseModel,
    cfg: ProfilingConfig,
}

impl LocalExecutor {
    /// Executor measuring on `machine` under `noise` with the base
    /// schedule `cfg`.
    pub fn new(machine: MachineSpec, noise: NoiseModel, cfg: ProfilingConfig) -> Self {
        LocalExecutor {
            machine,
            noise,
            cfg,
        }
    }
}

impl DescriptorExecutor for LocalExecutor {
    fn execute_batch(
        &mut self,
        descriptors: &[PairWorkDescriptor],
    ) -> Result<Vec<PairSample>, SweepError> {
        Ok(descriptors
            .par_iter()
            .map(|d| execute_descriptor(&self.machine, self.noise, &self.cfg, d))
            .collect_stealing())
    }
}

/// Runs one descriptor's full measurement schedule. This is *the* leaf
/// operation of the whole subsystem: local threads and remote workers
/// both end up here, which is why their results agree bit-for-bit.
pub fn execute_descriptor(
    machine: &MachineSpec,
    noise: NoiseModel,
    cfg: &ProfilingConfig,
    d: &PairWorkDescriptor,
) -> PairSample {
    let mut bench = pair_bench(
        machine,
        d.core_a as usize,
        d.core_b as usize,
        noise,
        d.sub_seed,
    );
    match d.kind {
        WorkKind::Pair => {
            let (o, l) = if d.rep_scale <= 1 {
                measure_pair(&mut bench, cfg)
            } else {
                measure_pair(&mut bench, &scaled_config(cfg, d.rep_scale))
            };
            PairSample { id: d.id, o, l }
        }
        WorkKind::Diag => {
            let calls = cfg.noop_calls * (d.rep_scale.max(1) as usize);
            let o = bench.noop(calls);
            PairSample {
                id: d.id,
                o,
                l: 0.0,
            }
        }
    }
}

/// The base schedule with `scale`× the repetitions (sizes and burst
/// counts unchanged — growth buys tighter medians, not new sample
/// points).
fn scaled_config(cfg: &ProfilingConfig, scale: u32) -> ProfilingConfig {
    ProfilingConfig {
        reps: cfg.reps * scale as usize,
        burst_reps: cfg.burst_reps * scale as usize,
        ..cfg.clone()
    }
}

/// Tuning knobs of the sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The per-measurement benchmark schedule (sizes, repetitions,
    /// bursts, symmetric flag).
    pub profiling: ProfilingConfig,
    /// Validation probes per class: extra members measured under their
    /// own sub-seeds to estimate within-class scatter. 0 disables
    /// validation (fastest, no error estimate).
    pub probes_per_class: usize,
    /// Seed of the deterministic probe reservoir.
    pub probe_seed: u64,
    /// Relative within-class scatter (max |sample − median| / median)
    /// above which a class's repetitions are grown.
    pub ci_rel_tol: f64,
    /// Maximum geometric growth rounds (each doubles `rep_scale`); 0
    /// disables adaptive growth.
    pub max_growth_rounds: u32,
    /// The safety valve: a class whose validated scatter still exceeds
    /// this after all growth rounds is *exploded* — every member is
    /// measured individually at the base schedule under its own
    /// sub-seed, making those matrix entries exactly what the exhaustive
    /// sweep would have produced. `f64::INFINITY` disables explosion.
    pub explode_rel_tol: f64,
    /// Class every pair by exact identity instead of topology features —
    /// the sweep degenerates to the exhaustive one (the bit-parity
    /// regime). The `u16` class grid caps this at `P(P+1)/2 ≤ 65536`
    /// classes: `P ≤ 361` symmetric, `P ≤ 256` asymmetric.
    pub exact_classes: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            profiling: ProfilingConfig::default(),
            probes_per_class: 4,
            probe_seed: 0,
            ci_rel_tol: 0.05,
            max_growth_rounds: 2,
            explode_rel_tol: 0.25,
            exact_classes: false,
        }
    }
}

impl SweepConfig {
    /// Reduced schedule for tests and quick runs (mirrors
    /// [`ProfilingConfig::fast`]).
    pub fn fast() -> Self {
        SweepConfig {
            profiling: ProfilingConfig::fast(),
            probes_per_class: 2,
            explode_rel_tol: f64::INFINITY,
            ..SweepConfig::default()
        }
    }

    /// The exhaustive §IV-A sweep: exact classes, no probes, no growth —
    /// measurement-for-measurement identical to benchmarking every pair.
    pub fn exact(profiling: ProfilingConfig) -> Self {
        SweepConfig {
            profiling,
            probes_per_class: 0,
            probe_seed: 0,
            ci_rel_tol: f64::INFINITY,
            max_growth_rounds: 0,
            explode_rel_tol: f64::INFINITY,
            exact_classes: true,
        }
    }
}

/// Per-class diagnostics of one sweep.
#[derive(Clone, Debug, Default)]
pub struct ClassStats {
    /// Samples (representative + probes) the estimate was taken over.
    pub samples: usize,
    /// Final repetition multiplier after adaptive growth.
    pub rep_scale: u32,
    /// Relative scatter of `O` samples around their median.
    pub rel_spread_o: f64,
    /// Relative scatter of `L` samples around their median.
    pub rel_spread_l: f64,
}

/// What the sweep did and how trustworthy its shortcut is.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Off-diagonal pairs covered by the scatter.
    pub total_pairs: usize,
    /// Off-diagonal equivalence classes.
    pub pair_classes: usize,
    /// Diagonal equivalence classes.
    pub diag_classes: usize,
    /// Descriptors executed (across all growth rounds).
    pub measurements: usize,
    /// Growth rounds that actually ran.
    pub growth_rounds: u32,
    /// Pair classes the safety valve exploded (every member measured
    /// individually because the validated scatter stayed above
    /// [`SweepConfig::explode_rel_tol`]).
    pub exploded_pair_classes: usize,
    /// Diag classes the safety valve exploded.
    pub exploded_diag_classes: usize,
    /// Worst within-class relative scatter observed (0 when probing is
    /// disabled or every class is a singleton).
    pub max_rel_spread: f64,
    /// Mean within-class relative scatter over classes with ≥ 2 samples.
    pub mean_rel_spread: f64,
    /// Per-pair-class diagnostics, indexed like the classing.
    pub pair_stats: Vec<ClassStats>,
    /// Per-diag-class diagnostics.
    pub diag_stats: Vec<ClassStats>,
}

impl SweepReport {
    /// The measurement-count reduction over the exhaustive sweep
    /// (`p` diagonal + all-pairs benchmarks vs what actually ran).
    pub fn reduction_factor(&self, p: usize) -> f64 {
        (self.total_pairs + p) as f64 / self.measurements.max(1) as f64
    }
}

/// Quantizes a noise model into the feature-vector regime code: pairs
/// measured under different regimes never share a representative.
pub fn noise_regime_of(noise: &NoiseModel) -> u16 {
    if noise.is_deterministic() {
        return 0;
    }
    // 6 bits of jitter (per-mille, saturating) + 4 bits of spike-rate
    // decade; the seed deliberately does not participate (same
    // distribution ⇒ exchangeable measurements).
    let jitter = ((noise.jitter_sigma * 1000.0).round().clamp(0.0, 63.0)) as u16;
    let spike = if noise.spike_prob > 0.0 {
        (-noise.spike_prob.log10()).round().clamp(0.0, 15.0) as u16
    } else {
        15
    };
    1 + ((jitter << 4) | spike)
}

/// Profiles `p` ranks of `machine` under `mapping`: classing, descriptor
/// construction, adaptive growth, and scatter all happen here on the
/// driver; only descriptor execution crosses the executor boundary.
/// Results are merged by descriptor id, so the model is independent of
/// executor scheduling. The scatter builds a [`CompressedCostModel`]
/// tile-at-a-time under `spill`'s budget; `model.to_dense()` expands it
/// to the full `|P|²` matrices.
///
/// The class space is checked against the `u16` grid right after
/// classing, before any descriptor runs, and again after the explosion
/// valve (whose members add classes).
///
/// # Panics
/// Panics if `p < 2` or the mapping cannot place `p` ranks.
pub fn measure_profile_compressed(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &SweepConfig,
    spill: &SpillConfig,
    executor: &mut dyn DescriptorExecutor,
) -> Result<(CompressedCostModel, SweepReport, SpillReport), SweepError> {
    assert!(p >= 2, "profiling needs at least two ranks, got {p}");
    let cores = mapping.place(machine, p);
    let regime = noise_regime_of(&noise);
    let topo_extractor = TopologyExtractor::with_noise_regime(regime);
    let exact_extractor = ExactExtractor {
        noise_regime: regime,
    };
    let extractor: &(dyn PairFeatureExtractor + Sync) = if cfg.exact_classes {
        &exact_extractor
    } else {
        &topo_extractor
    };
    let classing = classify_pairs(
        machine,
        &cores,
        p,
        extractor,
        &ClassingConfig {
            symmetric: cfg.profiling.symmetric,
            probes_per_class: cfg.probes_per_class,
            probe_seed: cfg.probe_seed,
        },
    );
    let needed = classing.pair_classes.len() + classing.diag_classes.len();
    if needed > MAX_CLASSES {
        return Err(SweepError::Compress(CompressError::ClassOverflow {
            needed,
        }));
    }
    let (m, report) = measure_classes(machine, &cores, &classing, extractor, noise, cfg, executor)?;
    let (model, spill_report) = scatter_compressed_tiles(
        machine,
        &cores,
        &classing,
        extractor,
        cfg.profiling.symmetric,
        &m,
        spill,
    )?;
    Ok((model, report, spill_report))
}

/// One class's sample set across growth rounds.
struct ClassSamples {
    /// `(o, l)` per sample; index 0 is the representative.
    values: Vec<(f64, f64)>,
    rep_scale: u32,
}

impl ClassSamples {
    fn new(members: usize) -> Self {
        ClassSamples {
            values: vec![(f64::NAN, f64::NAN); members],
            rep_scale: 1,
        }
    }

    fn stats(&self) -> ClassStats {
        let (rel_spread_o, rel_spread_l) = rel_spreads(&self.values);
        ClassStats {
            samples: self.values.len(),
            rep_scale: self.rep_scale,
            rel_spread_o,
            rel_spread_l,
        }
    }

    /// The worse of the `O` and `L` relative scatters.
    fn spread(&self) -> f64 {
        let (so, sl) = rel_spreads(&self.values);
        so.max(sl)
    }

    /// Doubles the repetitions if `rule` says the scatter is too wide;
    /// returns whether it did.
    fn grow_if(&mut self, rule: &StoppingRule) -> bool {
        let grow = rule.should_grow(self.spread());
        if grow {
            self.rep_scale *= 2;
        }
        grow
    }
}

/// Everything the measurement phase learned, in class space: per-class
/// estimates, the explosion decisions, and the per-member exact
/// measurements of exploded classes. The scatter ([`crate::scatter`])
/// consumes this — it is `O(classes + exploded members)`, never `O(P²)`.
pub(crate) struct ClassMeasurements {
    /// Median `(O, L)` per pair class.
    pub(crate) pair_estimates: Vec<(f64, f64)>,
    /// Median `O_ii` per diagonal class.
    pub(crate) diag_estimates: Vec<f64>,
    /// Pair classes the safety valve exploded.
    pub(crate) explode_pair: Vec<bool>,
    /// Diag classes the safety valve exploded.
    pub(crate) explode_diag: Vec<bool>,
    /// Exact per-member measurements of exploded pair classes.
    pub(crate) exploded_pairs: HashMap<(usize, usize), (f64, f64)>,
    /// Exact per-member measurements of exploded diag classes.
    pub(crate) exploded_diags: HashMap<usize, f64>,
}

/// The descriptor measuring pair `(i, j)` under its own sub-seed.
fn pair_work(
    id: usize,
    (i, j): (usize, usize),
    cores: &[usize],
    seed: u64,
    rep_scale: u32,
) -> PairWorkDescriptor {
    PairWorkDescriptor {
        id: id as u32,
        kind: WorkKind::Pair,
        i: i as u32,
        j: j as u32,
        core_a: cores[i] as u32,
        core_b: cores[j] as u32,
        sub_seed: pair_sub_seed(i, j, seed),
        rep_scale,
    }
}

/// The descriptor measuring rank `i`'s `O_ii`, with its successor idle.
fn diag_work(
    id: usize,
    i: usize,
    cores: &[usize],
    seed: u64,
    rep_scale: u32,
) -> PairWorkDescriptor {
    let j = (i + 1) % cores.len();
    PairWorkDescriptor {
        id: id as u32,
        kind: WorkKind::Diag,
        i: i as u32,
        j: j as u32,
        core_a: cores[i] as u32,
        core_b: cores[j] as u32,
        sub_seed: diag_sub_seed(i, seed),
        rep_scale,
    }
}

/// Executes `descriptors` (whose ids are their indices) and returns the
/// `(o, l)` of each, in descriptor order. Samples merge by id, so the
/// result is independent of executor scheduling; a short, unknown or
/// duplicate answer is a protocol error.
fn run_batch(
    executor: &mut dyn DescriptorExecutor,
    descriptors: &[PairWorkDescriptor],
) -> Result<Vec<(f64, f64)>, SweepError> {
    let samples = executor.execute_batch(descriptors)?;
    if samples.len() != descriptors.len() {
        return Err(SweepError::Protocol(format!(
            "executor returned {} samples for {} descriptors",
            samples.len(),
            descriptors.len()
        )));
    }
    let mut values = vec![None; descriptors.len()];
    for s in samples {
        let Some(slot) = values.get_mut(s.id as usize) else {
            return Err(SweepError::Protocol(format!("unknown sample id {}", s.id)));
        };
        if slot.replace((s.o, s.l)).is_some() {
            return Err(SweepError::Protocol(format!(
                "duplicate sample id {}",
                s.id
            )));
        }
    }
    // As many distinct in-range ids as descriptors: every slot is filled.
    Ok(values.into_iter().flatten().collect())
}

/// The measurement phase: representatives + probes, adaptive growth, and
/// the explosion safety valve. Returns class-space results only — matrix
/// materialization is the scatter phase's job, so this function's memory
/// footprint is independent of `P²`.
pub(crate) fn measure_classes(
    machine: &MachineSpec,
    cores: &[usize],
    classing: &PairClassing,
    extractor: &dyn PairFeatureExtractor,
    noise: NoiseModel,
    cfg: &SweepConfig,
    executor: &mut dyn DescriptorExecutor,
) -> Result<(ClassMeasurements, SweepReport), SweepError> {
    let p = cores.len();
    let seed = noise.seed;
    // Each class measures its representative first, then its probes.
    let pair_members = |c: usize| {
        let class = &classing.pair_classes[c];
        std::iter::once(&class.representative).chain(&class.probes)
    };
    let diag_members = |c: usize| {
        let class = &classing.diag_classes[c];
        std::iter::once(&class.representative).chain(&class.probes)
    };
    let mut pair_samples: Vec<ClassSamples> = classing
        .pair_classes
        .iter()
        .map(|c| ClassSamples::new(1 + c.probes.len()))
        .collect();
    let mut diag_samples: Vec<ClassSamples> = classing
        .diag_classes
        .iter()
        .map(|c| ClassSamples::new(1 + c.probes.len()))
        .collect();

    let mut measurements = 0usize;
    let mut growth_rounds = 0u32;

    // The shared stopping rule (also used by the `*-perf` harnesses via
    // `hbar_stats::measure_adaptive`): grow while the relative scatter
    // exceeds the tolerance, within the round budget.
    let rule = StoppingRule {
        rel_tol: cfg.ci_rel_tol,
        max_rounds: cfg.max_growth_rounds,
    };

    // Round 0 measures every class; later rounds re-measure only classes
    // whose scatter exceeds the tolerance, at doubled repetitions.
    let mut pending_pairs: Vec<usize> = (0..pair_samples.len()).collect();
    let mut pending_diags: Vec<usize> = (0..diag_samples.len()).collect();
    for round in 0..=cfg.max_growth_rounds {
        if pending_pairs.is_empty() && pending_diags.is_empty() {
            break;
        }
        if round > 0 {
            growth_rounds = round;
        }
        // A per-round id space — pair work first, diagonal work after —
        // with a side table mapping id → (diag?, class, member).
        let mut descriptors = Vec::new();
        let mut slots: Vec<(bool, usize, usize)> = Vec::new();
        for &c in &pending_pairs {
            for (m, &(i, j)) in pair_members(c).enumerate() {
                let scale = pair_samples[c].rep_scale;
                let ij = (i as usize, j as usize);
                descriptors.push(pair_work(descriptors.len(), ij, cores, seed, scale));
                slots.push((false, c, m));
            }
        }
        for &c in &pending_diags {
            for (m, &i) in diag_members(c).enumerate() {
                let scale = diag_samples[c].rep_scale;
                descriptors.push(diag_work(descriptors.len(), i as usize, cores, seed, scale));
                slots.push((true, c, m));
            }
        }
        measurements += descriptors.len();
        // Diagonal work measures `O_ii` only: its `L` is 0 by definition.
        for (&(is_diag, c, m), (o, l)) in slots.iter().zip(run_batch(executor, &descriptors)?) {
            if is_diag {
                diag_samples[c].values[m] = (o, 0.0);
            } else {
                pair_samples[c].values[m] = (o, l);
            }
        }

        // Decide who grows. Only classes with ≥ 2 samples have a scatter
        // estimate; singletons never grow, preserving exhaustive parity.
        if round == cfg.max_growth_rounds {
            break;
        }
        pending_pairs.retain(|&c| pair_samples[c].grow_if(&rule));
        pending_diags.retain(|&c| diag_samples[c].grow_if(&rule));
    }

    // Per-class estimates: the median over the class's samples. A
    // singleton class's estimate is exactly its (sole) measurement.
    let pair_estimates: Vec<(f64, f64)> = pair_samples.iter().map(|s| medians(&s.values)).collect();
    let diag_estimates: Vec<f64> = diag_samples.iter().map(|s| medians(&s.values).0).collect();
    let pair_stats: Vec<ClassStats> = pair_samples.iter().map(ClassSamples::stats).collect();
    let diag_stats: Vec<ClassStats> = diag_samples.iter().map(ClassSamples::stats).collect();

    // Safety valve: a class whose *validated* scatter still exceeds
    // `explode_rel_tol` after all growth rounds abandons the clustering
    // shortcut — every member is measured individually at the base
    // schedule under its own sub-seed, so those matrix entries are
    // exactly what the exhaustive sweep would have produced.
    let explode = |s: &ClassSamples| s.spread() > cfg.explode_rel_tol;
    let explode_pair: Vec<bool> = pair_samples.iter().map(explode).collect();
    let explode_diag: Vec<bool> = diag_samples.iter().map(explode).collect();
    let exploded_pair_classes = explode_pair.iter().filter(|&&b| b).count();
    let exploded_diag_classes = explode_diag.iter().filter(|&&b| b).count();
    let mut exploded_pairs: HashMap<(usize, usize), (f64, f64)> = HashMap::new();
    let mut exploded_diags: HashMap<usize, f64> = HashMap::new();
    if exploded_pair_classes + exploded_diag_classes > 0 {
        let mut descriptors = Vec::new();
        let mut keys: Vec<(bool, usize, usize)> = Vec::new();
        for i in 0..p {
            let range: Box<dyn Iterator<Item = usize>> = if cfg.profiling.symmetric {
                Box::new((i + 1)..p)
            } else {
                Box::new((0..p).filter(move |&j| j != i))
            };
            for j in range {
                let f = extractor.pair_features(machine, (i, j), (cores[i], cores[j]));
                let c = classing
                    .pair_class_index(&f)
                    .expect("explosion features must re-derive a seen class");
                if explode_pair[c] {
                    descriptors.push(pair_work(descriptors.len(), (i, j), cores, seed, 1));
                    keys.push((false, i, j));
                }
            }
            let f = extractor.rank_features(machine, i, cores[i]);
            let c = classing
                .diag_class_index(&f)
                .expect("explosion features must re-derive a seen diag class");
            if explode_diag[c] {
                descriptors.push(diag_work(descriptors.len(), i, cores, seed, 1));
                keys.push((true, i, i));
            }
        }
        measurements += descriptors.len();
        for (&(is_diag, i, j), (o, l)) in keys.iter().zip(run_batch(executor, &descriptors)?) {
            if is_diag {
                exploded_diags.insert(i, o);
            } else {
                exploded_pairs.insert((i, j), (o, l));
            }
        }
    }

    // Report.
    let spreads: Vec<f64> = pair_stats
        .iter()
        .chain(&diag_stats)
        .filter(|st| st.samples >= 2)
        .map(|st| st.rel_spread_o.max(st.rel_spread_l))
        .collect();
    let report = SweepReport {
        total_pairs: classing.total_pairs,
        pair_classes: pair_stats.len(),
        diag_classes: diag_stats.len(),
        measurements,
        growth_rounds,
        exploded_pair_classes,
        exploded_diag_classes,
        max_rel_spread: spreads.iter().copied().fold(0.0, f64::max),
        mean_rel_spread: if spreads.is_empty() {
            0.0
        } else {
            spreads.iter().sum::<f64>() / spreads.len() as f64
        },
        pair_stats,
        diag_stats,
    };

    Ok((
        ClassMeasurements {
            pair_estimates,
            diag_estimates,
            explode_pair,
            explode_diag,
            exploded_pairs,
            exploded_diags,
        },
        report,
    ))
}

/// Relative scatter of the `(o, l)` samples around their medians,
/// delegated component-wise to the shared rule
/// ([`hbar_stats::rel_spread`]): `max |x − median| / max(|median|, ε)`,
/// `0` for fewer than two samples. The shared implementation is
/// bit-identical to the historical in-module one (pinned by the
/// `stopping_parity` regression test).
fn rel_spreads(values: &[(f64, f64)]) -> (f64, f64) {
    let os: Vec<f64> = values.iter().map(|v| v.0).collect();
    let ls: Vec<f64> = values.iter().map(|v| v.1).collect();
    (hbar_stats::rel_spread(&os), hbar_stats::rel_spread(&ls))
}

/// Component-wise medians of the `(o, l)` samples, delegated to
/// [`hbar_stats::median`].
fn medians(values: &[(f64, f64)]) -> (f64, f64) {
    let os: Vec<f64> = values.iter().map(|v| v.0).collect();
    let ls: Vec<f64> = values.iter().map(|v| v.1).collect();
    (hbar_stats::median(&os), hbar_stats::median(&ls))
}

/// Sequential single-descriptor executor used by the worker loop and
/// available for debugging (no thread pool, same results).
pub struct SequentialExecutor(LocalExecutor);

impl SequentialExecutor {
    /// Executor measuring on `machine` under `noise` with schedule `cfg`.
    pub fn new(machine: MachineSpec, noise: NoiseModel, cfg: ProfilingConfig) -> Self {
        SequentialExecutor(LocalExecutor::new(machine, noise, cfg))
    }
}

impl DescriptorExecutor for SequentialExecutor {
    fn execute_batch(
        &mut self,
        descriptors: &[PairWorkDescriptor],
    ) -> Result<Vec<PairSample>, SweepError> {
        let LocalExecutor {
            machine,
            noise,
            cfg,
        } = &self.0;
        Ok(descriptors
            .iter()
            .map(|d| execute_descriptor(machine, *noise, cfg, d))
            .collect())
    }
}

/// [`measure_profile_compressed`] on a [`LocalExecutor`].
#[cfg(test)]
pub(crate) fn sweep_locally(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &SweepConfig,
    spill: &SpillConfig,
) -> (CompressedCostModel, SweepReport, SpillReport) {
    let mut executor = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
    measure_profile_compressed(machine, mapping, p, noise, cfg, spill, &mut executor)
        .expect("local sweep is infallible below the class limit")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_topo::cost::{CostMatrices, CostProvider};

    /// The dense `(O, L)` matrices and report of a local in-memory sweep.
    fn sweep(
        machine: &MachineSpec,
        mapping: &RankMapping,
        p: usize,
        noise: NoiseModel,
        cfg: &SweepConfig,
    ) -> (CostMatrices, SweepReport) {
        let spill = SpillConfig::in_memory(std::env::temp_dir().join("hbar_sweep_unused"));
        let (model, report, _) = sweep_locally(machine, mapping, p, noise, cfg, &spill);
        (model.to_dense(), report)
    }

    #[test]
    fn zero_explosion_tolerance_degrades_to_exhaustive_bit_for_bit() {
        // With the explosion tolerance at 0, every class with any
        // measurable scatter is exploded: all members get measured
        // individually under their own sub-seeds, so the whole profile
        // must equal the exact (exhaustive) sweep bit for bit — *with
        // topology classing still on*.
        let machine = MachineSpec::dual_quad_cluster(2);
        let mapping = RankMapping::Block;
        let noise = NoiseModel::realistic(13);
        let cfg = ProfilingConfig::fast();
        let spill = SpillConfig::in_memory(std::env::temp_dir().join("hbar_sweep_unused"));
        let (full, full_report, _) = sweep_locally(
            &machine,
            &mapping,
            16,
            noise,
            &SweepConfig::exact(cfg),
            &spill,
        );
        assert_eq!(full_report.measurements, 16 * 15 / 2 + 16);
        let sweep_cfg = SweepConfig {
            explode_rel_tol: 0.0,
            ..SweepConfig::fast()
        };
        let (exploded, report, _) =
            sweep_locally(&machine, &mapping, 16, noise, &sweep_cfg, &spill);
        assert_eq!(report.exploded_pair_classes, 4);
        assert_eq!(report.exploded_diag_classes, 2);
        assert_eq!(exploded.fingerprint(), full.fingerprint());
        // Exploded members each occupy their own appended class.
        assert!(exploded.classes() > 6, "classes = {}", exploded.classes());
        // Explosion re-measures all 120 pairs + 16 diags on top of the
        // class representatives and probes.
        assert!(report.measurements >= 120 + 16, "{}", report.measurements);
    }

    #[test]
    fn tight_classes_never_explode() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let (_, report) = sweep(
            &machine,
            &RankMapping::Block,
            16,
            NoiseModel::none(),
            &SweepConfig {
                explode_rel_tol: 0.05,
                ..SweepConfig::fast()
            },
        );
        assert_eq!(report.exploded_pair_classes, 0);
        assert_eq!(report.exploded_diag_classes, 0);
    }

    #[test]
    fn clustered_profile_is_symmetric_and_complete() {
        let machine = MachineSpec::dual_hex_cluster(2);
        let (cost, _) = sweep(
            &machine,
            &RankMapping::RoundRobin,
            20,
            NoiseModel::realistic(3),
            &SweepConfig::fast(),
        );
        assert!(cost.o.is_symmetric());
        assert!(cost.l.is_symmetric());
        for i in 0..20 {
            assert!(cost.o[(i, i)] > 0.0);
            assert_eq!(cost.l[(i, i)], 0.0);
            for j in 0..20 {
                if i != j {
                    assert!(cost.o[(i, j)] > 0.0, "hole at ({i},{j})");
                    assert!(cost.l[(i, j)] > 0.0, "hole at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn local_executors_agree() {
        let machine = MachineSpec::new(2, 1, 2);
        let noise = NoiseModel::realistic(7);
        let cfg = SweepConfig::fast();
        let spill = SpillConfig::in_memory(std::env::temp_dir().join("hbar_sweep_unused"));
        let (a, _, _) = sweep_locally(&machine, &RankMapping::Block, 4, noise, &cfg, &spill);
        let mut seq = SequentialExecutor::new(machine.clone(), noise, cfg.profiling.clone());
        let (b, _, _) = measure_profile_compressed(
            &machine,
            &RankMapping::Block,
            4,
            noise,
            &cfg,
            &spill,
            &mut seq,
        )
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.grid(), b.grid());
    }

    #[test]
    fn adaptive_growth_triggers_on_loose_tolerance() {
        let machine = MachineSpec::dual_quad_cluster(2);
        // Absurdly tight tolerance: every multi-member class must grow to
        // the cap.
        let cfg = SweepConfig {
            ci_rel_tol: 1e-12,
            max_growth_rounds: 2,
            ..SweepConfig::fast()
        };
        let (_, report) = sweep(
            &machine,
            &RankMapping::Block,
            16,
            NoiseModel::realistic(1),
            &cfg,
        );
        assert_eq!(report.growth_rounds, 2);
        assert!(report.pair_stats.iter().any(|s| s.rep_scale == 4));
        // And an infinite tolerance never grows.
        let cfg = SweepConfig {
            ci_rel_tol: f64::INFINITY,
            ..SweepConfig::fast()
        };
        let (_, report) = sweep(
            &machine,
            &RankMapping::Block,
            16,
            NoiseModel::realistic(1),
            &cfg,
        );
        assert_eq!(report.growth_rounds, 0);
    }

    #[test]
    fn report_reduction_factor_reflects_classing() {
        let machine = MachineSpec::dual_quad_cluster(4);
        let (_, report) = sweep(
            &machine,
            &RankMapping::Block,
            32,
            NoiseModel::none(),
            &SweepConfig::fast(),
        );
        // 3 pair classes + 2 diag classes, ≤ 3 probes each under fast()
        // (2 probes configured) → far fewer measurements than 496 + 32.
        assert!(report.reduction_factor(32) > 10.0);
        assert_eq!(report.total_pairs, 496);
    }

    /// An executor that must never be reached.
    struct Unreachable;

    impl DescriptorExecutor for Unreachable {
        fn execute_batch(
            &mut self,
            descriptors: &[PairWorkDescriptor],
        ) -> Result<Vec<PairSample>, SweepError> {
            panic!(
                "{} descriptors executed past the class limit",
                descriptors.len()
            );
        }
    }

    #[test]
    fn class_overflow_is_rejected_before_measuring() {
        // Exact classes need P(P−1)/2 pair + P diag classes: 65 703 at
        // P = 362 (the first size past the u16 grid's 65 536) and 73 920
        // at P = 384. The sweep must fail right after classing, without
        // running a single benchmark.
        let machine = MachineSpec::new(48, 2, 4);
        let spill = SpillConfig::in_memory(std::env::temp_dir().join("hbar_sweep_unused"));
        for p in [362, 384] {
            let err = measure_profile_compressed(
                &machine,
                &RankMapping::Block,
                p,
                NoiseModel::none(),
                &SweepConfig::exact(ProfilingConfig::fast()),
                &spill,
                &mut Unreachable,
            )
            .expect_err("must overflow");
            match err {
                SweepError::Compress(CompressError::ClassOverflow { needed }) => {
                    assert_eq!(needed, p * (p - 1) / 2 + p);
                }
                other => panic!("wrong error at P={p}: {other}"),
            }
        }
    }

    #[test]
    fn noise_regime_quantization() {
        assert_eq!(noise_regime_of(&NoiseModel::none()), 0);
        let a = noise_regime_of(&NoiseModel::realistic(1));
        let b = noise_regime_of(&NoiseModel::realistic(99));
        assert_eq!(a, b, "seed must not affect the regime");
        let quiet = NoiseModel {
            jitter_sigma: 0.01,
            ..NoiseModel::realistic(1)
        };
        assert_ne!(a, noise_regime_of(&quiet));
    }

    #[test]
    fn descriptor_serde_roundtrip() {
        let d = PairWorkDescriptor {
            id: 7,
            kind: WorkKind::Pair,
            i: 3,
            j: 900_000,
            core_a: 12,
            core_b: 4095,
            sub_seed: 0xDEAD_BEEF_CAFE_F00D,
            rep_scale: 4,
        };
        let json = serde_json::to_string(&d).unwrap();
        let back: PairWorkDescriptor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        let s = PairSample {
            id: 7,
            o: 1.25e-6,
            l: -0.0,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: PairSample = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, s.id);
        assert_eq!(back.o, s.o);
    }
}
