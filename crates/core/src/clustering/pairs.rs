//! Feature-vector equivalence classing of profiling pairs.
//!
//! The `|P|(|P|−1)/2` pairwise benchmarks of §IV-A are embarrassingly
//! decomposable, and on hierarchical machines massively redundant: two
//! pairs whose [`PairFeatures`] agree traverse the same interconnect
//! resources and are statistically exchangeable, so measuring one
//! representative per class (plus a few validation probes) recovers the
//! full matrices. This is the Parsimon pattern — cluster the work items
//! into equivalence classes, simulate one representative per class, fan
//! the representatives out — applied to machine profiling instead of
//! network paths; it lives next to the SSS rank clustering because both
//! are "group, then treat the group by its exemplar" machinery.
//!
//! The classing itself is exact (hash on the feature vector), so the only
//! approximation error is within-class measurement scatter, which the
//! sweep estimates from the probes and bounds in its report.

use hbar_topo::features::{PairFeatureExtractor, PairFeatures, RankFeatures};
use hbar_topo::machine::MachineSpec;
use std::collections::HashMap;

/// SplitMix64 finalizer: the standard 64-bit avalanche mix. Used both for
/// decorrelating per-pair noise sub-seeds and for the deterministic
/// reservoir sampling of validation probes.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One equivalence class of off-diagonal pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct PairClass {
    /// The shared feature vector.
    pub features: PairFeatures,
    /// Rank pair measured on the class's behalf: the first member in scan
    /// order, which makes the choice deterministic and, for singleton
    /// classes, the pair itself.
    pub representative: (u32, u32),
    /// Number of member pairs (including the representative).
    pub members: usize,
    /// Deterministically reservoir-sampled members (excluding the
    /// representative) whose independent measurements estimate the
    /// within-class scatter.
    pub probes: Vec<(u32, u32)>,
}

/// One equivalence class of diagonal (`O_ii`) measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagClass {
    /// The shared feature vector.
    pub features: RankFeatures,
    /// Rank measured on the class's behalf.
    pub representative: u32,
    /// Number of member ranks.
    pub members: usize,
    /// Reservoir-sampled validation ranks (excluding the representative).
    pub probes: Vec<u32>,
}

/// The complete classing of a `P`-rank placement's profiling work.
///
/// Besides the classes, it keeps each rank's site and node and the
/// relation tables that map `(site_i, site_j, same_node)` to a class, so
/// [`PairClassing::class_of`] and [`PairClassing::diag_class_of`] answer
/// in O(1) without recomputing features.
#[derive(Clone, Debug, Default)]
pub struct PairClassing {
    /// Off-diagonal classes, in first-appearance (scan) order.
    pub pair_classes: Vec<PairClass>,
    /// Diagonal classes, in first-appearance order.
    pub diag_classes: Vec<DiagClass>,
    /// Total off-diagonal pairs scanned.
    pub total_pairs: usize,
    symmetric: bool,
    /// Per rank: its site, renumbered densely in first-appearance order.
    sites: Vec<u32>,
    /// Per rank: the node of its core.
    nodes: Vec<u32>,
    /// Distinct sites.
    n_sites: usize,
    /// Pair class per [`PairClassing::relation`], [`UNSEEN`] until the
    /// scan meets that relation.
    pair_table: Vec<u32>,
    /// Diagonal class per site.
    diag_table: Vec<u32>,
}

/// Relation-table entry the scan has not met yet.
const UNSEEN: u32 = u32::MAX;

/// Tuning knobs for [`classify_pairs`].
#[derive(Clone, Copy, Debug)]
pub struct ClassingConfig {
    /// Measure each unordered pair once and mirror (the paper's
    /// symmetric-link assumption); `false` classes ordered pairs.
    pub symmetric: bool,
    /// Validation probes sampled per class (0 disables validation; classes
    /// with fewer members than probes keep every member).
    pub probes_per_class: usize,
    /// Seed of the deterministic probe reservoir.
    pub probe_seed: u64,
}

impl Default for ClassingConfig {
    fn default() -> Self {
        ClassingConfig {
            symmetric: true,
            probes_per_class: 4,
            probe_seed: 0,
        }
    }
}

/// Deterministic reservoir sampler: keeps a uniform-without-replacement
/// sample of `capacity` items from a stream, with acceptance decisions
/// driven by SplitMix64 of the item ordinal instead of an RNG object, so
/// the same stream always yields the same sample.
struct Reservoir<T> {
    items: Vec<T>,
    capacity: usize,
    seen: u64,
    seed: u64,
}

impl<T> Reservoir<T> {
    fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            items: Vec::with_capacity(capacity.min(8)),
            capacity,
            seen: 0,
            seed,
        }
    }

    fn offer(&mut self, item: T) {
        self.seen += 1;
        if self.capacity == 0 {
            return;
        }
        if self.items.len() < self.capacity {
            self.items.push(item);
            return;
        }
        // Classic algorithm R with a counter-mode hash as the uniform draw.
        let r = splitmix64(self.seed ^ self.seen) % self.seen;
        if (r as usize) < self.capacity {
            self.items[r as usize] = item;
        }
    }
}

impl PairClassing {
    /// Ranks classed.
    pub fn p(&self) -> usize {
        self.sites.len()
    }

    /// Whether the classing covers unordered pairs (`i < j`) only, as
    /// [`ClassingConfig::symmetric`] asked.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Relation-table slot of the ordered pair `(i, j)`.
    #[inline]
    fn relation(&self, i: usize, j: usize) -> usize {
        let key = self.sites[i] as usize * self.n_sites + self.sites[j] as usize;
        (key << 1) | usize::from(self.nodes[i] == self.nodes[j])
    }

    /// Index of the pair class containing `(i, j)`. A symmetric classing
    /// answers for `(min, max)`, the orientation it scanned.
    ///
    /// # Panics
    /// Panics if a rank is out of range; `i == j` is a diagonal, see
    /// [`PairClassing::diag_class_of`].
    #[inline]
    pub fn class_of(&self, i: usize, j: usize) -> usize {
        debug_assert_ne!(i, j, "the diagonal has its own classes");
        let (a, b) = if self.symmetric && i > j {
            (j, i)
        } else {
            (i, j)
        };
        self.pair_table[self.relation(a, b)] as usize
    }

    /// Index of the diagonal class containing rank `i`.
    #[inline]
    pub fn diag_class_of(&self, i: usize) -> usize {
        self.diag_table[self.sites[i] as usize] as usize
    }

    /// Total measurements the clustered sweep will run (representatives
    /// plus probes, pairs plus diagonals), before any adaptive growth.
    pub fn measurement_count(&self) -> usize {
        self.pair_classes
            .iter()
            .map(|c| 1 + c.probes.len())
            .sum::<usize>()
            + self
                .diag_classes
                .iter()
                .map(|c| 1 + c.probes.len())
                .sum::<usize>()
    }

    /// `true` when every class has exactly one member — the regime in
    /// which the clustered sweep is the exhaustive sweep.
    pub fn is_singleton(&self) -> bool {
        self.pair_classes.iter().all(|c| c.members == 1)
            && self.diag_classes.iter().all(|c| c.members == 1)
    }
}

/// Classes every profiling pair (and every diagonal) of a `p`-rank
/// placement by its feature vector.
///
/// The extractor's sites are computed once per rank. A pair's class is
/// then looked up by its `(site_i, site_j, same_node)` relation; features
/// are computed and hashed only when a relation first appears, which the
/// extractor's factoring contract makes equivalent to hashing every
/// pair's features.
///
/// Scan order is the exhaustive sweep's enumeration order — `i` outer,
/// `j` inner — so representatives (first member seen) are deterministic
/// and independent of thread count.
///
/// # Panics
/// Panics if `p < 2` or `cores` does not cover `p` ranks.
pub fn classify_pairs(
    machine: &MachineSpec,
    cores: &[usize],
    p: usize,
    extractor: &dyn PairFeatureExtractor,
    cfg: &ClassingConfig,
) -> PairClassing {
    assert!(p >= 2, "classing needs at least two ranks, got {p}");
    assert!(
        cores.len() >= p,
        "placement covers {} ranks, need {p}",
        cores.len()
    );
    let cores = &cores[..p];
    let mut site_ids: HashMap<u32, u32> = HashMap::new();
    let sites: Vec<u32> = cores
        .iter()
        .enumerate()
        .map(|(i, &core)| {
            let next = site_ids.len() as u32;
            *site_ids
                .entry(extractor.site(machine, i, core))
                .or_insert(next)
        })
        .collect();
    let n_sites = site_ids.len();
    let mut classing = PairClassing {
        symmetric: cfg.symmetric,
        sites,
        nodes: cores.iter().map(|&c| machine.core(c).node as u32).collect(),
        n_sites,
        pair_table: vec![UNSEEN; n_sites * n_sites * 2],
        diag_table: vec![UNSEEN; n_sites],
        ..PairClassing::default()
    };

    let mut pair_index: HashMap<PairFeatures, u32> = HashMap::new();
    let mut reservoirs: Vec<Reservoir<(u32, u32)>> = Vec::new();
    for i in 0..p {
        let js = if cfg.symmetric { i + 1..p } else { 0..p };
        for j in js {
            if j == i {
                continue;
            }
            let slot = classing.relation(i, j);
            let mut idx = classing.pair_table[slot];
            if idx == UNSEEN {
                let f = extractor.pair_features(machine, (i, j), (cores[i], cores[j]));
                if let Some(&known) = pair_index.get(&f) {
                    idx = known;
                } else {
                    // First member: the representative, not a probe.
                    let new = classing.pair_classes.len() as u32;
                    pair_index.insert(f, new);
                    classing.pair_classes.push(PairClass {
                        features: f,
                        representative: (i as u32, j as u32),
                        members: 1,
                        probes: Vec::new(),
                    });
                    reservoirs.push(Reservoir::new(
                        cfg.probes_per_class,
                        splitmix64(cfg.probe_seed ^ u64::from(new)),
                    ));
                    classing.pair_table[slot] = new;
                    continue;
                }
                classing.pair_table[slot] = idx;
            }
            reservoirs[idx as usize].offer((i as u32, j as u32));
        }
    }
    for (class, reservoir) in classing.pair_classes.iter_mut().zip(reservoirs) {
        class.members = 1 + reservoir.seen as usize;
        class.probes = reservoir.items;
    }
    classing.total_pairs = classing.pair_classes.iter().map(|c| c.members).sum();

    let mut diag_index: HashMap<RankFeatures, u32> = HashMap::new();
    let mut diag_reservoirs: Vec<Reservoir<u32>> = Vec::new();
    for (i, &core) in cores.iter().enumerate() {
        let slot = classing.sites[i] as usize;
        let mut idx = classing.diag_table[slot];
        if idx == UNSEEN {
            let f = extractor.rank_features(machine, i, core);
            if let Some(&known) = diag_index.get(&f) {
                idx = known;
            } else {
                let new = classing.diag_classes.len() as u32;
                diag_index.insert(f, new);
                classing.diag_classes.push(DiagClass {
                    features: f,
                    representative: i as u32,
                    members: 1,
                    probes: Vec::new(),
                });
                diag_reservoirs.push(Reservoir::new(
                    cfg.probes_per_class,
                    splitmix64(cfg.probe_seed ^ 0xD1A6_0000 ^ u64::from(new)),
                ));
                classing.diag_table[slot] = new;
                continue;
            }
            classing.diag_table[slot] = idx;
        }
        diag_reservoirs[idx as usize].offer(i as u32);
    }
    for (class, reservoir) in classing.diag_classes.iter_mut().zip(diag_reservoirs) {
        class.members = 1 + reservoir.seen as usize;
        class.probes = reservoir.items;
    }
    classing
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_topo::features::{ExactExtractor, TopologyExtractor};
    use hbar_topo::mapping::RankMapping;

    fn classing_for(
        machine: &MachineSpec,
        p: usize,
        extractor: &dyn PairFeatureExtractor,
        cfg: &ClassingConfig,
    ) -> PairClassing {
        let cores = RankMapping::Block.place(machine, p);
        classify_pairs(machine, &cores, p, extractor, cfg)
    }

    #[test]
    fn homogeneous_cluster_collapses_to_link_classes() {
        let machine = MachineSpec::dual_quad_cluster(4);
        let classing = classing_for(
            &machine,
            32,
            &TopologyExtractor::default(),
            &ClassingConfig::default(),
        );
        // Two same-socket classes (socket identity is kept for
        // asymmetric-NUMA future-proofing) + cross-socket + inter-node.
        assert_eq!(classing.pair_classes.len(), 4);
        assert_eq!(classing.diag_classes.len(), 2, "one class per socket");
        assert_eq!(classing.total_pairs, 32 * 31 / 2);
        let members: usize = classing.pair_classes.iter().map(|c| c.members).sum();
        assert_eq!(members, classing.total_pairs, "partition covers all pairs");
        assert!(!classing.is_singleton());
    }

    #[test]
    fn exact_extractor_yields_singletons() {
        let machine = MachineSpec::new(2, 1, 2);
        let classing = classing_for(
            &machine,
            4,
            &ExactExtractor::default(),
            &ClassingConfig::default(),
        );
        assert_eq!(classing.pair_classes.len(), 6);
        assert!(classing.is_singleton());
        assert!(classing.pair_classes.iter().all(|c| c.probes.is_empty()));
        // Measurement count equals the exhaustive sweep's workload.
        assert_eq!(classing.measurement_count(), 6 + 4);
    }

    #[test]
    fn representative_is_first_member_in_scan_order() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let classing = classing_for(
            &machine,
            16,
            &TopologyExtractor::default(),
            &ClassingConfig::default(),
        );
        let same_socket = classing
            .pair_classes
            .iter()
            .find(|c| c.features.hop_signature == 0)
            .unwrap();
        assert_eq!(same_socket.representative, (0, 1));
        // Block placement on a dual-quad: 0..3 socket 0, 4..7 socket 1.
        let cross = classing
            .pair_classes
            .iter()
            .find(|c| c.features.socket_relation == (0, 1))
            .unwrap();
        assert_eq!(cross.representative, (0, 4));
    }

    #[test]
    fn probes_exclude_representative_and_stay_in_class() {
        let machine = MachineSpec::dual_hex_cluster(4);
        let cores = RankMapping::RoundRobin.place(&machine, 48);
        let ex = TopologyExtractor::default();
        let classing = classify_pairs(&machine, &cores, 48, &ex, &ClassingConfig::default());
        for class in &classing.pair_classes {
            assert!(class.probes.len() <= 4);
            assert!(class.probes.len() < class.members);
            for &(i, j) in &class.probes {
                assert_ne!((i, j), class.representative);
                let f = ex.pair_features(
                    &machine,
                    (i as usize, j as usize),
                    (cores[i as usize], cores[j as usize]),
                );
                assert_eq!(f, class.features, "probe left its class");
            }
        }
    }

    #[test]
    fn probe_selection_is_deterministic() {
        let machine = MachineSpec::dual_quad_cluster(8);
        let a = classing_for(
            &machine,
            64,
            &TopologyExtractor::default(),
            &ClassingConfig::default(),
        );
        let b = classing_for(
            &machine,
            64,
            &TopologyExtractor::default(),
            &ClassingConfig::default(),
        );
        assert_eq!(a.pair_classes, b.pair_classes);
        // A different probe seed moves the probes but not the classes.
        let c = classing_for(
            &machine,
            64,
            &TopologyExtractor::default(),
            &ClassingConfig {
                probe_seed: 99,
                ..ClassingConfig::default()
            },
        );
        assert_eq!(a.pair_classes.len(), c.pair_classes.len());
        assert!(a
            .pair_classes
            .iter()
            .zip(&c.pair_classes)
            .all(|(x, y)| x.representative == y.representative));
        assert!(a
            .pair_classes
            .iter()
            .zip(&c.pair_classes)
            .any(|(x, y)| x.probes != y.probes));
    }

    #[test]
    fn asymmetric_mode_classes_ordered_pairs() {
        let machine = MachineSpec::new(1, 2, 1);
        let classing = classing_for(
            &machine,
            2,
            &ExactExtractor::default(),
            &ClassingConfig {
                symmetric: false,
                ..ClassingConfig::default()
            },
        );
        assert_eq!(classing.total_pairs, 2);
        assert_eq!(classing.pair_classes.len(), 2);
    }

    #[test]
    fn class_lookup_round_trips() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let cores = RankMapping::RoundRobin.place(&machine, 16);
        let ex = TopologyExtractor::default();
        let classing = classify_pairs(&machine, &cores, 16, &ex, &ClassingConfig::default());
        assert_eq!(classing.p(), 16);
        for i in 0..16 {
            let f = ex.rank_features(&machine, i, cores[i]);
            assert_eq!(classing.diag_classes[classing.diag_class_of(i)].features, f);
            for j in (0..16).filter(|&j| j != i) {
                let f = ex.pair_features(&machine, (i, j), (cores[i], cores[j]));
                assert_eq!(classing.pair_classes[classing.class_of(i, j)].features, f);
            }
        }
    }

    #[test]
    fn splitmix_decorrelates_adjacent_inputs() {
        // Adjacent inputs (the old `i * p + j` failure mode) must land far
        // apart: check no two of 4096 consecutive outputs share low 32 bits.
        let mut seen = std::collections::HashSet::new();
        for k in 0..4096u64 {
            assert!(seen.insert(splitmix64(k) as u32), "collision at {k}");
        }
    }
}
