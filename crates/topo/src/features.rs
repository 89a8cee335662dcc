//! Feature-vector descriptions of process pairs (§IV-B generalized).
//!
//! The paper's profiling-cost shortcut replicates one measurement per
//! [`LinkClass`]. That is the right idea but the wrong granularity for
//! machines beyond the two paper clusters: a fat-tree has several
//! inter-node distances, a NUMA node has asymmetric socket pairs, and a
//! partially noisy machine mixes measurement regimes. This module
//! generalizes the classing to an explicit **feature vector** per pair —
//! two pairs are interchangeable (measure one, reuse for both) exactly
//! when their feature vectors are equal.
//!
//! The extraction is pluggable ([`PairFeatureExtractor`]): the default
//! [`TopologyExtractor`] derives features from the machine description
//! (interconnect class, hop signature, socket relation), while
//! [`ExactExtractor`] makes every pair its own class, which degrades the
//! clustered profiling sweep to the exhaustive one — the bit-parity
//! regime the regression harness gates on.
//!
//! Features deliberately contain no floating-point fields so they can be
//! used as exact hash keys.

use crate::machine::{LinkClass, MachineSpec};
use serde::{Deserialize, Serialize};

/// Hop-signature bit: the message crosses a socket boundary.
pub const HOP_SOCKET: u8 = 1 << 0;
/// Hop-signature bit: the message crosses the inter-node network.
pub const HOP_NODE: u8 = 1 << 1;

/// Marker for "no socket relation" (the endpoints are on different nodes,
/// so their socket indices are not comparable NUMA-wise).
pub const SOCKET_RELATION_REMOTE: u16 = u16::MAX;

/// The equivalence-class key of one ordered pair of cores.
///
/// Two pairs with equal features are assumed to have statistically
/// exchangeable `(O, L)` measurements; the clustered sweep measures one
/// representative per distinct value and validates the assumption with
/// per-class probes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PairFeatures {
    /// Coarsest interconnect layer the pair communicates through.
    pub link: LinkClass,
    /// Bitmask of interconnect layers crossed ([`HOP_SOCKET`],
    /// [`HOP_NODE`]); finer than `link` on machines with deeper
    /// hierarchies, redundant (but harmless) on the paper clusters.
    pub hop_signature: u8,
    /// NUMA/socket relation: the unordered `(min, max)` socket indices for
    /// an intra-node pair, `(SOCKET_RELATION_REMOTE, _)` otherwise. On
    /// asymmetric NUMA boards, socket pair (0,1) and (0,2) may have
    /// different interconnect distances even though both are `CrossSocket`.
    pub socket_relation: (u16, u16),
    /// Quantized measurement-noise regime the pair is profiled under
    /// (0 = deterministic). Supplied by the profiling layer, not the
    /// topology: pairs measured under different noise regimes must not
    /// share a representative.
    pub noise_regime: u16,
    /// Extractor-specific refinement. The topology extractor leaves it 0;
    /// [`ExactExtractor`] packs the rank pair here so every pair is a
    /// singleton class.
    pub refinement: u64,
}

/// The equivalence-class key of one rank's diagonal (`O_ii`) measurement:
/// a transmission-free call costs the same on every core of a homogeneous
/// machine, so all diagonals usually collapse into one class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RankFeatures {
    /// Socket index of the rank's core (future-proofing for machines with
    /// heterogeneous sockets; constant on the paper clusters).
    pub socket: u16,
    /// Noise regime, as in [`PairFeatures::noise_regime`].
    pub noise_regime: u16,
    /// Extractor-specific refinement (the rank index under
    /// [`ExactExtractor`]).
    pub refinement: u64,
}

/// Pluggable feature extraction over a machine's core pairs.
///
/// Implementations must be deterministic pure functions of
/// `(machine, cores)` that **factor through per-rank sites**: each rank
/// has a site id ([`PairFeatureExtractor::site`]), and
///
/// * `pair_features(i, j)` depends only on `(site_i, site_j,
///   node_i == node_j)`;
/// * `rank_features(i)` depends only on `site_i`.
///
/// Classing relies on this contract: it computes the `P` sites once and
/// asks for features only the first time a `(site_i, site_j, same_node)`
/// relation appears, so a homogeneous machine costs a handful of
/// feature calls however many ranks it has. Site ids need not be dense.
pub trait PairFeatureExtractor: Sync {
    /// Site of the rank on `core`: the per-rank attribute its features
    /// are a function of.
    fn site(&self, machine: &MachineSpec, rank: usize, core: usize) -> u32;

    /// Features of the ordered pair `(rank_i on core_a, rank_j on core_b)`.
    /// `ranks` are provided for extractors that refine by rank identity.
    fn pair_features(
        &self,
        machine: &MachineSpec,
        ranks: (usize, usize),
        cores: (usize, usize),
    ) -> PairFeatures;

    /// Features of one rank's diagonal measurement.
    fn rank_features(&self, machine: &MachineSpec, rank: usize, core: usize) -> RankFeatures;

    /// Quantized noise regime stamped into every produced feature vector.
    fn noise_regime(&self) -> u16;
}

/// The default extractor: classes pairs by interconnect topology alone
/// (link class, hop signature, socket relation), so a homogeneous machine
/// collapses `|P|²` pairs into a handful of classes. A rank's site is its
/// core's socket index within the node.
#[derive(Clone, Copy, Debug, Default)]
pub struct TopologyExtractor {
    /// Noise regime stamped into every feature vector (see
    /// [`PairFeatures::noise_regime`]).
    pub noise_regime: u16,
}

impl TopologyExtractor {
    /// Extractor for measurements under the given quantized noise regime.
    pub fn with_noise_regime(noise_regime: u16) -> Self {
        TopologyExtractor { noise_regime }
    }
}

impl PairFeatureExtractor for TopologyExtractor {
    fn site(&self, machine: &MachineSpec, _rank: usize, core: usize) -> u32 {
        machine.core(core).socket as u32
    }

    fn pair_features(
        &self,
        machine: &MachineSpec,
        _ranks: (usize, usize),
        (core_a, core_b): (usize, usize),
    ) -> PairFeatures {
        let a = machine.core(core_a);
        let b = machine.core(core_b);
        let link = a.link_class(&b);
        let mut hops = 0u8;
        if a.node != b.node {
            hops |= HOP_NODE | HOP_SOCKET;
        } else if a.socket != b.socket {
            hops |= HOP_SOCKET;
        }
        let socket_relation = if a.node == b.node {
            let (lo, hi) = if a.socket <= b.socket {
                (a.socket, b.socket)
            } else {
                (b.socket, a.socket)
            };
            (lo as u16, hi as u16)
        } else {
            (SOCKET_RELATION_REMOTE, SOCKET_RELATION_REMOTE)
        };
        PairFeatures {
            link,
            hop_signature: hops,
            socket_relation,
            noise_regime: self.noise_regime,
            refinement: 0,
        }
    }

    fn rank_features(&self, machine: &MachineSpec, _rank: usize, core: usize) -> RankFeatures {
        RankFeatures {
            socket: machine.core(core).socket as u16,
            noise_regime: self.noise_regime,
            refinement: 0,
        }
    }

    fn noise_regime(&self) -> u16 {
        self.noise_regime
    }
}

/// The degenerate extractor: every pair (and every diagonal) is its own
/// class, so the clustered sweep performs exactly the exhaustive sweep's
/// measurements. This is the regime where clustered and exhaustive
/// profiles must agree bit-for-bit. A rank's site is the rank itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactExtractor {
    /// Noise regime stamped into every feature vector.
    pub noise_regime: u16,
}

impl PairFeatureExtractor for ExactExtractor {
    fn site(&self, _machine: &MachineSpec, rank: usize, _core: usize) -> u32 {
        rank as u32
    }

    fn pair_features(
        &self,
        machine: &MachineSpec,
        (i, j): (usize, usize),
        cores: (usize, usize),
    ) -> PairFeatures {
        let mut f = TopologyExtractor::with_noise_regime(self.noise_regime).pair_features(
            machine,
            (i, j),
            cores,
        );
        f.refinement = ((i as u64) << 32) | j as u64;
        f
    }

    fn rank_features(&self, machine: &MachineSpec, rank: usize, core: usize) -> RankFeatures {
        let mut f = TopologyExtractor::with_noise_regime(self.noise_regime)
            .rank_features(machine, rank, core);
        f.refinement = rank as u64;
        f
    }

    fn noise_regime(&self) -> u16 {
        self.noise_regime
    }
}

impl MachineSpec {
    /// Topology-derived features of the core pair `(a, b)` under the
    /// default extractor (noise regime 0). Convenience for callers that
    /// want the classing key without constructing an extractor.
    pub fn pair_features(&self, a: usize, b: usize) -> PairFeatures {
        TopologyExtractor::default().pair_features(self, (0, 1), (a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_features_track_link_classes() {
        let m = MachineSpec::dual_quad_cluster(2);
        let same = m.pair_features(0, 1);
        assert_eq!(same.link, LinkClass::SameSocket);
        assert_eq!(same.hop_signature, 0);
        assert_eq!(same.socket_relation, (0, 0));

        let cross = m.pair_features(0, 4);
        assert_eq!(cross.link, LinkClass::CrossSocket);
        assert_eq!(cross.hop_signature, HOP_SOCKET);
        assert_eq!(cross.socket_relation, (0, 1));

        let inter = m.pair_features(0, 8);
        assert_eq!(inter.link, LinkClass::InterNode);
        assert_eq!(inter.hop_signature, HOP_SOCKET | HOP_NODE);
        assert_eq!(
            inter.socket_relation,
            (SOCKET_RELATION_REMOTE, SOCKET_RELATION_REMOTE)
        );
    }

    #[test]
    fn topology_features_are_direction_invariant() {
        let m = MachineSpec::dual_hex_cluster(3);
        for (a, b) in [(0usize, 7usize), (2, 13), (5, 30)] {
            assert_eq!(m.pair_features(a, b), m.pair_features(b, a));
        }
    }

    #[test]
    fn homogeneous_machine_collapses_to_four_pair_classes() {
        // Same-socket pairs keep their socket identity (asymmetric-NUMA
        // future-proofing), so a dual-socket machine has two same-socket
        // classes plus cross-socket plus inter-node.
        let m = MachineSpec::dual_quad_cluster(4);
        let mut distinct = std::collections::HashSet::new();
        let total = m.total_cores();
        for a in 0..total {
            for b in 0..total {
                if a != b {
                    distinct.insert(m.pair_features(a, b));
                }
            }
        }
        assert_eq!(distinct.len(), 4, "{distinct:?}");
    }

    #[test]
    fn exact_extractor_separates_every_pair() {
        let m = MachineSpec::new(1, 1, 4);
        let ex = ExactExtractor::default();
        let f01 = ex.pair_features(&m, (0, 1), (0, 1));
        let f02 = ex.pair_features(&m, (0, 2), (0, 2));
        let f10 = ex.pair_features(&m, (1, 0), (1, 0));
        assert_ne!(f01, f02);
        assert_ne!(f01, f10, "ordered pairs stay distinct");
    }

    #[test]
    fn noise_regime_separates_classes() {
        let m = MachineSpec::new(1, 1, 2);
        let quiet = TopologyExtractor::with_noise_regime(0);
        let noisy = TopologyExtractor::with_noise_regime(3);
        assert_ne!(
            quiet.pair_features(&m, (0, 1), (0, 1)),
            noisy.pair_features(&m, (0, 1), (0, 1))
        );
    }

    #[test]
    fn rank_features_record_socket() {
        let m = MachineSpec::dual_quad_cluster(1);
        let ex = TopologyExtractor::default();
        assert_eq!(ex.rank_features(&m, 0, 0).socket, 0);
        assert_eq!(ex.rank_features(&m, 4, 4).socket, 1);
        assert_eq!(ex.rank_features(&m, 0, 0), ex.rank_features(&m, 9, 1));
    }

    #[test]
    fn features_serde_roundtrip() {
        let m = MachineSpec::dual_quad_cluster(2);
        let f = m.pair_features(0, 9);
        let json = serde_json::to_string(&f).unwrap();
        let back: PairFeatures = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }
}
