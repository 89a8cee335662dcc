//! Frozen pre-optimization model kernels, kept verbatim for regression
//! measurement.
//!
//! These are the `hbar-matrix` / `hbar-core` algorithmic-model kernels
//! exactly as they stood before the blocked-bitset rework: the per-row
//! `and_or_product` that walks set bits of the left operand, the
//! bit-at-a-time `transpose`/`embed`/`submatrix`, the allocating Eq. 3
//! closure (`flow = K·S; K |= flow` with a fresh matrix per stage), the
//! popcount-based `is_all_true`, and the `min_by`-over-recomputed-distances
//! SSS scan. The `model-perf` binary and the `model` bench time them
//! against the optimized kernels to quantify — and guard — the speedup,
//! after asserting bit-parity on every output. They must NOT be optimized.
//!
//! `BoolMatrix`'s word storage is private to `hbar-matrix`, so the frozen
//! kernels run on [`BaselineBitMat`], a copy of the original struct with
//! the same layout (row-major `u64` words, LSB-first columns); conversion
//! to and from `BoolMatrix` is lossless and word-for-word.

use hbar_matrix::BoolMatrix;
use hbar_topo::metric::DistanceMetric;

/// The original bitset matrix: packed 64-bit words per row, identical
/// layout to `BoolMatrix` at the seed.
#[derive(Clone, PartialEq, Eq)]
pub struct BaselineBitMat {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BaselineBitMat {
    /// Creates the `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        let words_per_row = n.div_ceil(64).max(1);
        BaselineBitMat {
            n,
            words_per_row,
            bits: vec![0; words_per_row * n],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Word-for-word copy of an optimized-kernel matrix.
    pub fn from_matrix(m: &BoolMatrix) -> Self {
        let mut out = Self::zeros(m.n());
        for i in 0..m.n() {
            let dst = out.row_range(i);
            out.bits[dst].copy_from_slice(m.row(i));
        }
        out
    }

    /// Lossless conversion back, for parity comparison.
    pub fn to_matrix(&self) -> BoolMatrix {
        let edges: Vec<(usize, usize)> = self.edges().collect();
        BoolMatrix::from_edges(self.n, &edges)
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = i * self.words_per_row;
        start..start + self.words_per_row
    }

    /// Reads entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(
            i < self.n && j < self.n,
            "index ({i},{j}) out of range {}",
            self.n
        );
        self.bits[i * self.words_per_row + j / 64] >> (j % 64) & 1 == 1
    }

    /// Writes entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: bool) {
        assert!(
            i < self.n && j < self.n,
            "index ({i},{j}) out of range {}",
            self.n
        );
        let w = &mut self.bits[i * self.words_per_row + j / 64];
        if v {
            *w |= 1 << (j % 64);
        } else {
            *w &= !(1 << (j % 64));
        }
    }

    /// Number of set entries in row `i`.
    pub fn row_popcount(&self, i: usize) -> usize {
        self.bits[self.row_range(i)]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Original all-ones test: per-row popcount comparison.
    pub fn is_all_true(&self) -> bool {
        (0..self.n).all(|i| self.row_popcount(i) == self.n)
    }

    /// Set columns of row `i`, ascending (original per-bit scan shape).
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let row = &self.bits[self.row_range(i)];
        row.iter().enumerate().flat_map(move |(w_idx, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| w_idx * 64 + b)
                .filter(move |&idx| idx < self.n)
        })
    }

    /// All set `(row, col)` pairs in row-major order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| self.row_iter(i).map(move |j| (i, j)))
    }

    /// Original transpose: one `set` per edge.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.n);
        for (i, j) in self.edges() {
            t.set(j, i, true);
        }
        t
    }

    /// In-place boolean OR.
    pub fn or_assign(&mut self, other: &Self) {
        assert_eq!(
            self.n, other.n,
            "dimension mismatch {} vs {}",
            self.n, other.n
        );
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Original boolean (and/or semiring) product: for each set bit
    /// `(i, k)` of `self`, OR row `k` of `other` into row `i` of a fresh
    /// output matrix.
    pub fn and_or_product(&self, other: &Self) -> Self {
        assert_eq!(
            self.n, other.n,
            "dimension mismatch {} vs {}",
            self.n, other.n
        );
        let mut out = Self::zeros(self.n);
        for i in 0..self.n {
            for k in self.row_iter(i) {
                let src_range = other.row_range(k);
                let dst_range = out.row_range(i);
                let (dst, src) = (dst_range.start, src_range.start);
                for w in 0..self.words_per_row {
                    out.bits[dst + w] |= other.bits[src + w];
                }
            }
        }
        out
    }

    /// Original embed: validate the map, then one `set` per edge.
    pub fn embed(&self, m: usize, index_map: &[usize]) -> Self {
        assert_eq!(index_map.len(), self.n, "index map length mismatch");
        let mut seen = vec![false; m];
        for &g in index_map {
            assert!(g < m, "mapped index {g} out of range {m}");
            assert!(!seen[g], "duplicate mapped index {g}");
            seen[g] = true;
        }
        let mut out = Self::zeros(m);
        for (i, j) in self.edges() {
            out.set(index_map[i], index_map[j], true);
        }
        out
    }

    /// Original submatrix: a `get`/`set` pair per index-map cell.
    pub fn submatrix(&self, indices: &[usize]) -> Self {
        let mut out = Self::zeros(indices.len());
        for (li, &gi) in indices.iter().enumerate() {
            for (lj, &gj) in indices.iter().enumerate() {
                if self.get(gi, gj) {
                    out.set(li, lj, true);
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for BaselineBitMat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BaselineBitMat {}x{}", self.n, self.n)
    }
}

/// Original Eq. 3 closure: a fresh `flow` matrix per stage.
pub fn baseline_knowledge_closure(n: usize, stages: &[BaselineBitMat]) -> BaselineBitMat {
    let mut k = BaselineBitMat::identity(n);
    for s in stages {
        assert_eq!(s.n(), n, "stage dimension {} != {}", s.n(), n);
        let flow = k.and_or_product(s);
        k.or_assign(&flow);
    }
    k
}

/// Per-stage Eq. 3 trace as `KnowledgeTrace::recompute` ran it before
/// the receiver-major kernel: every state a full `K` (`K[i][j]`: j knows
/// i), each one a copy of its predecessor with the blocked product
/// `K_{a-1}·S_a` accumulated on top. Reuses the matrices `states` holds
/// from a previous call, as the original did; afterwards `states[0]` is
/// the identity and `states[a + 1]` the knowledge after stage `a`.
pub fn baseline_knowledge_trace(n: usize, stages: &[BoolMatrix], states: &mut Vec<BoolMatrix>) {
    states.resize_with(stages.len() + 1, || BoolMatrix::zeros(0));
    states[0].reset_identity(n);
    for (a, s) in stages.iter().enumerate() {
        assert_eq!(s.n(), n, "stage dimension {} != {}", s.n(), n);
        let (prev, next) = states.split_at_mut(a + 1);
        let (k, out) = (&prev[a], &mut next[0]);
        out.copy_from(k);
        k.and_or_accumulate_into(s, out);
    }
}

/// Original SSS scan: each point recomputes its distance to every
/// existing center via `min_by` — O(P·k) distance evaluations *per point*.
pub fn baseline_sss_clusters(
    metric: &DistanceMetric,
    members: &[usize],
    sparseness: f64,
    diameter: f64,
) -> Vec<Vec<usize>> {
    assert!(!members.is_empty(), "cannot cluster zero members");
    assert!(
        sparseness > 0.0 && sparseness <= 1.0,
        "sparseness must be in (0, 1], got {sparseness}"
    );
    let threshold = sparseness * diameter;
    let mut centers: Vec<usize> = vec![members[0]];
    let mut clusters: Vec<Vec<usize>> = vec![vec![members[0]]];
    for &m in &members[1..] {
        let (best_idx, best_dist) = centers
            .iter()
            .enumerate()
            .map(|(ci, &c)| (ci, metric.dist(c, m)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .expect("at least one center");
        if best_dist > threshold {
            centers.push(m);
            clusters.push(vec![m]);
        } else {
            clusters[best_idx].push(m);
        }
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_core::clustering::{sss_clusters, SSS_DEFAULT_SPARSENESS};
    use hbar_matrix::{knowledge_closure, knowledge_steps};
    use hbar_topo::machine::MachineSpec;
    use hbar_topo::mapping::RankMapping;
    use hbar_topo::profile::TopologyProfile;

    fn dissemination(n: usize) -> Vec<BoolMatrix> {
        let mut stages = Vec::new();
        let mut step = 1;
        while step < n {
            let mut s = BoolMatrix::zeros(n);
            for i in 0..n {
                s.set(i, (i + step) % n, true);
            }
            stages.push(s);
            step *= 2;
        }
        stages
    }

    #[test]
    fn conversion_roundtrips_word_for_word() {
        let m = BoolMatrix::from_edges(130, &[(0, 0), (1, 64), (129, 129), (63, 127)]);
        let base = BaselineBitMat::from_matrix(&m);
        assert_eq!(base.to_matrix(), m);
        assert!(base.get(1, 64) && !base.get(64, 1));
    }

    #[test]
    fn frozen_closure_matches_optimized() {
        for n in [1usize, 2, 6, 65, 130] {
            let stages = dissemination(n);
            let base_stages: Vec<BaselineBitMat> =
                stages.iter().map(BaselineBitMat::from_matrix).collect();
            let base = baseline_knowledge_closure(n, &base_stages);
            let opt = knowledge_closure(n, &stages);
            assert_eq!(base.to_matrix(), opt, "n={n}");
            assert_eq!(base.is_all_true(), opt.is_all_true(), "n={n}");
        }
    }

    #[test]
    fn frozen_trace_is_the_transposed_receiver_major_trace() {
        for n in [1usize, 6, 65, 130] {
            let stages = dissemination(n);
            let mut states = Vec::new();
            baseline_knowledge_trace(n, &stages, &mut states);
            let trace = knowledge_steps(n, &stages);
            assert_eq!(states.len(), trace.stages() + 1, "n={n}");
            for (a, k) in states.iter().enumerate() {
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(k.get(i, j), trace.knows(a, j, i), "n={n} state {a}");
                    }
                }
            }
        }
    }

    #[test]
    fn frozen_matrix_ops_match_optimized() {
        let m = BoolMatrix::from_edges(70, &[(0, 1), (63, 64), (69, 0), (5, 69)]);
        let base = BaselineBitMat::from_matrix(&m);
        assert_eq!(base.transpose().to_matrix(), m.transpose());
        let map: Vec<usize> = (0..70).map(|k| k * 2 + 1).collect();
        assert_eq!(base.embed(141, &map).to_matrix(), m.embed(141, &map));
        let sub = [0usize, 5, 63, 64, 69];
        assert_eq!(base.submatrix(&sub).to_matrix(), m.submatrix(&sub));
    }

    #[test]
    fn frozen_sss_matches_optimized() {
        let machine = MachineSpec::dual_quad_cluster(4);
        for (mapping, p) in [(RankMapping::Block, 32), (RankMapping::RoundRobin, 27)] {
            let prof = TopologyProfile::from_ground_truth_for(&machine, &mapping, p);
            let metric = DistanceMetric::from_costs(&prof.cost);
            let members: Vec<usize> = (0..p).collect();
            let dia = metric.diameter();
            let base = baseline_sss_clusters(&metric, &members, SSS_DEFAULT_SPARSENESS, dia);
            let opt = sss_clusters(&metric, &members, SSS_DEFAULT_SPARSENESS, dia);
            assert_eq!(base, opt, "{mapping:?} p={p}");
        }
    }
}
