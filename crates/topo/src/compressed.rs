//! Class-compressed cost model: the `|P|²` memory-wall fix.
//!
//! The dense [`CostMatrices`] spend 16 bytes per ordered pair (`O` and
//! `L` as `f64`), which at P = 16384 is 4 GiB before the tuner has done
//! any work — the scaling bound flagged after the decomposed sweep made
//! *measuring* such machines cheap. But the sweep's own premise is that
//! a real machine only has a handful of distinct pair behaviours
//! (interconnect class × hop signature × socket relation × noise
//! regime): the dense matrices are a few dozen distinct `(O, L)` values
//! stamped 268 million times.
//!
//! [`CompressedCostModel`] stores that structure directly: one `u16`
//! class id per ordered pair (2 bytes — 512 MiB at P = 16384) plus two
//! per-class value tables. Exact mode round-trips bit-identically to
//! dense — every accessor returns the same `f64` bits — so the
//! fingerprint, the evaluator's scores, and full tunes are equal across
//! backings, which the parity proptests assert at P ≤ 256.
//!
//! Diagonal cells (`O_ii` call overhead, `L_ii = 0` by convention) get
//! class ids disjoint from off-diagonal cells even when their values
//! collide. That invariant is what lets the derived
//! [`DistanceMetric`] share this grid zero-copy: the per-class distance
//! table maps diagonal classes to `0.0` and off-diagonal classes to the
//! symmetrized `(O_c + O_c) / 2` without consulting positions.

use crate::cost::{CostMatrices, CostProvider, FingerprintStream};
use crate::metric::DistanceMetric;
use hbar_matrix::DenseMatrix;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Maximum number of distinct pair classes a `u16` grid can address.
pub const MAX_CLASSES: usize = 1 << 16;

/// Why a compressed model could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompressError {
    /// The model needs more classes than a `u16` grid can address.
    ClassOverflow {
        /// Distinct classes required (> [`MAX_CLASSES`]).
        needed: usize,
    },
    /// `table_o` and `table_l` disagree in length.
    TableMismatch { o: usize, l: usize },
    /// The grid is not `p × p`.
    GridShape { p: usize, len: usize },
    /// A grid cell references a class past the value tables.
    ClassOutOfRange {
        cell: usize,
        class: u16,
        classes: usize,
    },
    /// A class id appears both on and off the diagonal, so the metric
    /// could not tell `d(i, i) = 0` from a real distance.
    DiagClassShared { class: u16 },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::ClassOverflow { needed } => write!(
                f,
                "model needs {needed} pair classes, more than the {MAX_CLASSES} a u16 grid holds"
            ),
            CompressError::TableMismatch { o, l } => {
                write!(f, "value tables disagree: {o} O entries vs {l} L entries")
            }
            CompressError::GridShape { p, len } => {
                write!(f, "class grid has {len} cells, expected {p}x{p}")
            }
            CompressError::ClassOutOfRange {
                cell,
                class,
                classes,
            } => write!(
                f,
                "grid cell {cell} references class {class}, but only {classes} classes exist"
            ),
            CompressError::DiagClassShared { class } => write!(
                f,
                "class {class} is used both on and off the diagonal; diagonal cells must \
                 have dedicated classes"
            ),
        }
    }
}

impl std::error::Error for CompressError {}

/// A `P × P` cost model stored as a `u16` class grid plus per-class
/// `(O, L)` value tables — 2 bytes per ordered pair instead of 16.
///
/// See the module docs for the representation contract. Construction
/// computes the versioned cost fingerprint of the dense image once (two
/// streamed passes over the grid), so [`CostProvider::fingerprint`] and
/// every warm-tune rebind afterwards are O(1).
#[derive(Clone, Debug)]
pub struct CompressedCostModel {
    p: usize,
    grid: Arc<Vec<u16>>,
    table_o: Vec<f64>,
    table_l: Vec<f64>,
    /// Per class: does it appear on the diagonal?
    diag_class: Vec<bool>,
    symmetric: bool,
    fingerprint: u64,
}

/// Whether the row-major `p × p` grid equals its transpose, compared one
/// pair of mirrored `TILE × TILE` tiles at a time so both reads stay in
/// cache.
fn grid_is_symmetric(p: usize, grid: &[u16]) -> bool {
    const TILE: usize = 64;
    (0..p).step_by(TILE).all(|ti| {
        (ti..p).step_by(TILE).all(|tj| {
            (ti..(ti + TILE).min(p)).all(|i| {
                let row = &grid[i * p..(i + 1) * p];
                (tj.max(i + 1)..(tj + TILE).min(p)).all(|j| row[j] == grid[j * p + i])
            })
        })
    })
}

impl CompressedCostModel {
    /// Builds from an explicit grid and value tables — the sweep's
    /// constructor, which assembles the grid tile-at-a-time from
    /// `classify_pairs` buckets without ever materializing a dense
    /// matrix. Validates the full representation contract.
    pub fn from_parts(
        p: usize,
        grid: Vec<u16>,
        table_o: Vec<f64>,
        table_l: Vec<f64>,
    ) -> Result<Self, CompressError> {
        if table_o.len() != table_l.len() {
            return Err(CompressError::TableMismatch {
                o: table_o.len(),
                l: table_l.len(),
            });
        }
        let classes = table_o.len();
        if classes > MAX_CLASSES {
            return Err(CompressError::ClassOverflow { needed: classes });
        }
        if grid.len() != p * p {
            return Err(CompressError::GridShape { p, len: grid.len() });
        }
        let mut on_diag = vec![false; classes];
        let mut off_diag = vec![false; classes];
        // `max(1)`: a `p = 0` grid is empty and has no rows to walk.
        for (i, row) in grid.chunks_exact(p.max(1)).enumerate() {
            if let Some(j) = row.iter().position(|&c| c as usize >= classes) {
                return Err(CompressError::ClassOutOfRange {
                    cell: i * p + j,
                    class: row[j],
                    classes,
                });
            }
            on_diag[row[i] as usize] = true;
            for &c in row[..i].iter().chain(&row[i + 1..]) {
                off_diag[c as usize] = true;
            }
        }
        if let Some(class) = (0..classes).find(|&c| on_diag[c] && off_diag[c]) {
            return Err(CompressError::DiagClassShared {
                class: class as u16,
            });
        }
        let symmetric = grid_is_symmetric(p, &grid);
        let fingerprint = Self::stream_fingerprint(p, &grid, &table_o, &table_l);
        Ok(CompressedCostModel {
            p,
            grid: Arc::new(grid),
            table_o,
            table_l,
            diag_class: on_diag,
            symmetric,
            fingerprint,
        })
    }

    /// Compresses dense matrices exactly: cells with bit-identical
    /// `(O, L)` values share a class (diagonal cells kept in their own
    /// class space). Fails only if the matrices have more distinct value
    /// pairs than [`MAX_CLASSES`] — i.e. the model is effectively
    /// incompressible and dense storage is the honest representation.
    pub fn from_dense(cost: &CostMatrices) -> Result<Self, CompressError> {
        let p = cost.p();
        let o = cost.o.as_slice();
        let l = cost.l.as_slice();
        let mut index: HashMap<(u64, u64, bool), u16> = HashMap::new();
        let mut grid = vec![0u16; p * p];
        let mut table_o = Vec::new();
        let mut table_l = Vec::new();
        for i in 0..p {
            for j in 0..p {
                let cell = i * p + j;
                let key = (o[cell].to_bits(), l[cell].to_bits(), i == j);
                let next = table_o.len();
                let class = *index.entry(key).or_insert_with(|| {
                    table_o.push(o[cell]);
                    table_l.push(l[cell]);
                    // The cast wraps past MAX_CLASSES; the overflow check
                    // below rejects the model before the grid is used.
                    next as u16
                });
                grid[cell] = class;
            }
        }
        if table_o.len() > MAX_CLASSES {
            return Err(CompressError::ClassOverflow {
                needed: table_o.len(),
            });
        }
        Self::from_parts(p, grid, table_o, table_l)
    }

    /// The fingerprint of the dense image, streamed off the grid so the
    /// image is never materialized. Bit-equal decompressed entries give
    /// the exact [`crate::cost::cost_fingerprint`] value.
    fn stream_fingerprint(p: usize, grid: &[u16], table_o: &[f64], table_l: &[f64]) -> u64 {
        let mut s = FingerprintStream::new();
        for &c in grid {
            s.absorb(table_o[c as usize]);
        }
        s.matrix_boundary();
        for &c in grid {
            s.absorb(table_l[c as usize]);
        }
        s.finish(p)
    }

    /// Number of processes.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of distinct pair classes (diagonal classes included).
    pub fn classes(&self) -> usize {
        self.table_o.len()
    }

    /// Whether the class grid is symmetric (`class(i,j) == class(j,i)`).
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// The shared class grid (row-major, `p × p`).
    pub fn grid(&self) -> &Arc<Vec<u16>> {
        &self.grid
    }

    /// Heap bytes held by this model (grid counted once even though the
    /// derived metric may share it).
    pub fn heap_bytes(&self) -> usize {
        self.grid.len() * std::mem::size_of::<u16>()
            + (self.table_o.len() + self.table_l.len()) * std::mem::size_of::<f64>()
            + self.diag_class.len()
    }

    /// Decompresses to dense matrices — bit-identical to the model's
    /// image, used by parity assertions and by consumers that genuinely
    /// need dense storage (e.g. wire serialization of small models).
    pub fn to_dense(&self) -> CostMatrices {
        let p = self.p;
        CostMatrices {
            o: DenseMatrix::from_fn(p, |i, j| self.table_o[self.grid[i * p + j] as usize]),
            l: DenseMatrix::from_fn(p, |i, j| self.table_l[self.grid[i * p + j] as usize]),
        }
    }
}

impl CostProvider for CompressedCostModel {
    #[inline]
    fn p(&self) -> usize {
        self.p
    }

    #[inline]
    fn o_at(&self, i: usize, j: usize) -> f64 {
        self.table_o[self.grid[i * self.p + j] as usize]
    }

    #[inline]
    fn l_at(&self, i: usize, j: usize) -> f64 {
        self.table_l[self.grid[i * self.p + j] as usize]
    }

    #[inline]
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The clustering metric. For a symmetric grid (every sweep-built
    /// model) this shares the class grid zero-copy and only builds a
    /// per-class distance table: `(O_c + O_c) / 2` is bit-equal to what
    /// the dense path computes per cell, and diagonal classes map to
    /// `0.0` exactly as the dense metric zeroes its diagonal. An
    /// asymmetric grid falls back to materializing the dense metric with
    /// the identical tiled arithmetic (`O(p²)` memory — but an
    /// asymmetric model compressed poorly to begin with).
    fn distance_metric(&self) -> DistanceMetric {
        if self.symmetric {
            let table = self
                .table_o
                .iter()
                .zip(&self.diag_class)
                .map(|(&o, &diag)| if diag { 0.0 } else { (o + o) / 2.0 })
                .collect();
            return DistanceMetric::from_classes(self.p, Arc::clone(&self.grid), table);
        }
        const TILE: usize = 64;
        let p = self.p;
        let mut data = vec![0.0f64; p * p];
        for bi in (0..p).step_by(TILE) {
            for bj in (bi..p).step_by(TILE) {
                let ei = (bi + TILE).min(p);
                let ej = (bj + TILE).min(p);
                for i in bi..ei {
                    for j in bj.max(i + 1)..ej {
                        let v = (self.o_at(i, j) + self.o_at(j, i)) / 2.0;
                        data[i * p + j] = v;
                        data[j * p + i] = v;
                    }
                }
            }
        }
        DistanceMetric::from_dense_unchecked(DenseMatrix::from_vec(p, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cost_fingerprint;
    use crate::machine::MachineSpec;
    use crate::mapping::RankMapping;
    use crate::profile::TopologyProfile;

    fn ground_truth_costs(nodes: usize) -> CostMatrices {
        let machine = MachineSpec::dual_quad_cluster(nodes);
        TopologyProfile::from_ground_truth(&machine, &RankMapping::Block).cost
    }

    fn assert_bits_equal(a: &CostMatrices, b: &CostMatrices) {
        assert_eq!(a.p(), b.p());
        for (x, y) in a.o.as_slice().iter().zip(b.o.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.l.as_slice().iter().zip(b.l.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn round_trips_ground_truth_bit_identically() {
        let cost = ground_truth_costs(2);
        let model = CompressedCostModel::from_dense(&cost).expect("compresses");
        assert_bits_equal(&model.to_dense(), &cost);
        // A 16-rank ground-truth machine has a handful of behaviours,
        // not 256 — the point of the representation.
        assert!(model.classes() <= 8, "classes = {}", model.classes());
        assert!(model.is_symmetric());
        for i in 0..cost.p() {
            for j in 0..cost.p() {
                assert_eq!(model.o_at(i, j).to_bits(), cost.o[(i, j)].to_bits());
                assert_eq!(model.l_at(i, j).to_bits(), cost.l[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn fingerprint_matches_dense() {
        let cost = ground_truth_costs(3);
        let model = CompressedCostModel::from_dense(&cost).expect("compresses");
        assert_eq!(model.fingerprint(), cost_fingerprint(&cost));
        assert_eq!(CostProvider::fingerprint(&cost), model.fingerprint());
    }

    #[test]
    fn distance_metric_matches_dense_bitwise() {
        let cost = ground_truth_costs(2);
        let model = CompressedCostModel::from_dense(&cost).expect("compresses");
        let dense = DistanceMetric::from_costs(&cost);
        let compressed = model.distance_metric();
        let p = cost.p();
        for i in 0..p {
            for j in 0..p {
                assert_eq!(
                    compressed.dist(i, j).to_bits(),
                    dense.dist(i, j).to_bits(),
                    "({i},{j})"
                );
            }
        }
        assert_eq!(compressed.diameter().to_bits(), dense.diameter().to_bits());
        let members: Vec<usize> = (0..p).step_by(3).collect();
        assert_eq!(
            compressed.diameter_of(&members).to_bits(),
            dense.diameter_of(&members).to_bits()
        );
    }

    #[test]
    fn asymmetric_model_falls_back_to_dense_metric() {
        let mut cost = ground_truth_costs(2);
        cost.o[(0, 5)] *= 1.5; // break symmetry
        let model = CompressedCostModel::from_dense(&cost).expect("compresses");
        assert!(!model.is_symmetric());
        let dense = DistanceMetric::from_costs(&cost);
        let compressed = model.distance_metric();
        for i in 0..cost.p() {
            for j in 0..cost.p() {
                assert_eq!(compressed.dist(i, j).to_bits(), dense.dist(i, j).to_bits());
            }
        }
    }

    #[test]
    fn local_costs_match_submatrices() {
        let cost = ground_truth_costs(2);
        let model = CompressedCostModel::from_dense(&cost).expect("compresses");
        let participants = [3usize, 0, 9, 12];
        assert_bits_equal(
            &model.local_costs(&participants),
            &cost.submatrices(&participants),
        );
    }

    #[test]
    fn diag_values_colliding_with_pairs_still_get_own_classes() {
        // O_ii equals an off-diagonal O and L is zero everywhere: without
        // the diagonal flag in the dedup key these would share a class
        // and the shared-grid metric would zero real distances.
        let cost = CostMatrices {
            o: DenseMatrix::filled(4, 7.0),
            l: DenseMatrix::new(4),
        };
        let model = CompressedCostModel::from_dense(&cost).expect("compresses");
        assert_eq!(model.classes(), 2);
        let metric = model.distance_metric();
        assert_eq!(metric.dist(0, 0), 0.0);
        assert_eq!(metric.dist(0, 1), 7.0);
    }

    #[test]
    fn incompressible_model_overflows() {
        // 257² distinct O values -> 66049 classes > 65536.
        let p = 257;
        let cost = CostMatrices {
            o: DenseMatrix::from_fn(p, |i, j| (i * p + j) as f64),
            l: DenseMatrix::new(p),
        };
        match CompressedCostModel::from_dense(&cost) {
            Err(CompressError::ClassOverflow { needed }) => assert_eq!(needed, p * p),
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn from_parts_validates_the_contract() {
        let err = |r: Result<CompressedCostModel, CompressError>| r.expect_err("must reject");
        assert_eq!(
            err(CompressedCostModel::from_parts(
                2,
                vec![0; 3],
                vec![0.0],
                vec![0.0]
            )),
            CompressError::GridShape { p: 2, len: 3 }
        );
        assert_eq!(
            err(CompressedCostModel::from_parts(
                1,
                vec![1],
                vec![0.0],
                vec![0.0]
            )),
            CompressError::ClassOutOfRange {
                cell: 0,
                class: 1,
                classes: 1
            }
        );
        assert_eq!(
            err(CompressedCostModel::from_parts(
                1,
                vec![0],
                vec![0.0, 1.0],
                vec![0.0]
            )),
            CompressError::TableMismatch { o: 2, l: 1 }
        );
        // Class 0 on both the diagonal and off it.
        assert_eq!(
            err(CompressedCostModel::from_parts(
                2,
                vec![0, 0, 0, 0],
                vec![1.0],
                vec![0.0]
            )),
            CompressError::DiagClassShared { class: 0 }
        );
    }

    #[test]
    fn heap_bytes_reflect_grid_compression() {
        let cost = ground_truth_costs(8); // P = 128
        let model = CompressedCostModel::from_dense(&cost).expect("compresses");
        let dense_bytes = 2 * cost.p() * cost.p() * std::mem::size_of::<f64>();
        assert!(
            model.heap_bytes() * 4 < dense_bytes,
            "compressed {} vs dense {dense_bytes}",
            model.heap_bytes()
        );
    }
}
