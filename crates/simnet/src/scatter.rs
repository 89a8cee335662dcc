//! Out-of-core class-grid scatter: the last layer of the profiling sweep
//! ([`crate::sweep`]).
//!
//! Two dense `|P|²` `f64` matrices take 4 GiB at `P = 16384`, even though
//! a clustered sweep only ever *measured* a handful of class values. The
//! scatter writes a [`CompressedCostModel`] instead: a `u16` pair-class
//! grid (2 bytes per cell, 512 MiB at `P = 16384`) plus per-class value
//! tables, never touching dense storage.
//!
//! The grid itself is produced **tile-at-a-time** (a tile is
//! [`SpillConfig::tile_rows`] consecutive rows) so the scatter's working
//! set beyond the final grid is bounded: finished tiles stage in memory
//! while total staged bytes fit [`SpillConfig::mem_budget_bytes`], and
//! overflow tiles stream to `tile_NNNNN.bin` files in a spill directory.
//! The final merge walks tile ids in ascending order — memory-staged and
//! spilled tiles interleave arbitrarily, but the merge order is the
//! production order, so the resulting grid is byte-identical regardless
//! of budget, tile size, or how many tiles spilled. Spill files are
//! deleted as they are consumed.
//!
//! Each cell's class comes from the classing itself
//! ([`PairClassing::class_of`] / [`PairClassing::diag_class_of`], a
//! lookup through per-rank sites), so the scatter never computes
//! features and needs neither the machine nor the extractor.
//!
//! The class space of the grid extends the classing's:
//!
//! * pair classes `0..n_pair` (the classing's indices, verbatim),
//! * diag classes `n_pair..n_pair + n_diag`,
//! * then one appended class per *exploded* member — pairs in ascending
//!   `(i, j)` scan order, diagonals in ascending rank order — carrying
//!   that member's exact measurement.
//!
//! Diagonal cells never share a class with off-diagonal cells (diag
//! classes are a disjoint id range), which is precisely the invariant
//! [`CompressedCostModel::from_parts`] enforces so its derived
//! [`hbar_topo::DistanceMetric`] can alias the grid zero-copy.
//!
//! `CompressedCostModel::to_dense()` of the result holds, at every entry,
//! the very `f64` the sweep measured for that entry's class (or member,
//! if exploded).

use crate::sweep::{ClassMeasurements, SweepError};
use hbar_core::clustering::PairClassing;
use hbar_topo::compressed::{CompressError, CompressedCostModel, MAX_CLASSES};
use rayon::prelude::*;
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;

/// Where and when scatter tiles spill to disk.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Spill directory; created lazily on first spill, so a run whose
    /// tiles all fit the budget never touches the filesystem.
    pub dir: PathBuf,
    /// Bytes of finished tiles allowed to stage in memory at once.
    /// Tiles that would exceed it are written to `dir` instead. The
    /// final grid allocation is *not* charged against this budget (it
    /// must exist in full for the model to be usable); the budget bounds
    /// the transient working set on top of it.
    pub mem_budget_bytes: usize,
    /// Rows per tile. Smaller tiles spill at finer granularity; larger
    /// tiles amortize i/o. The last tile may be shorter.
    pub tile_rows: usize,
}

impl SpillConfig {
    /// A configuration that stages everything in memory (no budget) —
    /// spill still available should the budget later be lowered.
    pub fn in_memory(dir: impl Into<PathBuf>) -> Self {
        SpillConfig {
            dir: dir.into(),
            mem_budget_bytes: usize::MAX,
            tile_rows: 256,
        }
    }

    /// A budgeted configuration with the default tile height.
    pub fn budgeted(dir: impl Into<PathBuf>, mem_budget_bytes: usize) -> Self {
        SpillConfig {
            mem_budget_bytes,
            ..SpillConfig::in_memory(dir)
        }
    }
}

/// What the tiled scatter did with its memory budget.
#[derive(Clone, Debug, Default)]
pub struct SpillReport {
    /// Tiles produced (== merged).
    pub tiles: usize,
    /// Tiles that overflowed the budget and went through the spill
    /// directory.
    pub spilled_tiles: usize,
    /// High-water mark of bytes staged in memory.
    pub staged_peak_bytes: usize,
    /// Total bytes written to spill files.
    pub spill_bytes: u64,
    /// Tile height the run used.
    pub tile_rows: usize,
}

/// Accepts finished tiles in production order, staging within the budget
/// and spilling the rest; then merges them back in tile-id order.
struct TileSink<'a> {
    cfg: &'a SpillConfig,
    staged: HashMap<usize, Vec<u16>>,
    staged_bytes: usize,
    dir_ready: bool,
    report: SpillReport,
}

impl<'a> TileSink<'a> {
    fn new(cfg: &'a SpillConfig) -> Self {
        TileSink {
            cfg,
            staged: HashMap::new(),
            staged_bytes: 0,
            dir_ready: false,
            report: SpillReport {
                tile_rows: cfg.tile_rows,
                ..SpillReport::default()
            },
        }
    }

    fn spill_path(&self, id: usize) -> PathBuf {
        self.cfg.dir.join(format!("tile_{id:05}.bin"))
    }

    fn push(&mut self, id: usize, tile: Vec<u16>) -> Result<(), SweepError> {
        debug_assert_eq!(id, self.report.tiles, "tiles must arrive in order");
        self.report.tiles += 1;
        let bytes = std::mem::size_of_val(tile.as_slice());
        if self.staged_bytes + bytes <= self.cfg.mem_budget_bytes {
            self.staged_bytes += bytes;
            self.report.staged_peak_bytes = self.report.staged_peak_bytes.max(self.staged_bytes);
            self.staged.insert(id, tile);
            return Ok(());
        }
        if !self.dir_ready {
            fs::create_dir_all(&self.cfg.dir)?;
            self.dir_ready = true;
        }
        let mut raw = Vec::with_capacity(bytes);
        for v in &tile {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        let mut f = fs::File::create(self.spill_path(id))?;
        f.write_all(&raw)?;
        self.report.spilled_tiles += 1;
        self.report.spill_bytes += bytes as u64;
        Ok(())
    }

    /// Reassembles the full `p × p` grid, consuming staged tiles and
    /// deleting spill files as it goes.
    fn merge(mut self, p: usize) -> Result<(Vec<u16>, SpillReport), SweepError> {
        let mut grid = vec![0u16; p * p];
        let mut offset = 0usize;
        let mut raw = Vec::new();
        for id in 0..self.report.tiles {
            let dst = &mut grid[offset..];
            let len = if let Some(tile) = self.staged.remove(&id) {
                dst[..tile.len()].copy_from_slice(&tile);
                self.staged_bytes -= std::mem::size_of_val(tile.as_slice());
                tile.len()
            } else {
                let path = self.spill_path(id);
                raw.clear();
                fs::File::open(&path)?.read_to_end(&mut raw)?;
                fs::remove_file(&path)?;
                if raw.len() % 2 != 0 {
                    return Err(SweepError::Protocol(format!(
                        "spill tile {id} holds {} bytes (odd)",
                        raw.len()
                    )));
                }
                for (cell, chunk) in dst.iter_mut().zip(raw.chunks_exact(2)) {
                    *cell = u16::from_le_bytes([chunk[0], chunk[1]]);
                }
                raw.len() / 2
            };
            offset += len;
        }
        if offset != p * p {
            return Err(SweepError::Protocol(format!(
                "tiles covered {offset} cells of a {p}×{p} grid"
            )));
        }
        Ok((grid, self.report))
    }
}

/// Scatters class measurements into a [`CompressedCostModel`], producing
/// the grid tile-at-a-time under `spill`'s memory budget. Tile contents
/// are computed row-parallel; tile order (and therefore the grid, and
/// therefore the model fingerprint) is deterministic.
///
/// The class-space check here counts exploded members too; the sweep
/// checks classing alone before measuring anything.
pub(crate) fn scatter_compressed_tiles(
    classing: &PairClassing,
    m: &ClassMeasurements,
    spill: &SpillConfig,
) -> Result<(CompressedCostModel, SpillReport), SweepError> {
    let p = classing.p();
    let n_pair = classing.pair_classes.len();
    let n_diag = classing.diag_classes.len();
    let needed = n_pair + n_diag + m.exploded_pairs.len() + m.exploded_diags.len();
    if needed > MAX_CLASSES {
        return Err(SweepError::Compress(CompressError::ClassOverflow {
            needed,
        }));
    }

    // Class space: pair classes, diag classes, then exploded members in
    // deterministic (sorted) order.
    let mut table_o = Vec::with_capacity(needed);
    let mut table_l = Vec::with_capacity(needed);
    for &(o, l) in &m.pair_estimates {
        table_o.push(o);
        table_l.push(l);
    }
    for &o in &m.diag_estimates {
        table_o.push(o);
        table_l.push(0.0);
    }
    let mut exploded_pair_ids: HashMap<(usize, usize), u16> =
        HashMap::with_capacity(m.exploded_pairs.len());
    let mut pair_keys: Vec<(usize, usize)> = m.exploded_pairs.keys().copied().collect();
    pair_keys.sort_unstable();
    for key in pair_keys {
        let (o, l) = m.exploded_pairs[&key];
        exploded_pair_ids.insert(key, table_o.len() as u16);
        table_o.push(o);
        table_l.push(l);
    }
    let mut exploded_diag_ids: HashMap<usize, u16> = HashMap::with_capacity(m.exploded_diags.len());
    let mut diag_keys: Vec<usize> = m.exploded_diags.keys().copied().collect();
    diag_keys.sort_unstable();
    for key in diag_keys {
        exploded_diag_ids.insert(key, table_o.len() as u16);
        table_o.push(m.exploded_diags[&key]);
        table_l.push(0.0);
    }

    // Tile production. Each cell asks the classing for its class; only
    // exploded members need their position, in the orientation the
    // classing scanned.
    let class_of_cell = |i: usize, j: usize| -> u16 {
        if i == j {
            let c = classing.diag_class_of(i);
            if m.explode_diag[c] {
                exploded_diag_ids[&i]
            } else {
                (n_pair + c) as u16
            }
        } else {
            let c = classing.class_of(i, j);
            if !m.explode_pair[c] {
                c as u16
            } else if classing.is_symmetric() {
                exploded_pair_ids[&(i.min(j), i.max(j))]
            } else {
                exploded_pair_ids[&(i, j)]
            }
        }
    };
    let tile_rows = spill.tile_rows.max(1);
    let mut sink = TileSink::new(spill);
    for (tile_id, start) in (0..p).step_by(tile_rows).enumerate() {
        let rows = tile_rows.min(p - start);
        // Row-parallel, each row written in place: every cell depends
        // only on its position, so the tile bytes are identical to a
        // sequential fill regardless of thread count.
        let mut tile = vec![0u16; rows * p];
        let row_slices: Vec<(usize, &mut [u16])> = (start..).zip(tile.chunks_mut(p)).collect();
        row_slices
            .into_par_iter()
            .map(|(i, row)| {
                for (j, cell) in row.iter_mut().enumerate() {
                    *cell = class_of_cell(i, j);
                }
            })
            .collect::<Vec<()>>();
        sink.push(tile_id, tile)?;
    }
    let (grid, report) = sink.merge(p)?;

    let model =
        CompressedCostModel::from_parts(p, grid, table_o, table_l).map_err(SweepError::Compress)?;
    Ok((model, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{sweep_locally, SweepConfig};
    use crate::NoiseModel;
    use hbar_core::clustering::{classify_pairs, ClassingConfig};
    use hbar_topo::cost::CostProvider;
    use hbar_topo::features::{
        ExactExtractor, PairFeatureExtractor, PairFeatures, RankFeatures, TopologyExtractor,
    };
    use hbar_topo::machine::MachineSpec;
    use hbar_topo::mapping::RankMapping;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static NONCE: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "hbar_scatter_{tag}_{}_{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// A topology extractor that counts its feature calls.
    #[derive(Default)]
    struct CountingExtractor {
        pair_calls: AtomicUsize,
        rank_calls: AtomicUsize,
    }

    impl PairFeatureExtractor for CountingExtractor {
        fn site(&self, machine: &MachineSpec, rank: usize, core: usize) -> u32 {
            TopologyExtractor::default().site(machine, rank, core)
        }

        fn pair_features(
            &self,
            machine: &MachineSpec,
            ranks: (usize, usize),
            cores: (usize, usize),
        ) -> PairFeatures {
            self.pair_calls.fetch_add(1, Ordering::Relaxed);
            TopologyExtractor::default().pair_features(machine, ranks, cores)
        }

        fn rank_features(&self, machine: &MachineSpec, rank: usize, core: usize) -> RankFeatures {
            self.rank_calls.fetch_add(1, Ordering::Relaxed);
            TopologyExtractor::default().rank_features(machine, rank, core)
        }

        fn noise_regime(&self) -> u16 {
            0
        }
    }

    #[test]
    fn classing_and_scatter_compute_features_once_per_site_relation() {
        // Dual-socket nodes: 2 sites, so at most 2 × 2 × 2 relations
        // `(site_i, site_j, same_node)` and 2 diagonal sites, at any P.
        let mut pair_calls = Vec::new();
        for p in [64, 4096] {
            let machine = MachineSpec::new(p / 8, 2, 4);
            let cores = RankMapping::Block.place(&machine, p);
            let ex = CountingExtractor::default();
            let classing = classify_pairs(&machine, &cores, p, &ex, &ClassingConfig::default());
            let (n_pair, n_diag) = (classing.pair_classes.len(), classing.diag_classes.len());
            let m = ClassMeasurements {
                pair_estimates: vec![(1e-6, 1e-7); n_pair],
                diag_estimates: vec![1e-7; n_diag],
                explode_pair: vec![false; n_pair],
                explode_diag: vec![false; n_diag],
                exploded_pairs: HashMap::new(),
                exploded_diags: HashMap::new(),
            };
            let spill = SpillConfig::in_memory(scratch_dir("counting"));
            let (model, _) = scatter_compressed_tiles(&classing, &m, &spill).unwrap();
            assert_eq!(model.classes(), 6);
            let calls = ex.pair_calls.load(Ordering::Relaxed);
            assert!(calls <= 8, "{calls} pair feature calls at P = {p}");
            assert!(ex.rank_calls.load(Ordering::Relaxed) <= 2);
            pair_calls.push(calls);
        }
        assert_eq!(pair_calls[0], pair_calls[1], "feature calls grew with P");
    }

    #[test]
    fn in_memory_scatter_stores_one_value_per_class() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let spill = SpillConfig::in_memory(scratch_dir("classes"));
        let (model, _, spill_report) = sweep_locally(
            &machine,
            &RankMapping::Block,
            16,
            NoiseModel::realistic(5),
            &SweepConfig::fast(),
            &spill,
        );
        assert_eq!(spill_report.spilled_tiles, 0);
        assert!(!spill.dir.exists(), "no-spill run must not touch disk");
        // The whole point: 4 pair + 2 diag classes instead of 16² values.
        assert_eq!(model.classes(), 6);
        assert!(model.is_symmetric());
    }

    #[test]
    fn spilled_tiles_reassemble_identically() {
        let machine = MachineSpec::dual_hex_cluster(3);
        let mapping = RankMapping::RoundRobin;
        let noise = NoiseModel::realistic(9);
        let cfg = SweepConfig::fast();
        let unspilled = SpillConfig::in_memory(scratch_dir("nospill"));
        let (a, _, ra) = sweep_locally(&machine, &mapping, 24, noise, &cfg, &unspilled);
        assert_eq!(ra.spilled_tiles, 0);
        // A budget below one tile (3 rows × 24 cols × 2 B = 144 B) forces
        // every tile through the spill directory.
        let spilled = SpillConfig {
            mem_budget_bytes: 100,
            tile_rows: 3,
            ..SpillConfig::in_memory(scratch_dir("allspill"))
        };
        let (b, _, rb) = sweep_locally(&machine, &mapping, 24, noise, &cfg, &spilled);
        assert_eq!(rb.tiles, 8);
        assert_eq!(rb.spilled_tiles, 8);
        assert_eq!(rb.spill_bytes, 24 * 24 * 2);
        assert_eq!(rb.staged_peak_bytes, 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.grid(), b.grid());
        // Spill files are consumed by the merge.
        assert_eq!(fs::read_dir(&spilled.dir).unwrap().count(), 0);
        fs::remove_dir_all(&spilled.dir).unwrap();
    }

    #[test]
    fn partial_budget_interleaves_staged_and_spilled_tiles() {
        let machine = MachineSpec::dual_quad_cluster(4);
        let mapping = RankMapping::Block;
        let noise = NoiseModel::realistic(2);
        let cfg = SweepConfig::fast();
        // 32 ranks, 4-row tiles → 8 tiles of 256 B; budget holds 2.
        let spill = SpillConfig {
            mem_budget_bytes: 512,
            tile_rows: 4,
            ..SpillConfig::in_memory(scratch_dir("mixed"))
        };
        let (mixed, _, report) = sweep_locally(&machine, &mapping, 32, noise, &cfg, &spill);
        assert_eq!(report.tiles, 8);
        assert_eq!(report.spilled_tiles, 6);
        assert_eq!(report.staged_peak_bytes, 512);
        let baseline = SpillConfig::in_memory(scratch_dir("mixed_base"));
        let (full, _, _) = sweep_locally(&machine, &mapping, 32, noise, &cfg, &baseline);
        assert_eq!(mixed.fingerprint(), full.fingerprint());
        assert_eq!(mixed.grid(), full.grid());
        fs::remove_dir_all(&spill.dir).unwrap();
    }

    #[test]
    fn class_overflow_is_reported_not_truncated() {
        // ExactExtractor at p = 384 yields 384·383/2 = 73 536 singleton
        // pair classes — past the u16 grid's 65 536. The sweep rejects
        // this before measuring; the scatter's own check (which also
        // counts exploded members) must refuse it too rather than
        // truncate ids. The measurement phase's output is synthesized.
        let machine = MachineSpec::new(48, 2, 4);
        let p = 384;
        let cores = RankMapping::Block.place(&machine, p);
        let extractor = ExactExtractor::default();
        let classing = classify_pairs(
            &machine,
            &cores,
            p,
            &extractor,
            &ClassingConfig {
                symmetric: true,
                probes_per_class: 0,
                probe_seed: 0,
            },
        );
        let n_pair = classing.pair_classes.len();
        assert!(n_pair > MAX_CLASSES);
        let m = ClassMeasurements {
            pair_estimates: vec![(1e-6, 1e-7); n_pair],
            diag_estimates: vec![1e-7; classing.diag_classes.len()],
            explode_pair: vec![false; n_pair],
            explode_diag: vec![false; classing.diag_classes.len()],
            exploded_pairs: HashMap::new(),
            exploded_diags: HashMap::new(),
        };
        let spill = SpillConfig::in_memory(scratch_dir("overflow"));
        let err = scatter_compressed_tiles(&classing, &m, &spill).expect_err("must overflow");
        match err {
            SweepError::Compress(CompressError::ClassOverflow { needed }) => {
                assert_eq!(needed, n_pair + classing.diag_classes.len());
            }
            other => panic!("wrong error: {other}"),
        }
    }
}
