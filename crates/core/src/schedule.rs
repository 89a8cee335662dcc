//! Barrier schedules: ordered sequences of incidence-matrix stages.
//!
//! §V-A of the paper: "we choose to represent an overall algorithm as a
//! sequence of steps 0, 1, …, k, in which each process may signal any
//! combination of other processes, where the signals sent in each step
//! must be received before subsequent steps can begin."
//!
//! Each [`Stage`] carries its incidence matrix plus the [`SendMode`] the
//! cost model should apply: arrival phases use Eq. 1 (receivers may still
//! be computing), departure phases use Eq. 2 (receivers are known to block
//! inside the barrier already).

use hbar_matrix::{BoolMatrix, StageSignals};
use hbar_topo::cost::SendMode;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// One step of a barrier: who signals whom, and under which cost equation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage {
    pub matrix: BoolMatrix,
    pub mode: SendMode,
}

impl Stage {
    /// An arrival-phase stage (Eq. 1 cost).
    pub fn arrival(matrix: BoolMatrix) -> Self {
        Stage {
            matrix,
            mode: SendMode::General,
        }
    }

    /// A departure-phase stage (Eq. 2 cost).
    pub fn departure(matrix: BoolMatrix) -> Self {
        Stage {
            matrix,
            mode: SendMode::ReceiversAwaiting,
        }
    }
}

/// A [`Stage`] lowered to compressed sparse row form: the active senders
/// and their ascending target lists, materialized once per stage so hot
/// prediction loops never re-collect `row_iter` per call.
#[derive(Clone, Debug)]
pub struct CompiledStage {
    /// Cost equation of the source stage.
    pub mode: SendMode,
    n: usize,
    senders: Vec<usize>,
    target_offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl CompiledStage {
    fn compile(stage: &Stage) -> Self {
        let n = stage.matrix.n();
        let mut senders = Vec::new();
        let mut target_offsets = vec![0];
        let mut targets = Vec::new();
        let mut row = Vec::new();
        for i in 0..n {
            stage.matrix.row_targets_into(i, &mut row);
            if row.is_empty() {
                continue;
            }
            senders.push(i);
            targets.extend_from_slice(&row);
            target_offsets.push(targets.len());
        }
        CompiledStage {
            mode: stage.mode,
            n,
            senders,
            target_offsets,
            targets,
        }
    }

    /// Ranks with at least one outgoing signal, ascending.
    pub fn senders(&self) -> &[usize] {
        &self.senders
    }

    /// Ascending targets of the `k`-th active sender.
    pub fn targets_of(&self, k: usize) -> &[usize] {
        &self.targets[self.target_offsets[k]..self.target_offsets[k + 1]]
    }

    /// Iterates `(sender, targets)` pairs in ascending sender order.
    pub fn sends(&self) -> impl Iterator<Item = (usize, &[usize])> + '_ {
        self.senders
            .iter()
            .enumerate()
            .map(move |(k, &i)| (i, self.targets_of(k)))
    }

    /// Bytes of heap behind the CSR vectors.
    pub fn heap_bytes(&self) -> usize {
        (self.senders.capacity() + self.target_offsets.capacity() + self.targets.capacity())
            * std::mem::size_of::<usize>()
    }
}

/// The Eq. 3 closure reads a compiled stage's signals straight from the
/// CSR, without scanning the stage matrix.
impl StageSignals for CompiledStage {
    fn n(&self) -> usize {
        self.n
    }

    fn for_each_signal<F: FnMut(usize, usize)>(&self, mut f: F) {
        for (i, targets) in self.sends() {
            for &j in targets {
                f(i, j);
            }
        }
    }
}

/// A complete signal pattern for `n` processes.
///
/// Carries a lazily compiled CSR view of its stages (see
/// [`Self::compiled`]); the cache never participates in equality,
/// cloning, or serialization, and every mutation resets it.
pub struct BarrierSchedule {
    n: usize,
    stages: Vec<Stage>,
    compiled: OnceLock<Vec<CompiledStage>>,
}

impl Clone for BarrierSchedule {
    fn clone(&self) -> Self {
        BarrierSchedule {
            n: self.n,
            stages: self.stages.clone(),
            compiled: OnceLock::new(),
        }
    }
}

impl fmt::Debug for BarrierSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BarrierSchedule")
            .field("n", &self.n)
            .field("stages", &self.stages)
            .finish()
    }
}

impl PartialEq for BarrierSchedule {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.stages == other.stages
    }
}

impl Eq for BarrierSchedule {}

impl Serialize for BarrierSchedule {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("n".to_string(), self.n.to_value()),
            ("stages".to_string(), self.stages.to_value()),
        ])
    }
}

impl Deserialize for BarrierSchedule {
    fn from_value(value: &serde::Value) -> Result<Self, String> {
        Ok(BarrierSchedule {
            n: Deserialize::from_value(serde::__field(value, "n", "BarrierSchedule")?)?,
            stages: Deserialize::from_value(serde::__field(value, "stages", "BarrierSchedule")?)?,
            compiled: OnceLock::new(),
        })
    }
}

impl BarrierSchedule {
    /// An empty schedule over `n` processes.
    pub fn new(n: usize) -> Self {
        BarrierSchedule {
            n,
            stages: Vec::new(),
            compiled: OnceLock::new(),
        }
    }

    /// Builds from arrival-phase matrices (all stages get Eq. 1 mode).
    pub fn from_arrival_matrices(n: usize, matrices: Vec<BoolMatrix>) -> Self {
        let mut s = Self::new(n);
        for m in matrices {
            s.push(Stage::arrival(m));
        }
        s
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if the schedule has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stages in execution order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The CSR-compiled stages, materialized on first use and cached
    /// until the next mutation. Compilation walks matrix rows a whole
    /// word at a time ([`BoolMatrix::row_targets_into`]), so repeated
    /// cost predictions over an unchanged schedule allocate nothing and
    /// never re-scan the bitsets.
    pub fn compiled(&self) -> &[CompiledStage] {
        self.compiled
            .get_or_init(|| self.stages.iter().map(CompiledStage::compile).collect())
    }

    /// Just the incidence matrices, in execution order.
    pub fn matrices(&self) -> Vec<&BoolMatrix> {
        self.stages.iter().map(|s| &s.matrix).collect()
    }

    /// Bytes of heap this schedule holds: the stage vector, every
    /// stage's packed incidence words, and — when materialized — the
    /// compiled CSR cache's sender/offset/target vectors. Cache budgets
    /// that retain schedules must charge this, not
    /// `size_of::<BarrierSchedule>()`; at P = 4096 one stage's matrix
    /// alone is 2 MiB against a 56-byte struct.
    pub fn heap_bytes(&self) -> usize {
        let stages = self.stages.capacity() * std::mem::size_of::<Stage>()
            + self
                .stages
                .iter()
                .map(|s| s.matrix.heap_bytes())
                .sum::<usize>();
        let compiled = self.compiled.get().map_or(0, |c| {
            c.capacity() * std::mem::size_of::<CompiledStage>()
                + c.iter().map(CompiledStage::heap_bytes).sum::<usize>()
        });
        stages + compiled
    }

    /// Appends a stage.
    ///
    /// # Panics
    /// Panics on dimension mismatch or if any process signals itself.
    pub fn push(&mut self, stage: Stage) {
        assert_eq!(stage.matrix.n(), self.n, "stage dimension mismatch");
        if let Some(i) = stage.matrix.first_self_loop() {
            panic!("rank {i} signals itself");
        }
        self.compiled.take();
        self.stages.push(stage);
    }

    /// Appends all stages of `other`.
    pub fn append(&mut self, other: &BarrierSchedule) {
        assert_eq!(other.n, self.n, "schedule dimension mismatch");
        self.compiled.take();
        for s in &other.stages {
            self.stages.push(s.clone());
        }
    }

    /// Appends all stages of `other`, taking ownership — [`Self::append`]
    /// without cloning each stage matrix.
    pub fn append_owned(&mut self, other: BarrierSchedule) {
        assert_eq!(other.n, self.n, "schedule dimension mismatch");
        self.compiled.take();
        self.stages.extend(other.stages);
    }

    /// Total number of signals across all stages.
    pub fn total_signals(&self) -> usize {
        self.stages.iter().map(|s| s.matrix.popcount()).sum()
    }

    /// The departure sequence implied by this arrival sequence: the same
    /// matrices transposed, applied in reverse order (paper §V-B), marked
    /// with Eq. 2 mode. `skip_last` drops that many trailing arrival stages
    /// from the transposition — used when the root level is a dissemination
    /// barrier, whose stages require no departure (§VII-B).
    pub fn departure_reversed(&self, skip_last: usize) -> BarrierSchedule {
        assert!(
            skip_last <= self.stages.len(),
            "cannot skip {skip_last} of {} stages",
            self.stages.len()
        );
        let mut out = BarrierSchedule::new(self.n);
        let take = self.stages.len() - skip_last;
        for s in self.stages[..take].iter().rev() {
            out.push(Stage::departure(s.matrix.transpose()));
        }
        out
    }

    /// Removes stages whose matrices are entirely zero ("eliminate no-op
    /// transmission steps", §VII-C), returning how many were removed.
    pub fn strip_noop_stages(&mut self) -> usize {
        self.compiled.take();
        let before = self.stages.len();
        self.stages.retain(|s| !s.matrix.is_zero());
        before - self.stages.len()
    }

    /// ORs `other`'s stages into this schedule starting at stage
    /// `offset`, extending this schedule if needed. Both operands must
    /// agree on stage modes where they overlap. This is the "merge shorter
    /// sequences with longer ones as early as possible" operation of
    /// §VII-B: concurrent local barriers are embedded into a single global
    /// stage sequence aligned at their first stage.
    ///
    /// # Panics
    /// Panics if overlapping stages disagree on mode, or if the merged
    /// matrices would have a rank signalling itself.
    pub fn merge_overlay(&mut self, other: &BarrierSchedule, offset: usize) {
        assert_eq!(other.n, self.n, "schedule dimension mismatch");
        self.compiled.take();
        for (k, s) in other.stages.iter().enumerate() {
            let idx = offset + k;
            if idx < self.stages.len() {
                assert_eq!(
                    self.stages[idx].mode, s.mode,
                    "mode mismatch merging stage {k} at offset {offset}"
                );
                self.stages[idx].matrix.or_assign(&s.matrix);
            } else {
                // Pad with empty stages if the offset skips past the end.
                while self.stages.len() < idx {
                    self.stages.push(Stage {
                        matrix: BoolMatrix::zeros(self.n),
                        mode: s.mode,
                    });
                }
                self.stages.push(s.clone());
            }
        }
    }

    /// ORs an arrival stage given over local ranks `0..members.len()`
    /// into stage `idx`, mapping local rank `a` to global rank
    /// `members[a]` and extending the schedule with empty arrival stages
    /// as needed. Equivalent to [`Self::merge_overlay`] of a schedule
    /// holding `local.embed(n, members)`, but writes only the embedded
    /// signals — the hierarchical composer's stages are zero outside one
    /// cluster's rows, so materializing and scanning the full `n × n`
    /// embedding per tree node dominated tuning at large P.
    ///
    /// # Panics
    /// Panics if stage `idx` exists with departure mode, if `members`
    /// maps two local ranks to one global rank (a rank would signal
    /// itself), or if an index is out of range.
    pub fn or_embed_arrival(&mut self, idx: usize, local: &BoolMatrix, members: &[usize]) {
        assert_eq!(local.n(), members.len(), "local stage / member mismatch");
        self.compiled.take();
        while self.stages.len() <= idx {
            self.stages.push(Stage::arrival(BoolMatrix::zeros(self.n)));
        }
        let stage = &mut self.stages[idx];
        assert_eq!(
            stage.mode,
            SendMode::General,
            "arrival signals merged into a departure stage {idx}"
        );
        for a in 0..local.n() {
            let src = members[a];
            for b in local.row_iter(a) {
                let dst = members[b];
                assert_ne!(src, dst, "rank {src} signals itself");
                stage.matrix.set(src, dst, true);
            }
        }
    }

    /// The ranks that participate (send or receive) in any stage.
    pub fn participants(&self) -> Vec<usize> {
        let mut active = vec![false; self.n];
        // Receivers of a stage are the union of its rows; OR the rows into
        // one scratch row instead of walking individual edges.
        let mut union: Vec<u64> = Vec::new();
        for s in &self.stages {
            union.clear();
            union.resize(self.n.div_ceil(64).max(1), 0);
            for (i, is_active) in active.iter_mut().enumerate() {
                let row = s.matrix.row(i);
                if row.iter().any(|&w| w != 0) {
                    *is_active = true;
                    for (u, &w) in union.iter_mut().zip(row) {
                        *u |= w;
                    }
                }
            }
            for (w_idx, &word) in union.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let j = w_idx * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    active[j] = true;
                }
            }
        }
        (0..self.n).filter(|&r| active[r]).collect()
    }

    /// Verifies the schedule synchronizes all `n` processes (Eq. 3).
    pub fn is_barrier(&self) -> bool {
        crate::verify::is_barrier(self)
    }
}

impl fmt::Display for BarrierSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "BarrierSchedule over {} ranks, {} stages:",
            self.n,
            self.stages.len()
        )?;
        for (k, s) in self.stages.iter().enumerate() {
            let mode = match s.mode {
                SendMode::General => "arrival",
                SendMode::ReceiversAwaiting => "departure",
            };
            writeln!(f, "S{k} ({mode}, {} signals):", s.matrix.popcount())?;
            writeln!(f, "{}", s.matrix)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear(n: usize) -> BarrierSchedule {
        let mut s0 = BoolMatrix::zeros(n);
        for i in 1..n {
            s0.set(i, 0, true);
        }
        let s1 = s0.transpose();
        let mut sched = BarrierSchedule::new(n);
        sched.push(Stage::arrival(s0));
        sched.push(Stage::departure(s1));
        sched
    }

    #[test]
    fn push_and_accessors() {
        let sched = linear(4);
        assert_eq!(sched.n(), 4);
        assert_eq!(sched.len(), 2);
        assert_eq!(sched.total_signals(), 6);
        assert_eq!(sched.stages()[0].mode, SendMode::General);
        assert_eq!(sched.stages()[1].mode, SendMode::ReceiversAwaiting);
    }

    #[test]
    #[should_panic(expected = "signals itself")]
    fn self_signal_rejected() {
        let mut sched = BarrierSchedule::new(3);
        let mut m = BoolMatrix::zeros(3);
        m.set(1, 1, true);
        sched.push(Stage::arrival(m));
    }

    #[test]
    fn departure_reversed_transposes_in_reverse() {
        let mut sched = BarrierSchedule::new(4);
        let a = BoolMatrix::from_edges(4, &[(1, 0), (3, 2)]);
        let b = BoolMatrix::from_edges(4, &[(2, 0)]);
        sched.push(Stage::arrival(a.clone()));
        sched.push(Stage::arrival(b.clone()));
        let dep = sched.departure_reversed(0);
        assert_eq!(dep.len(), 2);
        assert_eq!(dep.stages()[0].matrix, b.transpose());
        assert_eq!(dep.stages()[1].matrix, a.transpose());
        assert!(dep
            .stages()
            .iter()
            .all(|s| s.mode == SendMode::ReceiversAwaiting));
    }

    #[test]
    fn departure_reversed_can_skip_root_stages() {
        let mut sched = BarrierSchedule::new(4);
        let a = BoolMatrix::from_edges(4, &[(1, 0)]);
        let b = BoolMatrix::from_edges(4, &[(0, 1), (1, 0)]); // "root dissemination"
        sched.push(Stage::arrival(a.clone()));
        sched.push(Stage::arrival(b));
        let dep = sched.departure_reversed(1);
        assert_eq!(dep.len(), 1);
        assert_eq!(dep.stages()[0].matrix, a.transpose());
    }

    #[test]
    fn strip_noop_removes_empty_stages() {
        let mut sched = BarrierSchedule::new(3);
        sched.push(Stage::arrival(BoolMatrix::zeros(3)));
        sched.push(Stage::arrival(BoolMatrix::from_edges(3, &[(1, 0)])));
        sched.push(Stage::arrival(BoolMatrix::zeros(3)));
        assert_eq!(sched.strip_noop_stages(), 2);
        assert_eq!(sched.len(), 1);
    }

    #[test]
    fn merge_overlay_aligns_at_offset_zero() {
        // A 1-stage linear arrival merges into the first of 3 tree stages
        // (the Fig. 10 situation).
        let mut long = BarrierSchedule::new(6);
        long.push(Stage::arrival(BoolMatrix::from_edges(6, &[(1, 0)])));
        long.push(Stage::arrival(BoolMatrix::from_edges(6, &[(2, 0)])));
        long.push(Stage::arrival(BoolMatrix::from_edges(6, &[(3, 0)])));
        let mut short = BarrierSchedule::new(6);
        short.push(Stage::arrival(BoolMatrix::from_edges(6, &[(5, 4)])));
        long.merge_overlay(&short, 0);
        assert_eq!(long.len(), 3);
        assert!(
            long.stages()[0].matrix.get(5, 4),
            "short stage embedded early"
        );
        assert!(long.stages()[0].matrix.get(1, 0));
        assert!(!long.stages()[1].matrix.get(5, 4));
    }

    #[test]
    fn merge_overlay_extends_when_longer() {
        let mut a = BarrierSchedule::new(4);
        a.push(Stage::arrival(BoolMatrix::from_edges(4, &[(1, 0)])));
        let mut b = BarrierSchedule::new(4);
        b.push(Stage::arrival(BoolMatrix::from_edges(4, &[(3, 2)])));
        b.push(Stage::arrival(BoolMatrix::from_edges(4, &[(2, 0)])));
        a.merge_overlay(&b, 0);
        assert_eq!(a.len(), 2);
        assert!(a.stages()[0].matrix.get(1, 0) && a.stages()[0].matrix.get(3, 2));
        assert!(a.stages()[1].matrix.get(2, 0));
    }

    #[test]
    fn merge_overlay_with_offset_pads() {
        let mut a = BarrierSchedule::new(3);
        let mut b = BarrierSchedule::new(3);
        b.push(Stage::arrival(BoolMatrix::from_edges(3, &[(1, 0)])));
        a.merge_overlay(&b, 2);
        assert_eq!(a.len(), 3);
        assert!(a.stages()[0].matrix.is_zero());
        assert!(a.stages()[1].matrix.is_zero());
        assert!(a.stages()[2].matrix.get(1, 0));
    }

    #[test]
    #[should_panic(expected = "mode mismatch")]
    fn merge_overlay_mode_conflict_panics() {
        let mut a = BarrierSchedule::new(3);
        a.push(Stage::arrival(BoolMatrix::from_edges(3, &[(1, 0)])));
        let mut b = BarrierSchedule::new(3);
        b.push(Stage::departure(BoolMatrix::from_edges(3, &[(2, 0)])));
        a.merge_overlay(&b, 0);
    }

    #[test]
    fn or_embed_arrival_matches_merge_overlay_of_embed() {
        // A 3-rank local tree stage lifted onto global ranks {1, 4, 5} of
        // an 8-rank system, at offset 2 — via both the materializing path
        // and the direct-write path.
        let members = [1usize, 4, 5];
        let local = BoolMatrix::from_edges(3, &[(1, 0), (2, 0)]);
        let mut via_overlay = BarrierSchedule::new(8);
        let mut embedded = BarrierSchedule::new(8);
        embedded.push(Stage::arrival(local.embed(8, &members)));
        via_overlay.merge_overlay(&embedded, 2);
        let mut direct = BarrierSchedule::new(8);
        direct.or_embed_arrival(2, &local, &members);
        assert_eq!(direct.len(), 3);
        for (a, b) in direct.stages().iter().zip(via_overlay.stages()) {
            assert_eq!(a, b);
        }
        // ORing into an existing stage unions rather than replaces.
        direct.or_embed_arrival(2, &BoolMatrix::from_edges(2, &[(1, 0)]), &[6, 7]);
        assert!(direct.stages()[2].matrix.get(7, 6));
        assert!(direct.stages()[2].matrix.get(4, 1));
    }

    #[test]
    #[should_panic(expected = "departure stage")]
    fn or_embed_arrival_rejects_departure_stage() {
        let mut sched = BarrierSchedule::new(4);
        sched.push(Stage::departure(BoolMatrix::from_edges(4, &[(0, 1)])));
        sched.or_embed_arrival(0, &BoolMatrix::from_edges(2, &[(1, 0)]), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "signals itself")]
    fn or_embed_arrival_rejects_duplicate_members() {
        let mut sched = BarrierSchedule::new(4);
        sched.or_embed_arrival(0, &BoolMatrix::from_edges(2, &[(1, 0)]), &[2, 2]);
    }

    #[test]
    fn append_owned_matches_append() {
        let mut a = linear(4);
        let mut b = a.clone();
        let extra =
            BarrierSchedule::from_arrival_matrices(4, vec![BoolMatrix::from_edges(4, &[(3, 1)])]);
        a.append(&extra);
        b.append_owned(extra.clone());
        assert_eq!(a.stages(), b.stages());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn participants_lists_active_ranks() {
        let mut sched = BarrierSchedule::new(6);
        sched.push(Stage::arrival(BoolMatrix::from_edges(6, &[(1, 0), (4, 3)])));
        assert_eq!(sched.participants(), vec![0, 1, 3, 4]);
    }

    #[test]
    fn linear_schedule_is_barrier() {
        assert!(linear(5).is_barrier());
        let mut arrival_only = BarrierSchedule::new(5);
        let mut s0 = BoolMatrix::zeros(5);
        for i in 1..5 {
            s0.set(i, 0, true);
        }
        arrival_only.push(Stage::arrival(s0));
        assert!(!arrival_only.is_barrier());
    }

    #[test]
    fn compiled_matches_row_iter() {
        let sched = linear(5);
        let c = sched.compiled();
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].senders(), &[1, 2, 3, 4]);
        assert_eq!(c[0].mode, SendMode::General);
        for (k, &i) in c[0].senders().iter().enumerate() {
            let expect: Vec<usize> = sched.stages()[0].matrix.row_iter(i).collect();
            assert_eq!(c[0].targets_of(k), expect.as_slice());
        }
        assert_eq!(c[1].senders(), &[0]);
        assert_eq!(c[1].targets_of(0), &[1, 2, 3, 4]);
        assert_eq!(c[1].mode, SendMode::ReceiversAwaiting);
        let sends: Vec<(usize, Vec<usize>)> =
            c[0].sends().map(|(i, ts)| (i, ts.to_vec())).collect();
        assert_eq!(sends.len(), 4);
        assert!(sends.iter().all(|(_, ts)| ts == &[0]));
    }

    #[test]
    fn mutation_invalidates_compiled_cache() {
        let mut sched = linear(5);
        assert_eq!(sched.compiled().len(), 2);
        sched.push(Stage::arrival(BoolMatrix::from_edges(5, &[(2, 3)])));
        assert_eq!(sched.compiled().len(), 3);
        let mut overlay = BarrierSchedule::new(5);
        overlay.push(Stage::arrival(BoolMatrix::from_edges(5, &[(4, 2)])));
        sched.merge_overlay(&overlay, 2);
        assert!(sched.compiled()[2]
            .sends()
            .any(|(i, ts)| i == 4 && ts == [2]));
        let mut tail = BarrierSchedule::new(5);
        tail.push(Stage::arrival(BoolMatrix::zeros(5)));
        sched.append(&tail);
        assert_eq!(sched.compiled().len(), 4);
        sched.strip_noop_stages();
        assert_eq!(sched.compiled().len(), 3);
    }

    #[test]
    fn clone_equality_and_serde_ignore_cache() {
        let sched = linear(4);
        let _ = sched.compiled(); // populate the cache
        let copy = sched.clone();
        assert_eq!(copy, sched);
        let back = BarrierSchedule::from_value(&sched.to_value()).expect("round trip");
        assert_eq!(back, sched);
        assert!(back.is_barrier());
    }

    #[test]
    fn heap_bytes_follows_stages_and_compiled_cache() {
        let mut sched = BarrierSchedule::new(256);
        assert_eq!(sched.heap_bytes(), 0, "empty schedule holds no heap");
        let mut m = BoolMatrix::zeros(256);
        for i in 1..256 {
            m.set(i, 0, true);
        }
        sched.push(Stage::arrival(m));
        let base = sched.heap_bytes();
        // One 256×256 stage packs 256 rows × 4 words × 8 bytes of bitset.
        assert!(base >= 256 * 4 * 8, "bitset storage uncounted: {base}");
        let _ = sched.compiled();
        let with_csr = sched.heap_bytes();
        assert!(with_csr > base, "compiled CSR cache uncounted");
        // A mutation drops the CSR cache; accounting must follow.
        sched.push(Stage::arrival(BoolMatrix::zeros(256)));
        assert!(
            sched.heap_bytes() < with_csr + 256 * 4 * 8,
            "stale CSR share still counted after invalidation"
        );
    }

    #[test]
    fn display_mentions_modes() {
        let text = format!("{}", linear(3));
        assert!(text.contains("arrival"));
        assert!(text.contains("departure"));
    }
}
