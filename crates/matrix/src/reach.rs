//! Knowledge-closure computations for barrier verification.
//!
//! The paper's Eq. 3 tracks which arrivals each process knows about after
//! every stage: starting from `K₋₁ = I` (each process knows of its own
//! arrival), each stage `S_a` propagates knowledge along its signals:
//!
//! ```text
//! K_a = K_{a-1} + K_{a-1} · S_a        (boolean semiring)
//! ```
//!
//! A stage sequence is a barrier iff the final `K_k` is the all-ones matrix.
//! In the paper's orientation `K[i][j]` set means *j knows that i arrived*,
//! because a signal `i → j` carries everything its sender knows.
//!
//! **Receiver-major kernel.** Everything here runs on the transpose: row
//! `j` of the working matrix is the set of arrivals rank `j` knows. In
//! that form Eq. 3 is one sparse update per signal: for every signal
//! `i → j` of stage `a`, OR row `i` of the snapshot `K_{a-1}` into row
//! `j`. A stage costs one row-block snapshot plus
//! O(signals · ⌈P/64⌉) word ORs, where the dense product costs
//! O(P · |known| · ⌈P/64⌉); a stage carries about P signals of the P²
//! possible ones, so the saving grows with P. Signals come from any
//! [`StageSignals`] source: a stage matrix, or a schedule's compiled CSR
//! stages, which spare the kernel the O(P · ⌈P/64⌉) matrix scan.
//!
//! **Saturation.** A full row stays full (knowledge only grows), so a
//! receiver whose row is already all-ones is skipped, and a closure stops
//! reading stages once every row is full: all-ones is a fixed point.
//!
//! **Trace.** [`KnowledgeTrace`] runs the same kernel and keeps, per
//! stage, a copy of each row the stage changed plus a table naming every
//! row's current copy, so its memory follows the signals, not
//! stages × P².
//!
//! **Orientation at the edges.** Callers that hand a whole matrix out
//! ([`knowledge_closure`], [`ClosureWorkspace::closure`]) transpose once
//! at the end and keep the paper's `K[i][j]` orientation.
//! [`KnowledgeTrace::last`] and [`ClosureWorkspace::closure_excluding`]
//! stay receiver-major, so they compare against each other directly, and
//! [`KnowledgeTrace::knows`] reads a trace state without exposing its
//! layout.

use crate::BoolMatrix;

/// A stage's signals as the closure kernel reads them. A [`BoolMatrix`]
/// scans its rows; a sparse form (a schedule's compiled CSR stages)
/// lists them directly and spares the kernel the scan.
pub trait StageSignals {
    /// Number of ranks the stage spans.
    fn n(&self) -> usize;

    /// Calls `f(i, j)` once for every signal `i → j`.
    fn for_each_signal<F: FnMut(usize, usize)>(&self, f: F);
}

impl StageSignals for BoolMatrix {
    fn n(&self) -> usize {
        BoolMatrix::n(self)
    }

    fn for_each_signal<F: FnMut(usize, usize)>(&self, mut f: F) {
        for i in 0..self.n() {
            // Most ranks are silent in a given stage: skip their rows
            // with one vectorizable test before walking bits.
            if self.row(i).iter().all(|&w| w == 0) {
                continue;
            }
            for j in self.row_iter(i) {
                f(i, j);
            }
        }
    }
}

/// Marks a trace row that never received a signal: the identity row.
const IDENTITY_ROW: u32 = u32::MAX;

/// Append-only store of row versions in fixed 1 MiB blocks: it grows by
/// whole blocks, so no allocation outgrows a block or is copied to grow,
/// and at most one block is partly empty. Blocks are reused across
/// traces of the same width.
#[derive(Clone, Debug)]
struct RowBlocks {
    blocks: Vec<Vec<u64>>,
    block_words: usize,
    words_per_row: usize,
    rows_per_block: usize,
    len: usize,
}

impl RowBlocks {
    fn new() -> Self {
        RowBlocks {
            blocks: Vec::new(),
            block_words: 1 << 17,
            words_per_row: 0,
            rows_per_block: 1,
            len: 0,
        }
    }

    /// Empties the store for rows of `words_per_row` words.
    fn reset(&mut self, words_per_row: usize) {
        if words_per_row != self.words_per_row {
            self.blocks.clear();
            self.words_per_row = words_per_row;
            self.rows_per_block = (self.block_words / words_per_row.max(1)).max(1);
        }
        self.len = 0;
    }

    /// Appends a copy of `row` and returns its index.
    fn push(&mut self, row: &[u64]) -> u32 {
        let (block, offset) = (
            self.len / self.rows_per_block,
            self.len % self.rows_per_block,
        );
        if block == self.blocks.len() {
            self.blocks
                .push(Vec::with_capacity(self.rows_per_block * self.words_per_row));
        }
        let words = &mut self.blocks[block];
        words.truncate(offset * self.words_per_row);
        words.extend_from_slice(row);
        self.len += 1;
        (self.len - 1) as u32
    }

    fn row(&self, index: u32) -> &[u64] {
        let index = index as usize;
        let start = (index % self.rows_per_block) * self.words_per_row;
        &self.blocks[index / self.rows_per_block][start..start + self.words_per_row]
    }
}

/// The per-stage knowledge states of a stage sequence, from the identity
/// (before any stage) to the final knowledge.
///
/// States are receiver-major (row `j`: the arrivals rank `j` knows) and
/// stored as row versions: a stage records a copy of each row it changed,
/// and state `a` is a table naming the version of every row. Memory is
/// O(P · stages) slot indices plus one row per (receiver, stage) pair
/// that changed — not one P² matrix per stage. Read states through
/// [`KnowledgeTrace::knows`].
#[derive(Clone, Debug)]
pub struct KnowledgeTrace {
    /// Runs the closure; after a trace its `K` is the final state.
    ws: ClosureWorkspace,
    n: usize,
    stages: usize,
    /// Every row version a stage recorded.
    rows: RowBlocks,
    /// `slots[a * n + j]`: the version of row `j` in state `a`, or
    /// [`IDENTITY_ROW`].
    slots: Vec<u32>,
    complete_at: Option<usize>,
}

impl KnowledgeTrace {
    /// Creates an empty trace; populate it with
    /// [`KnowledgeTrace::recompute`].
    pub fn new() -> Self {
        KnowledgeTrace {
            ws: ClosureWorkspace::new(),
            n: 0,
            stages: 0,
            rows: RowBlocks::new(),
            slots: Vec::new(),
            complete_at: None,
        }
    }

    /// Number of stages traced; states run from `0` (the identity, before
    /// stage 0) to `stages()` (the final knowledge).
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// True iff `rank` knows of `arrival`'s arrival before stage `stage`
    /// (`stage == self.stages()` asks about the final knowledge).
    ///
    /// # Panics
    /// Panics if `stage > self.stages()` or a rank is out of range.
    pub fn knows(&self, stage: usize, rank: usize, arrival: usize) -> bool {
        assert!(
            stage <= self.stages() && rank < self.n && arrival < self.n,
            "state {stage}, ranks ({rank}, {arrival}) out of range"
        );
        match self.slots[stage * self.n + rank] {
            IDENTITY_ROW => rank == arrival,
            slot => self.rows.row(slot)[arrival / 64] >> (arrival % 64) & 1 == 1,
        }
    }

    /// Final knowledge, receiver-major (row `j`: the arrivals `j` knows).
    pub fn last(&self) -> &BoolMatrix {
        &self.ws.k
    }

    /// True if the traced sequence synchronizes all processes.
    pub fn is_barrier(&self) -> bool {
        self.last().is_all_true()
    }

    /// The first stage index after which knowledge is complete, if any.
    /// (`Some(0)` would mean complete after stage 0.)
    pub fn first_complete_stage(&self) -> Option<usize> {
        self.complete_at
    }

    /// Recomputes the trace over `stages` in place — the reusable-buffer
    /// mode: a tuner tracing many candidate schedules of similar size
    /// allocates only on its first trace.
    pub fn recompute<'a, S, I>(&mut self, n: usize, stages: I)
    where
        S: StageSignals + 'a,
        I: IntoIterator<Item = &'a S>,
    {
        self.n = n;
        self.stages = 0;
        self.rows.reset(n.div_ceil(64).max(1));
        self.slots.clear();
        self.slots.resize(n, IDENTITY_ROW);
        self.complete_at = None;
        let mut saturated_rows = self.ws.start(n);
        for (a, s) in stages.into_iter().enumerate() {
            assert_eq!(s.n(), n, "stage dimension {} != {}", s.n(), n);
            // State a + 1 starts as state a; full rows never change, so
            // once every row is full the states are plain copies.
            let base = a * n;
            self.slots.extend_from_within(base..base + n);
            if saturated_rows < n {
                saturated_rows += self.ws.step(s, None);
                let (prev, next) = self.slots[base..].split_at_mut(n);
                for &j in &self.ws.touched {
                    if next[j] == prev[j] {
                        next[j] = self.rows.push(self.ws.k.row(j));
                    }
                }
            }
            self.stages += 1;
            if saturated_rows == n && self.complete_at.is_none() {
                self.complete_at = Some(a);
            }
        }
    }
}

impl Default for KnowledgeTrace {
    fn default() -> Self {
        Self::new()
    }
}

/// Reusable scratch for allocation-free knowledge closures.
///
/// Owns the evolving receiver-major `K`, its per-stage snapshot, the
/// transposed result [`Self::closure`] hands out, per-row saturation
/// flags and the rows the last stage touched; after the first run on a
/// given size, closures never touch the allocator.
#[derive(Clone, Debug)]
pub struct ClosureWorkspace {
    k: BoolMatrix,
    prev: BoolMatrix,
    out: BoolMatrix,
    saturated: Vec<bool>,
    touched: Vec<usize>,
}

impl ClosureWorkspace {
    pub fn new() -> Self {
        ClosureWorkspace {
            k: BoolMatrix::zeros(0),
            prev: BoolMatrix::zeros(0),
            out: BoolMatrix::zeros(0),
            saturated: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Runs the Eq. 3 closure over `stages` and returns the final
    /// knowledge in the paper's orientation (`K[i][j]`: j knows i); the
    /// reference borrows the workspace.
    pub fn closure<'a, S, I>(&mut self, n: usize, stages: I) -> &BoolMatrix
    where
        S: StageSignals + 'a,
        I: IntoIterator<Item = &'a S>,
    {
        self.run(n, stages, None);
        self.k.transpose_into(&mut self.out);
        &self.out
    }

    /// Closure delta support: runs the Eq. 3 closure as if the single
    /// signal `edge = (src, dst)` of stage `skip_stage` were absent,
    /// without materializing a modified stage matrix. The result is
    /// receiver-major, like [`KnowledgeTrace::last`]: comparing the two
    /// decides whether that signal carries any knowledge the rest of the
    /// schedule does not already deliver (a *dead* signal).
    pub fn closure_excluding<'a, S, I>(
        &mut self,
        n: usize,
        stages: I,
        skip_stage: usize,
        edge: (usize, usize),
    ) -> &BoolMatrix
    where
        S: StageSignals + 'a,
        I: IntoIterator<Item = &'a S>,
    {
        self.run(n, stages, Some((skip_stage, edge)));
        &self.k
    }

    /// Early-exit barrier test: true iff the closure saturates every row.
    /// Stops consuming stages as soon as knowledge is complete.
    pub fn is_barrier<'a, S, I>(&mut self, n: usize, stages: I) -> bool
    where
        S: StageSignals + 'a,
        I: IntoIterator<Item = &'a S>,
    {
        self.run(n, stages, None) == n
    }

    /// Executes the closure, returning the number of saturated rows.
    /// `skip`, if set, is `(stage_idx, (src, dst))`: that one signal is
    /// treated as absent from its stage.
    fn run<'a, S, I>(&mut self, n: usize, stages: I, skip: Option<(usize, (usize, usize))>) -> usize
    where
        S: StageSignals + 'a,
        I: IntoIterator<Item = &'a S>,
    {
        let mut saturated_rows = self.start(n);
        for (idx, s) in stages.into_iter().enumerate() {
            assert_eq!(s.n(), n, "stage dimension {} != {}", s.n(), n);
            if saturated_rows == n {
                break; // all-ones is a fixed point of Eq. 3
            }
            let stage_skip = skip.filter(|&(si, _)| si == idx).map(|(_, e)| e);
            saturated_rows += self.step(s, stage_skip);
        }
        saturated_rows
    }

    /// Resets `K` to the identity and returns how many rows start full
    /// (only `n == 1` does, but stay generic).
    fn start(&mut self, n: usize) -> usize {
        self.k.reset_identity(n);
        self.saturated.clear();
        self.saturated.extend((0..n).map(|j| self.k.row_is_full(j)));
        self.saturated.iter().filter(|&&s| s).count()
    }

    /// The one Eq. 3 kernel, in receiver-major form: snapshots `K`, then
    /// for every signal `i → j` of `stage` other than `skip` ORs snapshot
    /// row `i` into row `j`, unless row `j` is already full. Records every
    /// row it ORs into in `touched` and returns the number of rows newly
    /// saturated.
    fn step<S: StageSignals + ?Sized>(&mut self, stage: &S, skip: Option<(usize, usize)>) -> usize {
        self.prev.copy_from(&self.k);
        self.touched.clear();
        let (k, prev, saturated, touched) = (
            &mut self.k,
            &self.prev,
            &mut self.saturated,
            &mut self.touched,
        );
        let mut newly = 0;
        stage.for_each_signal(|i, j| {
            if saturated[j] || skip == Some((i, j)) {
                return;
            }
            for (d, s) in k.row_mut(j).iter_mut().zip(prev.row(i)) {
                *d |= s;
            }
            touched.push(j);
            if k.row_is_full(j) {
                saturated[j] = true;
                newly += 1;
            }
        });
        newly
    }
}

impl Default for ClosureWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs Eq. 3 over `stages` and returns only the final knowledge matrix,
/// in the paper's orientation (`K[i][j]`: j knows i).
pub fn knowledge_closure<'a, I>(n: usize, stages: I) -> BoolMatrix
where
    I: IntoIterator<Item = &'a BoolMatrix>,
{
    let mut ws = ClosureWorkspace::new();
    ws.run(n, stages, None);
    ws.k.transpose()
}

/// Runs Eq. 3 over `stages`, recording the knowledge matrix after every
/// stage (plus the initial identity).
pub fn knowledge_steps<'a, I>(n: usize, stages: I) -> KnowledgeTrace
where
    I: IntoIterator<Item = &'a BoolMatrix>,
{
    let mut trace = KnowledgeTrace::new();
    trace.recompute(n, stages);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eq. 3 as the paper writes it, a dense boolean product per stage in
    /// the `K[i][j]` orientation: the oracle for the receiver-major kernel.
    fn product_closure(n: usize, stages: &[BoolMatrix]) -> BoolMatrix {
        let mut k = BoolMatrix::identity(n);
        let mut prev = BoolMatrix::zeros(n);
        for s in stages {
            prev.copy_from(&k);
            prev.and_or_accumulate_into(s, &mut k);
        }
        k
    }

    /// Materializes state `a` of `trace`, receiver-major, through
    /// [`KnowledgeTrace::knows`].
    fn state(trace: &KnowledgeTrace, a: usize) -> BoolMatrix {
        let n = trace.last().n();
        let mut m = BoolMatrix::zeros(n);
        for j in 0..n {
            for i in 0..n {
                m.set(j, i, trace.knows(a, j, i));
            }
        }
        m
    }

    fn states(trace: &KnowledgeTrace) -> Vec<BoolMatrix> {
        (0..=trace.stages()).map(|a| state(trace, a)).collect()
    }

    fn linear_stages(n: usize) -> Vec<BoolMatrix> {
        // All non-zero ranks signal rank 0, then rank 0 signals everyone.
        let mut s0 = BoolMatrix::zeros(n);
        for i in 1..n {
            s0.set(i, 0, true);
        }
        let s1 = s0.transpose();
        vec![s0, s1]
    }

    #[test]
    fn linear_barrier_closes() {
        for n in [1, 2, 3, 4, 7, 65] {
            let k = knowledge_closure(n, &linear_stages(n));
            assert!(k.is_all_true(), "linear barrier failed for n={n}");
        }
    }

    #[test]
    fn arrival_only_is_not_a_barrier() {
        let stages = linear_stages(5);
        let k = knowledge_closure(5, &stages[..1]);
        assert!(!k.is_all_true());
        // Rank 0 knows all arrivals...
        for i in 0..5 {
            assert!(k.get(i, 0), "rank 0 should know arrival of {i}");
        }
        // ...but rank 1 does not know rank 2 arrived.
        assert!(!k.get(2, 1));
    }

    #[test]
    fn empty_stage_list_keeps_identity() {
        let k = knowledge_closure(4, &[]);
        assert_eq!(k, BoolMatrix::identity(4));
    }

    #[test]
    fn trace_records_progress() {
        let trace = knowledge_steps(4, &linear_stages(4));
        assert_eq!(trace.stages(), 2);
        assert_eq!(state(&trace, 0), BoolMatrix::identity(4));
        assert!(!state(&trace, 1).is_all_true());
        assert!(state(&trace, 2).is_all_true());
        assert!(trace.is_barrier());
        assert_eq!(trace.first_complete_stage(), Some(1));
    }

    #[test]
    fn knowledge_is_monotone() {
        let trace = knowledge_steps(6, &linear_stages(6));
        for w in states(&trace).windows(2) {
            let (prev, next) = (&w[0], &w[1]);
            // prev ⊆ next
            assert_eq!(prev.and(next), *prev);
        }
    }

    #[test]
    fn dissemination_pattern_closes_without_departure() {
        // dlog2(n)e stages; stage s: i signals (i + 2^s) mod n.
        let n = 6;
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
        let trace = knowledge_steps(n, &stages);
        assert!(trace.is_barrier());
        // No earlier prefix closes: first completion is at the final stage.
        assert_eq!(trace.first_complete_stage(), Some(stages.len() - 1));
    }

    #[test]
    fn single_process_is_trivially_synchronized() {
        let k = knowledge_closure(1, &[]);
        assert!(k.is_all_true());
        let none = knowledge_steps(1, &[]);
        assert!(none.is_barrier());
        assert_eq!(none.first_complete_stage(), None);
        let one = knowledge_steps(1, &[BoolMatrix::zeros(1)]);
        assert_eq!(one.first_complete_stage(), Some(0));
        assert!(one.knows(1, 0, 0));
    }

    #[test]
    #[should_panic(expected = "stage dimension")]
    fn dimension_mismatch_panics() {
        knowledge_closure(3, &[BoolMatrix::zeros(4)]);
    }

    fn dissemination_stages(n: usize) -> Vec<BoolMatrix> {
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
    fn workspace_closure_matches_free_function() {
        let mut ws = ClosureWorkspace::new();
        for n in [1, 2, 6, 64, 65, 130] {
            for stages in [linear_stages(n), dissemination_stages(n)] {
                let expected = knowledge_closure(n, &stages);
                assert_eq!(expected, product_closure(n, &stages), "n={n}");
                // The same workspace is reused across sizes on purpose.
                assert_eq!(ws.closure(n, &stages), &expected, "n={n}");
                assert_eq!(ws.is_barrier(n, &stages), expected.is_all_true());
            }
        }
    }

    #[test]
    fn workspace_closure_on_incomplete_sequences() {
        let mut ws = ClosureWorkspace::new();
        let stages = linear_stages(9);
        let arrival_only = &stages[..1];
        assert_eq!(
            ws.closure(9, arrival_only),
            &knowledge_closure(9, arrival_only)
        );
        assert!(!ws.is_barrier(9, arrival_only));
        let none: &[BoolMatrix] = &[];
        assert_eq!(ws.closure(9, none), &BoolMatrix::identity(9));
    }

    #[test]
    fn workspace_fan_in_and_fan_out_stages() {
        // A fan-in arrival (everyone signals rank 0) then a departure where
        // rank 0 signals everyone: one receiver with n - 1 incoming
        // signals, then one sender whose row reaches every receiver.
        let n = 200;
        let stages = linear_stages(n);
        let mut ws = ClosureWorkspace::new();
        assert!(ws.is_barrier(n, &stages));
        assert_eq!(
            ws.closure(n, &stages[..1]),
            &product_closure(n, &stages[..1])
        );
    }

    #[test]
    fn workspace_early_exit_ignores_trailing_stages() {
        let n = 8;
        let mut stages = dissemination_stages(n);
        // Append a stage of the wrong flavour after saturation: the early
        // exit must not change the outcome.
        stages.push(BoolMatrix::identity(n));
        stages.push(BoolMatrix::zeros(n));
        let mut ws = ClosureWorkspace::new();
        assert!(ws.is_barrier(n, &stages));
        assert!(ws.closure(n, &stages).is_all_true());
    }

    #[test]
    fn closure_excluding_matches_materialized_removal() {
        let mut ws = ClosureWorkspace::new();
        for n in [3usize, 6, 9, 70] {
            let stages = dissemination_stages(n);
            for (si, s) in stages.iter().enumerate() {
                for (src, dst) in s.edges().take(6) {
                    // Reference: clone the stage matrix and clear the bit.
                    let mut modified: Vec<BoolMatrix> = stages.clone();
                    modified[si].set(src, dst, false);
                    // closure_excluding is receiver-major: the transpose.
                    let expected = product_closure(n, &modified).transpose();
                    let got = ws.closure_excluding(n, &stages, si, (src, dst));
                    assert_eq!(got, &expected, "n={n} stage={si} edge=({src},{dst})");
                }
            }
        }
    }

    #[test]
    fn closure_excluding_masks_one_signal_of_a_fan_out() {
        // Linear departure: rank 0 signals every other rank — masking one
        // of its signals must leave exactly that target short of
        // knowledge. The result is receiver-major: row 77 is what 77 knows.
        let n = 130;
        let stages = linear_stages(n);
        let mut ws = ClosureWorkspace::new();
        assert!(ws.closure(n, &stages).is_all_true());
        let masked = ws.closure_excluding(n, &stages, 1, (0, 77));
        assert!(!masked.is_all_true());
        assert!(!masked.get(77, 1), "77 must not learn of rank 1's arrival");
        assert!(masked.get(76, 1));
        assert!(masked.get(77, 77), "77 still knows of its own arrival");
    }

    #[test]
    fn closure_excluding_nonexistent_edge_is_identity_operation() {
        let n = 8;
        let stages = dissemination_stages(n);
        let mut ws = ClosureWorkspace::new();
        let expected = knowledge_closure(n, &stages).transpose();
        // (0, 3) is not a signal of stage 0 (stage 0 is i -> i+1).
        assert_eq!(ws.closure_excluding(n, &stages, 0, (0, 3)), &expected);
        // Out-of-range stage index: nothing skipped.
        assert_eq!(ws.closure_excluding(n, &stages, 99, (0, 1)), &expected);
    }

    #[test]
    fn trace_recompute_reuses_states() {
        let mut trace = KnowledgeTrace::new();
        trace.recompute(6, &linear_stages(6));
        let fresh = knowledge_steps(6, &linear_stages(6));
        assert_eq!(states(&trace), states(&fresh));
        // Recomputing a shorter sequence shrinks the trace.
        trace.recompute(4, &linear_stages(4)[..1]);
        assert_eq!(trace.stages(), 1);
        assert_eq!(state(&trace, 0), BoolMatrix::identity(4));
        assert_eq!(
            state(&trace, 1),
            product_closure(4, &linear_stages(4)[..1]).transpose()
        );
        assert!(!trace.is_barrier());
        assert_eq!(trace.first_complete_stage(), None);
    }

    #[test]
    fn row_blocks_span_and_reuse_blocks() {
        let mut rows = RowBlocks {
            block_words: 4,
            ..RowBlocks::new()
        };
        for round in 0..2u64 {
            rows.reset(2); // two rows per block
            let ids: Vec<u32> = (0..5u64).map(|r| rows.push(&[r, round])).collect();
            assert_eq!(ids, [0, 1, 2, 3, 4]);
            assert_eq!(rows.blocks.len(), 3);
            for r in 0..5u64 {
                assert_eq!(rows.row(r as u32), [r, round]);
            }
        }
        rows.reset(3); // a new width drops the old blocks
        assert!(rows.blocks.is_empty());
        assert_eq!(rows.push(&[7, 8, 9]), 0);
        assert_eq!(rows.row(0), [7, 8, 9]);
    }

    #[test]
    fn trace_states_are_receiver_major_prefix_closures() {
        for n in [2usize, 63, 64, 65, 130] {
            let mut stages = dissemination_stages(n);
            stages.extend(linear_stages(n));
            let trace = knowledge_steps(n, &stages);
            assert_eq!(trace.stages(), stages.len());
            for a in 0..=stages.len() {
                let k = product_closure(n, &stages[..a]);
                assert_eq!(state(&trace, a), k.transpose(), "n={n} state {a}");
                for (i, j) in [(0, n - 1), (n - 1, 0), (n / 2, 1)] {
                    assert_eq!(trace.knows(a, j, i), k.get(i, j), "n={n} state {a}");
                }
            }
            // Dissemination completes first; the linear stages after it
            // leave the saturated states untouched.
            assert_eq!(
                trace.first_complete_stage(),
                Some(dissemination_stages(n).len() - 1)
            );
            assert!(trace.is_barrier());
        }
    }
}
