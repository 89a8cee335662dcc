//! Flattened per-rank barrier programs.

use crate::schedule::BarrierSchedule;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a schedule (or an emitter request) cannot be compiled.
///
/// [`BarrierSchedule::push`] upholds these invariants for schedules built
/// through the API, but schedules can also arrive from deserialized JSON
/// (`hbar tune --out` / `hbar codegen --schedule`), which bypasses the
/// constructor checks — codegen re-validates instead of trusting blindly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodegenError {
    /// A stage matrix has a different dimension than the schedule.
    StageDimension {
        stage: usize,
        expected: usize,
        got: usize,
    },
    /// A rank signals itself in some stage.
    SelfSignal { stage: usize, rank: usize },
    /// The requested function name is not a valid C/Rust identifier.
    InvalidName { name: String },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::StageDimension {
                stage,
                expected,
                got,
            } => write!(
                f,
                "stage {stage} is {got}x{got} but the schedule covers {expected} ranks"
            ),
            CodegenError::SelfSignal { stage, rank } => {
                write!(f, "rank {rank} signals itself in stage {stage}")
            }
            CodegenError::InvalidName { name } => {
                write!(f, "`{name}` is not a valid C/Rust identifier")
            }
        }
    }
}

impl std::error::Error for CodegenError {}

/// Validates that `name` can be used as a function identifier in both
/// emitted languages.
pub(super) fn validate_name(name: &str) -> Result<(), CodegenError> {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_') {
        Ok(())
    } else {
        Err(CodegenError::InvalidName {
            name: name.to_string(),
        })
    }
}

/// One step of a rank's program: post all receives, issue all synchronous
/// sends, then wait for everything to complete before the next step.
///
/// Receives are posted before sends (as the paper's general simulator
/// does with its nonblocking request arrays), so no execution backend
/// needs an unexpected-message queue deeper than one stage.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankStep {
    /// Ranks to receive one signal from, in ascending order.
    pub recvs: Vec<usize>,
    /// Ranks to send one signal to, in ascending order.
    pub sends: Vec<usize>,
}

impl RankStep {
    /// True if the step involves no communication.
    pub fn is_empty(&self) -> bool {
        self.recvs.is_empty() && self.sends.is_empty()
    }
}

/// The compiled barrier program of one rank.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankProgram {
    /// The rank this program belongs to.
    pub rank: usize,
    /// Steps in execution order (no-op steps already eliminated).
    pub steps: Vec<RankStep>,
}

impl RankProgram {
    /// Total number of signals this rank sends.
    pub fn send_count(&self) -> usize {
        self.steps.iter().map(|s| s.sends.len()).sum()
    }

    /// Total number of signals this rank receives.
    pub fn recv_count(&self) -> usize {
        self.steps.iter().map(|s| s.recvs.len()).sum()
    }
}

/// Compiles a schedule into one program per rank.
///
/// Per-rank no-op elimination: a rank's program contains only the stages
/// in which it sends or receives, preserving their relative order. This
/// is safe because message matching between a fixed `(src, dst)` pair is
/// FIFO in every backend, and a rank's step boundaries only synchronize
/// its *own* requests — exactly the specialization the paper's generator
/// performs ("the generated test programs specialize the logic of the
/// general model, eliminate no-op transmission steps, etc.").
///
/// # Errors
/// Rejects schedules that violate the stage invariants (dimension
/// mismatch, self-signals) — possible when a schedule was deserialized
/// rather than built through [`BarrierSchedule::push`].
pub fn compile_schedule(schedule: &BarrierSchedule) -> Result<Vec<RankProgram>, CodegenError> {
    let n = schedule.n();
    let mut programs: Vec<RankProgram> = (0..n)
        .map(|rank| RankProgram {
            rank,
            steps: Vec::new(),
        })
        .collect();
    let compiled = schedule.compiled();
    let mut steps: Vec<RankStep> = vec![RankStep::default(); n];
    for (stage_idx, stage) in schedule.stages().iter().enumerate() {
        if stage.matrix.n() != n {
            return Err(CodegenError::StageDimension {
                stage: stage_idx,
                expected: n,
                got: stage.matrix.n(),
            });
        }
        if let Some(rank) = stage.matrix.first_self_loop() {
            return Err(CodegenError::SelfSignal {
                stage: stage_idx,
                rank,
            });
        }
        // Gather per-rank sends and receives for this stage from the
        // cached CSR; senders ascend, so every receive list does too.
        for (i, targets) in compiled[stage_idx].sends() {
            steps[i].sends.extend_from_slice(targets);
            for &j in targets {
                steps[j].recvs.push(i);
            }
        }
        for (program, step) in programs.iter_mut().zip(&mut steps) {
            if !step.is_empty() {
                program.steps.push(std::mem::take(step));
            }
        }
    }
    Ok(programs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::schedule::Stage;
    use hbar_matrix::BoolMatrix;

    #[test]
    fn linear_barrier_programs() {
        let members: Vec<usize> = (0..4).collect();
        let sched = Algorithm::Linear.full_schedule(4, &members);
        let progs = compile_schedule(&sched).unwrap();
        // Master: step 0 receives from 1..3, step 1 sends to 1..3.
        assert_eq!(progs[0].steps.len(), 2);
        assert_eq!(progs[0].steps[0].recvs, vec![1, 2, 3]);
        assert!(progs[0].steps[0].sends.is_empty());
        assert_eq!(progs[0].steps[1].sends, vec![1, 2, 3]);
        // Others: one send step, one receive step.
        for prog in &progs[1..4] {
            assert_eq!(prog.steps.len(), 2);
            assert_eq!(prog.steps[0].sends, vec![0]);
            assert_eq!(prog.steps[1].recvs, vec![0]);
        }
    }

    #[test]
    fn noop_stages_are_skipped_per_rank() {
        // Rank 3 is idle in stage 0, active in stage 1.
        let mut sched = BarrierSchedule::new(4);
        sched.push(Stage::arrival(BoolMatrix::from_edges(4, &[(1, 0)])));
        sched.push(Stage::arrival(BoolMatrix::from_edges(4, &[(3, 0)])));
        let progs = compile_schedule(&sched).unwrap();
        assert_eq!(progs[3].steps.len(), 1, "idle stage removed");
        assert_eq!(progs[3].steps[0].sends, vec![0]);
        assert_eq!(progs[0].steps.len(), 2, "active in both");
        assert!(progs[2].steps.is_empty(), "fully idle rank has no steps");
    }

    #[test]
    fn send_recv_counts_balance() {
        let members: Vec<usize> = (0..22).collect();
        for alg in [Algorithm::Tree, Algorithm::Dissemination, Algorithm::Linear] {
            let sched = alg.full_schedule(22, &members);
            let progs = compile_schedule(&sched).unwrap();
            let sends: usize = progs.iter().map(RankProgram::send_count).sum();
            let recvs: usize = progs.iter().map(RankProgram::recv_count).sum();
            assert_eq!(sends, recvs, "{alg}");
            assert_eq!(sends, sched.total_signals(), "{alg}");
        }
    }

    #[test]
    fn partner_lists_are_sorted() {
        let members: Vec<usize> = (0..16).collect();
        let sched = Algorithm::Dissemination.full_schedule(16, &members);
        for prog in compile_schedule(&sched).unwrap() {
            for step in &prog.steps {
                assert!(step.sends.windows(2).all(|w| w[0] < w[1]));
                assert!(step.recvs.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
