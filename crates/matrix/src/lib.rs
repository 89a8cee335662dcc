//! Dense matrix types used throughout the barrier-synthesis pipeline.
//!
//! The algorithmic model of Meyer & Elster (IPDPS 2011) encodes a barrier as
//! a sequence of boolean *incidence matrices* `S_0, S_1, …, S_k`, where row
//! `i` of `S_a` lists the ranks that process `i` signals in step `a`.
//! Verifying that such a sequence actually synchronizes all processes is a
//! fixed-point computation over boolean matrix products (the paper's Eq. 3),
//! and costing it couples the boolean structure to `f64` cost matrices.
//!
//! This crate provides the two matrix types those computations need:
//!
//! * [`BoolMatrix`] — a bitset-backed square boolean matrix with the
//!   and/or (boolean semiring) product, saturating addition, and transpose.
//! * [`DenseMatrix`] — a row-major generic dense matrix, used with `f64`
//!   entries for the topological cost matrices `O` and `L`.
//!
//! Matrices here are small (`P ≤ a few hundred` for realistic clusters), so
//! the implementations favour clarity and cache-friendly row-major layouts
//! over asymptotic tricks.

pub mod boolmat;
pub mod dense;
pub mod reach;

pub use boolmat::BoolMatrix;
pub use dense::DenseMatrix;
pub use reach::{
    knowledge_closure, knowledge_steps, ClosureWorkspace, KnowledgeTrace, StageSignals,
};
