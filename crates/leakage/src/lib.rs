//! Leakage accounting for encrypted-join schemes.
//!
//! The paper compares schemes by the set of **pairs with true equality
//! condition** an adversarial server can observe over a series of queries
//! (§2.1). This crate provides the machinery to make that comparison
//! executable:
//!
//! * [`Node`] — a row identity `(table, row, registration)`: a
//!   re-created table's rows are new rows;
//! * [`PairSet`] — a normalized set of revealed equality pairs;
//! * [`closure`] — the transitive closure of a pair set (union–find),
//!   the paper's lower bound for cumulative leakage;
//! * [`LeakageLedger`] — accumulates per-query observations and answers
//!   the two questions of Corollaries 5.2.1/5.2.2: is the cumulative
//!   leakage bounded by the transitive closure of the union of per-query
//!   leakages (no super-additive leakage), and how much *extra* leakage
//!   did a scheme reveal beyond it. It keeps that closure incrementally
//!   (one growing [`UnionFind`]) and records each query's equality
//!   classes as they were reported; [`closure`] over
//!   [`pairs_from_classes`] recomputes it from scratch and is the
//!   oracle the ledger is tested against.

#![forbid(unsafe_code)]

pub mod ledger;
pub mod pairs;
pub mod union_find;

pub use ledger::{LeakageLedger, LedgerEntry, QueryLeakage};
pub use pairs::{closure, pairs_from_classes, Node, PairSet};
pub use union_find::UnionFind;
