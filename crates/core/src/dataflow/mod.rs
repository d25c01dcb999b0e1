//! PIER's dataflow layer: the local relational operators each node runs
//! over its own data, and the columnar symmetric-hash join state.  The
//! engine composes them per [`QueryKind`](crate::query::QueryKind); the
//! algebraic interface is [`PierNode::submit`](crate::engine::PierNode::submit)
//! (or [`PierTestbed::submit_query`](crate::testbed::PierTestbed::submit_query)).

pub mod join;
pub mod ops;

pub use ops::{compare_on, sort_tuples, FilterOp, GroupAggregator, GroupKey, ProjectOp, TopK};
