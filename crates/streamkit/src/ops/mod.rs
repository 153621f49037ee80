//! The built-in continuous-query operators.
//!
//! These are the operators the paper's shared query plans are made of:
//! selection, projection, stream split (partitioning), result routing,
//! order-preserving union, the window join over a slice `[start, end)` —
//! chain slices and regular `[0, W)` joins alike — and result sinks.

pub mod project;
pub mod router;
pub mod select;
pub mod sink;
pub mod slice_join;
pub mod split;
pub mod union;
#[cfg(test)]
mod window_join;

pub use project::ProjectOp;
pub use router::{RouteTarget, RouterOp};
pub use select::SelectOp;
pub use sink::SinkOp;
pub use slice_join::{Direction, SliceJoinOp};
pub use split::SplitOp;
pub use union::UnionOp;
