//! Workspace maintenance tasks for the GVFS reproduction.
//!
//! One task: `lint`, the static-analysis pass. It runs the per-file
//! invariant rules (determinism, bounded decode, exact accounting,
//! panic-free dispatch, …) and the lock walker, which tracks live guards
//! through scopes and flags guards held across suspend points and double
//! acquisition: the static half of `simnet::Shared`'s runtime checks.
//! See DESIGN.md §5.2 / §5.7 and `lint-baseline.txt` for the
//! grandfathering workflow.

pub mod json;
pub mod lexer;
pub mod lint;
pub mod lockgraph;
pub mod rules;
