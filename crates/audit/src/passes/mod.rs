//! The audit passes. Each pass appends [`Finding`](crate::report::Finding)s;
//! the driver in [`crate::run_audit`] owns scoping and waiver hygiene.

pub mod ct;
pub mod panics;
pub mod unsafe_hygiene;
