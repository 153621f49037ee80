//! Error type shared by plan construction and execution.

use std::fmt;

/// Errors raised while building or executing a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The plan graph is malformed (dangling port, cycle, bad arity, ...).
    PlanValidation(String),
    /// A named entry point does not exist.
    UnknownEntry(String),
    /// A node id is out of range for the plan.
    UnknownNode(usize),
    /// An operator received a tuple it cannot process.
    SchemaMismatch(String),
    /// A runtime invariant was violated (e.g. out-of-order input).
    Execution(String),
    /// Query text could not be parsed.
    Parse(String),
    /// Configuration values are inconsistent.
    InvalidConfig(String),
    /// A shard worker died (panicked or exited) instead of completing its
    /// work.  A `core::live::Session` recovers from it (`core::recovery`).
    WorkerFailed(String),
    /// Checkpoint capture or restore failed.
    Checkpoint(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::PlanValidation(m) => write!(f, "plan validation error: {m}"),
            StreamError::UnknownEntry(m) => write!(f, "unknown entry point: {m}"),
            StreamError::UnknownNode(id) => write!(f, "unknown node id: {id}"),
            StreamError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            StreamError::Execution(m) => write!(f, "execution error: {m}"),
            StreamError::Parse(m) => write!(f, "parse error: {m}"),
            StreamError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            StreamError::WorkerFailed(m) => write!(f, "worker failed: {m}"),
            StreamError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, StreamError>;

/// Render a caught panic's payload into a human-readable message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = StreamError::PlanValidation("dangling port".into());
        assert!(e.to_string().contains("dangling port"));
        let e = StreamError::UnknownEntry("A".into());
        assert!(e.to_string().contains("A"));
        let e = StreamError::UnknownNode(7);
        assert!(e.to_string().contains('7'));
        let e = StreamError::Parse("bad token".into());
        assert!(e.to_string().contains("bad token"));
        let e = StreamError::WorkerFailed("shard 3 panicked".into());
        assert!(e.to_string().contains("shard 3 panicked"));
        let e = StreamError::Checkpoint("no checkpoint taken yet".into());
        assert!(e.to_string().contains("no checkpoint taken yet"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&StreamError::Execution("x".into()));
    }
}
