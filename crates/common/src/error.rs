//! Workspace-wide error type.

use std::fmt;

/// Convenience alias used across all CloudViews crates.
pub type Result<T> = std::result::Result<T, CvError>;

/// Errors produced anywhere in the reproduction stack.
///
/// The variants are coarse on purpose: callers either surface the message to
/// a user (examples, bench harness) or assert on the category (tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CvError {
    /// SQL text could not be tokenized or parsed.
    Parse(String),
    /// A name (table, column, function) could not be resolved, or types
    /// don't line up.
    Plan(String),
    /// A plan was structurally valid but could not be executed.
    Execution(String),
    /// A referenced catalog object does not exist.
    NotFound(String),
    /// An operation violated a storage or configuration constraint.
    Constraint(String),
    /// Internal invariant violation — indicates a bug in this codebase.
    Internal(String),
    /// An injected fault from a [`crate::faults::FaultPlan`]. Degradation
    /// paths match on this kind to distinguish simulated failures from real
    /// bugs; it must never escape to a job outcome.
    Fault(String),
    /// A simulated process kill fired mid-write ([`crate::faults::FaultPlan`]
    /// `crash_after_bytes`): the write persisted only a prefix and the store
    /// is poisoned until it is re-opened (recovery). Drivers match on this
    /// kind to run crash recovery and retry; like `Fault`, it must never
    /// escape to a job outcome.
    Crash(String),
}

impl CvError {
    pub fn parse(msg: impl Into<String>) -> Self {
        CvError::Parse(msg.into())
    }
    pub fn plan(msg: impl Into<String>) -> Self {
        CvError::Plan(msg.into())
    }
    pub fn exec(msg: impl Into<String>) -> Self {
        CvError::Execution(msg.into())
    }
    pub fn not_found(msg: impl Into<String>) -> Self {
        CvError::NotFound(msg.into())
    }
    pub fn constraint(msg: impl Into<String>) -> Self {
        CvError::Constraint(msg.into())
    }
    pub fn internal(msg: impl Into<String>) -> Self {
        CvError::Internal(msg.into())
    }
    pub fn fault(msg: impl Into<String>) -> Self {
        CvError::Fault(msg.into())
    }
    pub fn crash(msg: impl Into<String>) -> Self {
        CvError::Crash(msg.into())
    }

    /// Short category tag, useful in logs and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            CvError::Parse(_) => "parse",
            CvError::Plan(_) => "plan",
            CvError::Execution(_) => "execution",
            CvError::NotFound(_) => "not_found",
            CvError::Constraint(_) => "constraint",
            CvError::Internal(_) => "internal",
            CvError::Fault(_) => "fault",
            CvError::Crash(_) => "crash",
        }
    }

    /// True iff this error was injected by a fault plan.
    pub fn is_fault(&self) -> bool {
        matches!(self, CvError::Fault(_))
    }

    /// True iff this error is a simulated crash: the store needs recovery
    /// (re-open) before the operation can be retried.
    pub fn is_crash(&self) -> bool {
        matches!(self, CvError::Crash(_))
    }
}

impl fmt::Display for CvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, msg) = match self {
            CvError::Parse(m) => ("parse error", m),
            CvError::Plan(m) => ("planning error", m),
            CvError::Execution(m) => ("execution error", m),
            CvError::NotFound(m) => ("not found", m),
            CvError::Constraint(m) => ("constraint violation", m),
            CvError::Internal(m) => ("internal error", m),
            CvError::Fault(m) => ("injected fault", m),
            CvError::Crash(m) => ("simulated crash", m),
        };
        write!(f, "{kind}: {msg}")
    }
}

impl std::error::Error for CvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = CvError::parse("unexpected token `)`");
        assert_eq!(e.to_string(), "parse error: unexpected token `)`");
        assert_eq!(e.kind(), "parse");
    }

    #[test]
    fn kinds_are_distinct() {
        let all = [
            CvError::parse("x"),
            CvError::plan("x"),
            CvError::exec("x"),
            CvError::not_found("x"),
            CvError::constraint("x"),
            CvError::internal("x"),
            CvError::fault("x"),
            CvError::crash("x"),
        ];
        let kinds: crate::HashSet<_> = all.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), all.len());
    }

    #[test]
    fn result_alias_composes_with_question_mark() {
        fn inner() -> Result<u32> {
            Err(CvError::not_found("table `t`"))
        }
        fn outer() -> Result<u32> {
            let v = inner()?;
            Ok(v + 1)
        }
        assert_eq!(outer().unwrap_err().kind(), "not_found");
    }
}
