//! Typed per-query failures.
//!
//! The pool's contract is that one bad query can never cost the batch: a
//! query that cannot run (invalid source), must not run (admission
//! control), ran out of its fault budget, or died on an unexpected panic
//! resolves to a [`QueryError`] in its submission slot while every other
//! query completes normally. The executor returns a failed query's
//! [`gcgt_simt::TypedFailure`] as a value, which maps into its matching
//! variant (`From`); an unexpected panic is caught on the worker and
//! preserved as [`QueryError::Internal`] so no failure is ever silently
//! swallowed.

use gcgt_simt::TypedFailure;

use crate::ServeError;

/// Why one query of a batch produced no output.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// The query's node-id parameter (BFS/BC source) falls outside the
    /// prepared graph. Rejected at validation, before dispatch — it never
    /// occupies a worker or an admission slot.
    SourceOutOfRange {
        /// The out-of-range source (original id space, a `NodeId`).
        source: u32,
        /// Nodes in the prepared graph (valid sources are `0..nodes`).
        nodes: usize,
    },
    /// The pool refused ([`ServeError::Overloaded`]) or discarded
    /// ([`ServeError::DeadlineExceeded`]) the query under its
    /// [`crate::ServePolicy`].
    Shed(ServeError),
    /// An injected transient fault persisted through the whole
    /// [`gcgt_simt::RetryPolicy`] budget (or retries were disabled).
    FaultBudgetExhausted {
        /// Fault-domain name (`"device-alloc"`, `"transfer"`, `"exchange"`).
        domain: &'static str,
        /// Consecutive failures absorbed before escalating.
        failures: u32,
    },
    /// The active fault plan injected a terminal per-query execution
    /// failure.
    InjectedFault,
    /// A compressed payload failed structural validation when the query
    /// first touched it (deferred-validation loads). Sticky: every later
    /// query touching the same partition reports the same error.
    CorruptGraph(String),
    /// The query panicked with a payload the pool does not recognize. The
    /// `catch_unwind` backstop preserves the message so the failure stays
    /// diagnosable without taking the pool down.
    Internal(String),
}

/// A failure the executor returned, as the matching variant.
impl From<TypedFailure> for QueryError {
    fn from(failure: TypedFailure) -> Self {
        match failure {
            TypedFailure::FaultBudgetExhausted { domain, failures } => {
                QueryError::FaultBudgetExhausted { domain, failures }
            }
            TypedFailure::InjectedQueryFailure => QueryError::InjectedFault,
            TypedFailure::CorruptGraph(message) => QueryError::CorruptGraph(message),
        }
    }
}

impl QueryError {
    /// Maps a caught worker panic payload to [`QueryError::Internal`] with
    /// the panic message preserved. Failures the stack models never come
    /// this way: they are values (`From<TypedFailure>`).
    pub(crate) fn from_panic(payload: Box<dyn std::any::Any + Send + 'static>) -> QueryError {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        QueryError::Internal(message)
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::SourceOutOfRange { source, nodes } => {
                write!(f, "source {source} out of range (graph has {nodes} nodes)")
            }
            QueryError::Shed(reason) => write!(f, "query shed: {reason}"),
            QueryError::FaultBudgetExhausted { domain, failures } => {
                write!(f, "{domain} fault persisted through {failures} attempts")
            }
            QueryError::InjectedFault => write!(f, "injected query execution failure"),
            QueryError::CorruptGraph(message) => write!(f, "{message}"),
            QueryError::Internal(message) => write!(f, "query panicked: {message}"),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_failures_map_to_matching_variants() {
        let cases = [
            (
                TypedFailure::FaultBudgetExhausted {
                    domain: "transfer",
                    failures: 5,
                },
                QueryError::FaultBudgetExhausted {
                    domain: "transfer",
                    failures: 5,
                },
            ),
            (
                TypedFailure::InjectedQueryFailure,
                QueryError::InjectedFault,
            ),
            (
                TypedFailure::CorruptGraph("bad block".into()),
                QueryError::CorruptGraph("bad block".into()),
            ),
        ];
        for (failure, expected) in cases {
            assert_eq!(QueryError::from(failure), expected);
        }
    }

    #[test]
    fn opaque_panics_preserve_the_message() {
        let payload = std::panic::catch_unwind(|| panic!("index 9 out of bounds"))
            .expect_err("panic unwinds");
        assert_eq!(
            QueryError::from_panic(payload),
            QueryError::Internal("index 9 out of bounds".into())
        );
        let payload =
            std::panic::catch_unwind(|| std::panic::panic_any(42u64)).expect_err("panic unwinds");
        assert_eq!(
            QueryError::from_panic(payload),
            QueryError::Internal("opaque panic payload".into())
        );
    }

    #[test]
    fn errors_render_for_humans() {
        let e = QueryError::SourceOutOfRange {
            source: 900,
            nodes: 100,
        };
        assert!(e.to_string().contains("source 900 out of range"));
        assert!(QueryError::Shed(ServeError::Overloaded)
            .to_string()
            .contains("shed"));
    }
}
