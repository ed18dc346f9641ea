//! The structured error type every serving stage rejects with.

use std::fmt;

/// Why the server rejected (or failed) a request. `Clone + PartialEq` so
/// errors can be shared with coalesced waiters and compared byte-for-byte
/// between replay transcripts.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The tenant was never registered.
    UnknownTenant(String),
    /// A tenant with this name already holds a budget.
    TenantExists(String),
    /// The tenant's ε grant was non-positive or non-finite.
    InvalidGrant(f64),
    /// The requested dataset is not hosted by this server.
    UnknownDataset(String),
    /// The requested mechanism is not in this server's suite.
    UnknownMechanism(String),
    /// The requested ε was non-positive or non-finite.
    InvalidEpsilon(f64),
    /// The request asked for zero samples.
    InvalidSamples,
    /// The admission charge would overdraw the tenant's budget. The
    /// request consumed nothing; `remaining` is what the tenant still has.
    BudgetExhausted {
        /// The rejected tenant.
        tenant: String,
        /// ε the request asked to draw.
        requested: f64,
        /// ε the tenant still holds.
        remaining: f64,
    },
    /// The mechanism's `measure` phase returned an error (rendered, so the
    /// variant stays `Clone + PartialEq`); the admission charge stands.
    MeasureFailed {
        /// The failing mechanism's display name.
        mechanism: String,
        /// The rendered `GenerateError`.
        reason: String,
    },
    /// The mechanism's `measure` phase panicked. The single-flight slot
    /// was released, the cache is untouched, and only requests coalesced
    /// onto this measurement fail; the admission charge stands.
    MeasurePanicked {
        /// The panicking mechanism's display name.
        mechanism: String,
    },
    /// The request's sampling phase panicked after a successful measure.
    /// The cache entry is intact (other requests still reuse it); the
    /// admission charge stands.
    SamplePanicked {
        /// The mechanism whose synthesis was being sampled.
        mechanism: String,
    },
    /// The request exhausted its deterministic work-tick deadline. The
    /// rejection is byte-identical at any thread count — `ticks` is the
    /// request's declared budget, never the (scheduling-dependent) count
    /// actually consumed. The admission charge stands (conservative DP,
    /// the same rule as [`ServeError::MeasurePanicked`]).
    DeadlineExceeded {
        /// The request's declared tick budget.
        ticks: u64,
    },
    /// The request's token was cancelled without crossing its tick budget:
    /// an operator abort or the fault layer's `Cancel` action. The
    /// admission charge stands.
    Cancelled,
    /// A coalesced waiter gave up on a measurement flight whose leader
    /// never resolved it (e.g. the leader was killed by `abort`, not an
    /// unwind). The inflight slot was released so later requests can
    /// re-lead; the admission charge stands. Wall-clock bounded, so
    /// excluded from the determinism contract.
    FlightTimedOut {
        /// The mechanism whose flight timed out.
        mechanism: String,
    },
    /// Appending the admission to the write-ahead log failed. The request
    /// was rejected *before* any charge, the in-memory log is untouched
    /// (WAL and memory never diverge), and the server halts.
    WalAppend {
        /// The rendered I/O error.
        reason: String,
    },
    /// The server halted after a WAL failure; it accepts no further
    /// requests until recovered.
    Halted,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServeError::TenantExists(t) => write!(f, "tenant {t:?} is already registered"),
            ServeError::InvalidGrant(e) => write!(f, "invalid budget grant ε = {e}"),
            ServeError::UnknownDataset(d) => write!(f, "unknown dataset {d:?}"),
            ServeError::UnknownMechanism(m) => write!(f, "unknown mechanism {m:?}"),
            ServeError::InvalidEpsilon(e) => write!(f, "invalid privacy budget ε = {e}"),
            ServeError::InvalidSamples => write!(f, "a request must ask for at least one sample"),
            ServeError::BudgetExhausted { tenant, requested, remaining } => write!(
                f,
                "budget exhausted for tenant {tenant:?}: requested ε={requested}, remaining ε={remaining}"
            ),
            ServeError::MeasureFailed { mechanism, reason } => {
                write!(f, "{mechanism} measure failed: {reason}")
            }
            ServeError::MeasurePanicked { mechanism } => {
                write!(f, "{mechanism} measure panicked")
            }
            ServeError::SamplePanicked { mechanism } => {
                write!(f, "{mechanism} sampling panicked")
            }
            ServeError::DeadlineExceeded { ticks } => {
                write!(f, "work-tick deadline exceeded: budget {ticks} ticks")
            }
            ServeError::Cancelled => write!(f, "request cancelled"),
            ServeError::FlightTimedOut { mechanism } => {
                write!(f, "{mechanism} measurement flight timed out")
            }
            ServeError::WalAppend { reason } => {
                write!(f, "write-ahead log append failed: {reason}")
            }
            ServeError::Halted => write!(f, "server halted after a WAL failure"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Compact transcript tag for the variant (stable across versions so
    /// transcript diffs stay meaningful).
    pub fn tag(&self) -> &'static str {
        match self {
            ServeError::UnknownTenant(_) => "unknown-tenant",
            ServeError::TenantExists(_) => "tenant-exists",
            ServeError::InvalidGrant(_) => "invalid-grant",
            ServeError::UnknownDataset(_) => "unknown-dataset",
            ServeError::UnknownMechanism(_) => "unknown-mechanism",
            ServeError::InvalidEpsilon(_) => "invalid-epsilon",
            ServeError::InvalidSamples => "invalid-samples",
            ServeError::BudgetExhausted { .. } => "budget-exhausted",
            ServeError::MeasureFailed { .. } => "measure-failed",
            ServeError::MeasurePanicked { .. } => "measure-panicked",
            ServeError::SamplePanicked { .. } => "sample-panicked",
            ServeError::DeadlineExceeded { .. } => "deadline-exceeded",
            ServeError::Cancelled => "cancelled",
            ServeError::FlightTimedOut { .. } => "flight-timed-out",
            ServeError::WalAppend { .. } => "wal-append",
            ServeError::Halted => "halted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_specifics() {
        let e =
            ServeError::BudgetExhausted { tenant: "alice".into(), requested: 2.0, remaining: 0.5 };
        let s = e.to_string();
        assert!(s.contains("alice") && s.contains("2") && s.contains("0.5"), "{s}");
        assert_eq!(e.tag(), "budget-exhausted");
        assert!(ServeError::UnknownMechanism("X".into()).to_string().contains("\"X\""));
    }
}
