//! The unified query error type of the service layer.
//!
//! Every fallible path through [`crate::ProvService`] funnels into
//! [`ApiError`], and every `ApiError` maps onto a wire-stable
//! [`ErrorCode`] so clients can branch without parsing messages.

use crate::envelope::SessionId;
use prov_store::StoreError;
use serde::{Deserialize, Serialize};

/// Wire-stable error discriminant carried by error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request body failed to parse or validate.
    MalformedRequest,
    /// The query was well-formed JSON but semantically invalid
    /// (e.g. non-entity PgSeg query vertices, expansions in a restrict).
    InvalidQuery,
    /// An edge violated the PROV domain/range rules during ingest.
    InvalidEdge,
    /// A vertex id was out of range.
    UnknownVertex,
    /// An edge id was out of range.
    UnknownEdge,
    /// A versioned name resolved to no vertex.
    UnknownEntity,
    /// No live session has the given id.
    UnknownSession,
    /// The graph would become cyclic.
    Cycle,
    /// JSON interchange import failed.
    Import,
    /// The store's dense id space is exhausted.
    CapacityExceeded,
    /// The durable storage engine cannot accept commits (I/O failure or a
    /// poisoned engine after one); reopen the database to recover.
    StorageUnavailable,
    /// The on-disk log or snapshot is corrupt (checksum-valid bytes that do
    /// not decode or replay) — recovery refused to guess.
    CorruptLog,
    /// The service's budget for client-created state is spent: a session
    /// does not fit even with every held walk evicted. Close a session and
    /// retry.
    HeldBudgetExceeded,
}

/// Everything that can go wrong while serving a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// The embedded store rejected the operation.
    Store(StoreError),
    /// No live session has this id.
    UnknownSession(SessionId),
    /// An [`crate::EntityRef`] name resolved to no vertex.
    UnknownEntity(String),
    /// The request body itself was unusable (parse failure, bad shape).
    Malformed(String),
    /// A session does not fit the service's held-state budget, even with
    /// every held walk evicted.
    HeldBudgetExceeded {
        /// Bytes the session would be charged.
        needed: usize,
        /// Bytes already held (sessions only, by then).
        held: usize,
        /// The budget.
        budget: usize,
    },
}

impl ApiError {
    /// The wire discriminant for this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            ApiError::Store(StoreError::InvalidEdge(_)) => ErrorCode::InvalidEdge,
            ApiError::Store(StoreError::UnknownVertex(_)) => ErrorCode::UnknownVertex,
            ApiError::Store(StoreError::UnknownEdge(_)) => ErrorCode::UnknownEdge,
            ApiError::Store(StoreError::CycleDetected { .. }) => ErrorCode::Cycle,
            ApiError::Store(StoreError::Import(_)) => ErrorCode::Import,
            ApiError::Store(StoreError::InvalidQuery(_)) => ErrorCode::InvalidQuery,
            ApiError::Store(StoreError::CapacityExceeded { .. }) => ErrorCode::CapacityExceeded,
            ApiError::Store(StoreError::StorageUnavailable(_)) => ErrorCode::StorageUnavailable,
            ApiError::Store(StoreError::CorruptLog(_)) => ErrorCode::CorruptLog,
            ApiError::UnknownSession(_) => ErrorCode::UnknownSession,
            ApiError::UnknownEntity(_) => ErrorCode::UnknownEntity,
            ApiError::Malformed(_) => ErrorCode::MalformedRequest,
            ApiError::HeldBudgetExceeded { .. } => ErrorCode::HeldBudgetExceeded,
        }
    }

    /// Shorthand for an invalid-query error.
    pub fn invalid_query(msg: impl Into<String>) -> ApiError {
        ApiError::Store(StoreError::InvalidQuery(msg.into()))
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::Store(e) => write!(f, "{e}"),
            ApiError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ApiError::UnknownEntity(name) => write!(f, "unknown entity {name:?}"),
            ApiError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            ApiError::HeldBudgetExceeded { needed, held, budget } => write!(
                f,
                "held-state budget exceeded: the session needs {needed} bytes, sessions already \
                 hold {held} of {budget}; close a session first"
            ),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<StoreError> for ApiError {
    fn from(e: StoreError) -> Self {
        ApiError::Store(e)
    }
}

/// Service result alias.
pub type ApiResult<T> = Result<T, ApiError>;

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::VertexId;

    #[test]
    fn codes_classify_store_errors() {
        let e: ApiError = StoreError::InvalidQuery("bad".into()).into();
        assert_eq!(e.code(), ErrorCode::InvalidQuery);
        let e: ApiError = StoreError::UnknownVertex(VertexId::new(9)).into();
        assert_eq!(e.code(), ErrorCode::UnknownVertex);
        let e: ApiError = StoreError::CapacityExceeded { what: "vertex" }.into();
        assert_eq!(e.code(), ErrorCode::CapacityExceeded);
        let e: ApiError = StoreError::StorageUnavailable("fsync failed".into()).into();
        assert_eq!(e.code(), ErrorCode::StorageUnavailable);
        let e: ApiError = StoreError::CorruptLog("bad seq".into()).into();
        assert_eq!(e.code(), ErrorCode::CorruptLog);
        assert_eq!(ApiError::UnknownSession(SessionId::new(1)).code(), ErrorCode::UnknownSession);
        assert_eq!(ApiError::UnknownEntity("x".into()).code(), ErrorCode::UnknownEntity);
        assert_eq!(ApiError::Malformed("{".into()).code(), ErrorCode::MalformedRequest);
        let e = ApiError::HeldBudgetExceeded { needed: 9, held: 8, budget: 10 };
        assert_eq!(e.code(), ErrorCode::HeldBudgetExceeded);
    }

    #[test]
    fn display_carries_context() {
        assert!(ApiError::UnknownEntity("model-v9".into()).to_string().contains("model-v9"));
        assert!(ApiError::invalid_query("vsrc empty").to_string().contains("invalid query"));
    }
}
