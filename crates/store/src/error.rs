//! Store error types.

use prov_model::{EdgeId, EdgeTypeError, VertexId};

/// Errors produced by the property graph store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An edge violated the PROV domain/range rules.
    InvalidEdge(EdgeTypeError),
    /// A vertex id was out of range.
    UnknownVertex(VertexId),
    /// An edge id was out of range.
    UnknownEdge(EdgeId),
    /// Graph validation found a directed cycle (provenance graphs are DAGs).
    CycleDetected {
        /// A vertex participating in the cycle.
        on: VertexId,
    },
    /// The JSON interchange format failed: an import document was unusable,
    /// or an export met a value JSON cannot represent.
    Import(String),
    /// A query was malformed (e.g. PgSeg source/destination vertices that are
    /// not entities). Distinct from [`StoreError::Import`]: the *store* is
    /// fine, the *request* is not — service layers map this to a client
    /// error rather than a data corruption report.
    InvalidQuery(String),
    /// The dense `u32` id space of vertices or edges is exhausted. Before
    /// this variant the store silently wrapped past `u32::MAX` and started
    /// clobbering ids.
    CapacityExceeded {
        /// Which id space ran out (`"vertex"` or `"edge"`).
        what: &'static str,
    },
    /// The durable storage backend failed (I/O error, failed fsync, or a
    /// crash injected by the failpoint layer). Once a write-ahead-log engine
    /// reports this it stays *poisoned*: the in-memory store may already be
    /// ahead of the durable state, so further commits are refused until the
    /// database is reopened through recovery.
    StorageUnavailable(String),
    /// Durable state failed integrity checks in a way recovery must not
    /// paper over: a corrupt snapshot checksum, or a CRC-valid log record
    /// whose decoded operation cannot be replayed. Distinct from a torn
    /// *tail* (an interrupted append), which recovery truncates silently.
    CorruptLog(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::InvalidEdge(e) => write!(f, "invalid edge: {e}"),
            StoreError::UnknownVertex(v) => write!(f, "unknown vertex {v}"),
            StoreError::UnknownEdge(e) => write!(f, "unknown edge {e}"),
            StoreError::CycleDetected { on } => {
                write!(f, "provenance graph must be acyclic; cycle through {on}")
            }
            StoreError::Import(msg) => write!(f, "import error: {msg}"),
            StoreError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            StoreError::CapacityExceeded { what } => {
                write!(f, "store capacity exceeded: dense u32 {what} id space is full")
            }
            StoreError::StorageUnavailable(msg) => {
                write!(f, "storage unavailable: {msg}")
            }
            StoreError::CorruptLog(msg) => write!(f, "corrupt log: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<EdgeTypeError> for StoreError {
    fn from(e: EdgeTypeError) -> Self {
        StoreError::InvalidEdge(e)
    }
}

/// Store result alias.
pub type StoreResult<T> = Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::{EdgeKind, VertexKind};

    #[test]
    fn display_is_informative() {
        let err: StoreError = EdgeTypeError {
            kind: EdgeKind::Used,
            src: VertexKind::Entity,
            dst: VertexKind::Entity,
        }
        .into();
        assert!(err.to_string().contains("invalid edge"));
        assert!(StoreError::UnknownVertex(VertexId::new(3)).to_string().contains("v3"));
        assert!(StoreError::CycleDetected { on: VertexId::new(1) }.to_string().contains("acyclic"));
        assert!(StoreError::InvalidQuery("vsrc empty".into())
            .to_string()
            .contains("invalid query: vsrc empty"));
        assert!(StoreError::CapacityExceeded { what: "vertex" }
            .to_string()
            .contains("vertex id space is full"));
        assert!(StoreError::StorageUnavailable("fsync failed".into())
            .to_string()
            .contains("storage unavailable: fsync failed"));
        assert!(StoreError::CorruptLog("bad snapshot crc".into())
            .to_string()
            .contains("corrupt log: bad snapshot crc"));
    }
}
