//! `prov-api`: the wire-ready service layer of the reproduction.
//!
//! The paper's operators are *interactive* — PgSeg induces once and adjusts
//! repeatedly (Sec. III-B) — so the service surface is built around an owned
//! registry of live sessions rather than ad-hoc library calls:
//!
//! * [`envelope`] — the serde [`Request`]/[`Response`] envelope covering the
//!   whole facade (ingest, segment open/expand/restrict/close, summarize,
//!   lineage, composable queries with resumable cursors, JSON interchange),
//!   with [`EntityRef`] addressing (id *or* versioned name) and a
//!   per-response [`Stats`] envelope;
//! * [`spec`] — [`BoundarySpec`], the declarative (closure-free) boundary
//!   subset that can cross a wire;
//! * [`service`] — [`ProvService`], the request dispatcher over a
//!   [`prov_core::ProvDb`];
//! * [`held`] — the one registry of client-created state (live sessions
//!   and held query-walk answers) under one byte budget,
//!   [`HELD_BUDGET_BYTES`];
//! * [`error`] — [`ApiError`], the unified query error type, with
//!   wire-stable [`ErrorCode`] discriminants;
//! * [`clock`] — the injected [`Clock`] behind `Stats::elapsed_micros`.
//!
//! ```
//! use prov_api::{ProvService, Request, Response, AddAgentRequest};
//!
//! let mut service = ProvService::new();
//! let response = service.handle(&Request::AddAgent(AddAgentRequest {
//!     name: "alice".into(),
//! }));
//! assert!(matches!(response, Response::Vertex(_)));
//! // Or fully serialized, as a transport would drive it:
//! let wire = service.handle_json(r#"{"AddAgent": {"name": "bob"}}"#);
//! assert!(wire.contains("\"Vertex\""));
//! ```

pub mod clock;
pub mod envelope;
pub mod error;
pub mod held;
pub mod service;
pub mod spec;

pub use clock::{Clock, ManualClock, SystemClock};
pub use envelope::{
    ActivityResponse, AddAgentRequest, AddArtifactRequest, CloseSessionRequest, ClosedResponse,
    DocumentResponse, EntityRef, ErrorResponse, EvaluatorSpec, ExpandRequest, ExportRequest,
    ImportRequest, ImportedResponse, LineageDir, LineageRequest, LineageResponse,
    OpenSessionRequest, OutputSpecDto, PsgDto, PsgEdgeDto, PsgVertexDto, QueryActivity,
    QueryRequest, QueryResponse, QuerySpec, RecordActivityRequest, Request, Response,
    RestrictRequest, SegmentDto, SegmentEdgeDto, SegmentOptions, SegmentRequest, SegmentResponse,
    SegmentVertexDto, SessionId, SessionResponse, Stats, SummarizeRequest, SummaryResponse,
    VertexResponse,
};
pub use error::{ApiError, ApiResult, ErrorCode};
pub use held::HELD_BUDGET_BYTES;
pub use service::ProvService;
pub use spec::{BirthWindow, BoundarySpec, EdgePredSpec, ExpansionSpec, PropMatch, VertexPredSpec};
