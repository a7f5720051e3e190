//! The metric catalogue: names, units, direction, regression bounds.
//!
//! `BENCHMARK.json` at the repository root lists the same names and bounds
//! for the driver; the crate's tests keep the two in step.
//!
//! Every end-to-end metric is reported on every workload. Latency is kept
//! apart by request class, and each workload names the two classes that are
//! distinctive for it ([`crate::program::Workload::primary`] /
//! [`secondary`](crate::program::Workload::secondary)):
//!
//! | workload | primary | secondary |
//! |---|---|---|
//! | `ingest` | `RecordActivity` | `RecordActivity` stalled by a compaction |
//! | `lookup` | `Lineage` | one `Query` page |
//! | `mixed` | `RecordActivity` | the first read after a write |
//! | `explore` | one-shot `Segment` | `Summarize` |

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
    /// Absolute difference below which `--compare` never reports a
    /// regression (clock granularity), in the metric's unit.
    pub floor: f64,
}

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, floor: 0.05 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25, floor: 0.0 },
    EndToEnd { name: "primary_p50_us", unit: "us", better: Better::Lower, bound: 0.20, floor: 1.0 },
    EndToEnd {
        name: "primary_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        floor: 1.0,
    },
    EndToEnd {
        name: "secondary_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        floor: 1.0,
    },
    EndToEnd {
        name: "secondary_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        floor: 1.0,
    },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.10, floor: 1.0 },
];

/// One per-layer metric (traced repetition; no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, prefixed with the layer (`store.storage.append_us`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// The per-layer metrics, in reporting order. Times are medians per request
/// of the relevant class; `*_per_op`, `*_share` and counts are exact ratios.
pub const PER_LAYER: [PerLayer; 47] = [
    // api: envelope decode / dispatch / encode.
    lower("api.decode_us", "us"),
    lower("api.handle_us", "us"),
    lower("api.encode_us", "us"),
    lower("api.decode_share", "ratio"),
    lower("api.encode_share", "ratio"),
    lower("api.req_bytes_per_op", "B"),
    lower("api.resp_bytes_per_op", "B"),
    lower("api.session_us", "us"),
    lower("api.dto_us", "us"),
    // core: snapshot lifecycle, mutation, lineage.
    lower("core.snapshot_refresh_us", "us"),
    higher("core.snapshot_reuses", "count"),
    lower("core.snapshot_refreshes", "count"),
    lower("core.snapshot_rebuilds", "count"),
    lower("core.record_us", "us"),
    lower("core.lineage_us", "us"),
    // store.query: plan + bounded-replay evaluation.
    lower("store.query.compile_us", "us"),
    lower("store.query.eval_us", "us"),
    lower("store.query.rows_scanned_per_row", "count"),
    lower("store.query.pages_per_walk", "count"),
    // store.storage: WAL, fsync, compaction.
    lower("store.storage.append_us", "us"),
    lower("store.storage.sync_us", "us"),
    lower("store.storage.snapshot_write_us", "us"),
    lower("store.storage.commit_self_us", "us"),
    lower("store.storage.appends_per_op", "count"),
    lower("store.storage.syncs_per_op", "count"),
    lower("store.storage.compactions", "count"),
    lower("store.storage.append_bytes_per_op", "B"),
    lower("store.storage.snapshot_bytes_per_op", "B"),
    lower("store.storage.bytes_per_op", "B"),
    lower("store.storage.stall_share", "ratio"),
    lower("store.storage.recover_s", "s"),
    lower("store.storage.stdio_sync_us", "us"),
    // segment / summary kernels.
    lower("segment.kernel_us", "us"),
    lower("segment.result_vertices", "count"),
    lower("summary.kernel_us", "us"),
    lower("summary.psg_ratio", "ratio"),
    // set-up.
    lower("workload.generate_s", "s"),
    lower("setup.preload_s", "s"),
    // traced latency per request class (decode + handle + encode).
    lower("class.record_p50_us", "us"),
    lower("class.stall_p50_us", "us"),
    lower("class.fresh_read_p50_us", "us"),
    lower("class.lineage_p50_us", "us"),
    lower("class.page_p50_us", "us"),
    lower("class.segment_p50_us", "us"),
    lower("class.summarize_p50_us", "us"),
    lower("class.session_p50_us", "us"),
    // the cost of tracing itself.
    lower("trace.overhead", "ratio"),
];
