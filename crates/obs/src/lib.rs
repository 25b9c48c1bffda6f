//! Observability for Code Tomography: spans, counters, a trace event
//! stream, and per-run manifests.
//!
//! The crate is dependency-free and built around one discipline: every
//! aggregate merges commutatively and associatively (the `SuffStats`
//! rule), so the *content* a run records is identical at any `CT_THREADS`
//! — only wall/CPU timing values differ. See [`recorder`] for the full
//! determinism contract.
//!
//! Quick tour:
//!
//! ```
//! use ct_obs::{Counter, Span};
//!
//! {
//!     let _stage = Span::enter("stage.estimate");
//!     Counter::new("em.restarts").incr();
//!     ct_obs::emit("em.restart", vec![("restart", 0u64.into())]);
//! } // span recorded on drop
//! let snap = ct_obs::snapshot();
//! assert!(snap.spans.iter().any(|(name, _)| name == "stage.estimate"));
//! ```
//!
//! Telemetry v2 adds three pieces on the same discipline: log-bucketed
//! [`hist`] histograms (deterministic merge, p50/p90/p99/max), a [`flight`]
//! recorder (bounded per-thread rings of recent events, dumped on
//! panic/incident for post-mortems), and a [`metrics`] exposition pipeline
//! (periodic JSONL samples plus Prometheus text via `CT_METRICS_PATH`).
//!
//! Sinks: [`flush_env_sinks`] honours `CT_TRACE` (human table on stderr),
//! `CT_TRACE_JSON=path` (JSONL stream), and `CT_METRICS_PATH=path`
//! (Prometheus text exposition); [`write_manifest`] emits the
//! reproducibility manifest written next to results artifacts;
//! the one `ct-obs` binary reads them back: `ct-obs report` folds a JSONL
//! stream into a stage/phase breakdown via [`Report`], `ct-obs diff`
//! compares two manifests for deterministic-content agreement via
//! [`diff_manifests`] (the PMU drift gate in check.sh), and `ct-obs top`
//! renders a service-centric percentile breakdown from a manifest.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod event;
pub mod flight;
pub mod hist;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod recorder;
pub mod report;

/// Version of the JSONL/manifest schema emitted by this crate. Bump when
/// the shape of existing lines changes (adding new event kinds is fine).
pub const SCHEMA_VERSION: u64 = 1;

pub use diff::{diff_manifests, DiffReport};
pub use event::{Event, Value, VOLATILE_FIELDS};
pub use hist::{is_volatile_hist_name, HistData};
pub use manifest::{git_rev, write_manifest};
pub use metrics::{render_prometheus, MetricsPump};
pub use recorder::{
    counter_add, drain_thread, emit, flush_env_sinks, hist_record, render_jsonl, render_table,
    reset, set_stream_enabled, snapshot, stream_enabled, write_jsonl, Counter, Gauge, Hist,
    Snapshot, Span, SpanAgg,
};
pub use report::Report;
