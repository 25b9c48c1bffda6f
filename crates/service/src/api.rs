//! The estimation front door's request/response types and the typed
//! errors of the ingest and reduce tiers.

use ct_core::fb::FbError;
use std::error::Error;
use std::fmt;

/// A front-door estimation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstimateRequest {
    /// The estimation target, by name (one service instance serves one
    /// procedure's statistics; the name is echoed into the response so
    /// multi-procedure deployments can multiplex over one wire).
    pub procedure: String,
}

impl EstimateRequest {
    /// A request for `procedure` at whatever generation is current.
    pub fn latest(procedure: impl Into<String>) -> EstimateRequest {
        EstimateRequest {
            procedure: procedure.into(),
        }
    }
}

/// A front-door estimation response: the estimate served from the latest
/// reduced generation, stamped with how current it is.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateResponse {
    /// The requested procedure, echoed.
    pub procedure: String,
    /// The reduce-tier generation the estimate was computed from.
    pub generation: u64,
    /// Distinct batches folded into the served statistics.
    pub batches: u64,
    /// Samples in the served statistics.
    pub samples: usize,
    /// Branch probabilities, one per CFG branch site.
    pub probs: Vec<f64>,
    /// Final log-likelihood of the served EM run.
    pub loglik: f64,
    /// Whether the served EM run converged.
    pub converged: bool,
    /// EM iterations of the served run (a cached replay reports the cached
    /// run's count).
    pub iterations: usize,
    /// Confidence in the served estimate: 1 when EM converged, halved when
    /// it ran out its iteration budget (callers gate placement on this the
    /// same way `place_with_confidence` gates on coverage).
    pub confidence: f64,
    /// Staleness: batches accepted by the ingest tier but not yet folded
    /// into the served generation (0 = fresh). Under the threaded service
    /// the count is read from relaxed atomics, but it still brackets the
    /// truth: a batch is counted from the moment `ingest` returns until a
    /// reduce folds it in, so after a `Drain` with quiesced producers it
    /// reads exactly 0 and never resurrects drained batches.
    pub staleness: u64,
}

/// Why a non-blocking ingest was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// The target shard's bounded queue is full — backpressure. The batch
    /// was *not* enqueued; retry, block, or shed load.
    QueueFull {
        /// The shard whose queue is full.
        shard: usize,
        /// The queue's configured capacity.
        depth: usize,
    },
    /// The target shard's worker is gone (service shut down).
    Closed {
        /// The shard whose channel is closed.
        shard: usize,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::QueueFull { shard, depth } => {
                write!(f, "shard {shard} queue full (depth {depth}): backpressure")
            }
            IngestError::Closed { shard } => write!(f, "shard {shard} channel closed"),
        }
    }
}

impl Error for IngestError {}

/// Why the reduce tier or front door failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Estimation failed (shape mismatch, dynamic-program failure).
    Estimation(FbError),
    /// An estimate was requested before any batch was reduced.
    NoBatches,
    /// A shard worker died or its reply channel broke.
    Shard(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Estimation(e) => write!(f, "service estimation failed: {e}"),
            ServiceError::NoBatches => write!(f, "no batches reduced yet: nothing to estimate"),
            ServiceError::Shard(msg) => write!(f, "shard worker failed: {msg}"),
        }
    }
}

impl Error for ServiceError {}

impl From<FbError> for ServiceError {
    fn from(e: FbError) -> ServiceError {
        ServiceError::Estimation(e)
    }
}
