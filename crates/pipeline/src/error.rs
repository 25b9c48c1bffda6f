//! The one error type every pipeline stage speaks.

use ct_core::estimator::EstimateError;
use ct_core::stream::ResolutionMismatch;
use std::error::Error;
use std::fmt;

/// Why a pipeline stage could not produce its artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The deployed program trapped while driving the workload.
    Trap(String),
    /// Estimation failed hard (the naive front door's error).
    Estimate(EstimateError),
    /// Edge-frequency derivation failed (exit unreachable under the
    /// probability vector handed to placement).
    Frequency(String),
    /// Fleet statistics at incompatible timer resolutions.
    Merge(ResolutionMismatch),
    /// A fleet with zero motes has nothing to run or merge.
    EmptyFleet,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Trap(msg) => write!(f, "workload trapped: {msg}"),
            PipelineError::Estimate(e) => write!(f, "estimation failed: {e}"),
            PipelineError::Frequency(msg) => {
                write!(f, "frequency derivation failed: {msg}")
            }
            PipelineError::Merge(e) => write!(f, "fleet merge failed: {e}"),
            PipelineError::EmptyFleet => write!(f, "fleet has zero motes"),
        }
    }
}

impl Error for PipelineError {}

impl From<EstimateError> for PipelineError {
    fn from(e: EstimateError) -> PipelineError {
        PipelineError::Estimate(e)
    }
}

impl From<ResolutionMismatch> for PipelineError {
    fn from(e: ResolutionMismatch) -> PipelineError {
        PipelineError::Merge(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PipelineError::Trap("sense trapped: stack underflow".into());
        assert!(e.to_string().contains("sense"));
        let m: PipelineError = ResolutionMismatch { ours: 1, theirs: 8 }.into();
        assert!(m.to_string().contains("cycles/tick"));
        assert!(PipelineError::EmptyFleet.to_string().contains("zero motes"));
    }
}
