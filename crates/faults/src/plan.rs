//! Fault plans and chains: reproducible composition of fault models.
//!
//! A [`FaultPlan`] is the *description* of an injection — a seed plus an
//! ordered list of `(kind, rate)` pairs — cheap to store in experiment
//! configs and results. [`FaultPlan::build`] instantiates it as a
//! [`FaultChain`] of trait objects that rewrites tick streams. The corrupted
//! stream is a pure function of `(plan, input)`: the chain derives one
//! seeded generator from the plan and threads it through the models in
//! order, so replays are bitwise identical on any machine or thread count.

use crate::model::FaultModel;
use crate::FaultKind;
use ct_core::TimingSamples;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A reproducible description of a fault injection: seed plus ordered
/// `(kind, rate)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injection's random stream.
    pub seed: u64,
    /// The faults to apply, in order, each with its rate in `[0, 1]`.
    pub faults: Vec<(FaultKind, f64)>,
}

impl FaultPlan {
    /// An empty plan (applies nothing) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Appends a fault to the plan (builder style).
    pub fn with(mut self, kind: FaultKind, rate: f64) -> FaultPlan {
        self.faults.push((kind, rate));
        self
    }

    /// A single-fault plan.
    pub fn single(kind: FaultKind, rate: f64, seed: u64) -> FaultPlan {
        FaultPlan::new(seed).with(kind, rate)
    }

    /// Instantiates the plan's canonical models as an executable chain.
    pub fn build(&self) -> FaultChain {
        FaultChain {
            seed: self.seed,
            models: self
                .faults
                .iter()
                .map(|&(kind, rate)| kind.model(rate))
                .collect(),
        }
    }
}

/// An ordered pipeline of instantiated fault models sharing one seeded
/// random stream.
pub struct FaultChain {
    seed: u64,
    models: Vec<Box<dyn FaultModel>>,
}

impl FaultChain {
    /// Applies every model in order. Deterministic: the same chain and input
    /// always produce the same output, independent of the environment.
    pub fn apply(&self, samples: &TimingSamples) -> TimingSamples {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = samples.clone();
        for model in &self.models {
            out = model.apply(&out, &mut rng);
        }
        out
    }

    /// Number of models in the chain.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when the chain applies nothing.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The model names, in application order.
    pub fn names(&self) -> Vec<&'static str> {
        self.models.iter().map(|m| m.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> TimingSamples {
        let mut ticks = vec![115u64; 70];
        ticks.extend(vec![215u64; 30]);
        TimingSamples::new(ticks, 244)
    }

    #[test]
    fn empty_chain_is_identity() {
        let s = clean();
        assert_eq!(FaultPlan::new(9).build().apply(&s), s);
    }

    #[test]
    fn zero_rate_chain_over_all_kinds_is_identity() {
        let s = clean();
        let mut plan = FaultPlan::new(3);
        for kind in FaultKind::ALL {
            plan = plan.with(kind, 0.0);
        }
        let chain = plan.build();
        assert_eq!(chain.len(), FaultKind::ALL.len());
        assert_eq!(chain.apply(&s), s);
    }

    #[test]
    fn same_plan_replays_bitwise() {
        let s = clean();
        let plan = FaultPlan::new(11)
            .with(FaultKind::ClockDrift, 0.4)
            .with(FaultKind::RecordLoss, 0.2)
            .with(FaultKind::StuckAt, 0.1);
        let a = plan.build().apply(&s);
        let b = plan.build().apply(&s);
        assert_eq!(a, b);
        assert_ne!(a, s);
    }

    #[test]
    fn different_seeds_diverge() {
        let s = clean();
        let a = FaultPlan::single(FaultKind::StuckAt, 0.5, 1)
            .build()
            .apply(&s);
        let b = FaultPlan::single(FaultKind::StuckAt, 0.5, 2)
            .build()
            .apply(&s);
        assert_ne!(a, b);
    }

    #[test]
    fn order_matters() {
        let s = clean();
        let ab = FaultPlan::new(5)
            .with(FaultKind::TruncatedBatch, 0.5)
            .with(FaultKind::Duplication, 0.5)
            .build()
            .apply(&s);
        let ba = FaultPlan::new(5)
            .with(FaultKind::Duplication, 0.5)
            .with(FaultKind::TruncatedBatch, 0.5)
            .build()
            .apply(&s);
        assert_ne!(ab, ba);
    }

    #[test]
    fn chain_introspection() {
        let chain = FaultPlan::new(0)
            .with(FaultKind::Reordering, 0.1)
            .with(FaultKind::MisreportedResolution, 0.2)
            .build();
        assert!(!chain.is_empty());
        assert_eq!(chain.names(), vec!["reordering", "misreported-resolution"]);
    }
}
