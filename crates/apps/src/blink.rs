//! Blink: the canonical TinyOS first app — a timer handler driving three
//! LEDs from a counter cascade. Branch frequencies are 1/2, 1/4 and 1/8 by
//! construction, giving the estimators known skewed targets.

use ct_ir::program::Program;
use ct_mote::interp::Mote;

/// NLC source.
pub const SOURCE: &str = r#"
module Blink {
    var counter: u32;

    proc fired() {
        counter = counter + 1;
        if ((counter & 1) != 0) { led_toggle(0); } else { }
        if ((counter & 3) == 0) { led_toggle(1); } else { }
        if ((counter & 7) == 0) { led_toggle(2); } else { }
    }
}
"#;

/// The procedure the experiments profile.
pub const TARGET_PROC: &str = "fired";

/// Compiles the app.
///
/// # Panics
///
/// Panics if the bundled source fails to compile (a bug in this crate).
pub fn program() -> Program {
    ct_ir::compile_source(SOURCE).expect("bundled Blink source compiles")
}

/// Configures devices for the standard workload (none needed).
pub fn configure(_mote: &mut Mote) {}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_ir::instr::ProcId;
    use ct_mote::cost::AvrCost;
    use ct_mote::trace::{GroundTruthProfiler, NullProfiler};

    #[test]
    fn compiles_and_runs() {
        let p = program();
        let mut mote = Mote::new(p.clone(), Box::new(AvrCost));
        for _ in 0..8 {
            mote.call(ProcId(0), &[], &mut NullProfiler).unwrap();
        }
        // After 8 ticks: LED0 toggled 4×(off), LED1 toggled 2×(off), LED2 1×(on).
        assert!(!mote.devices.leds.state[0]);
        assert!(!mote.devices.leds.state[1]);
        assert!(mote.devices.leds.state[2]);
    }

    #[test]
    fn branch_frequencies_match_design() {
        let p = program();
        let mut mote = Mote::new(p.clone(), Box::new(AvrCost));
        let mut gt = GroundTruthProfiler::new(&p);
        for _ in 0..800 {
            mote.call(ProcId(0), &[], &mut gt).unwrap();
        }
        let cfg = &p.procs[0].cfg;
        let probs = gt.branch_probs(ProcId(0), cfg);
        let expected = [0.5, 0.25, 0.125];
        for (got, want) in probs.as_slice().iter().zip(expected) {
            assert!((got - want).abs() < 0.01, "{:?}", probs);
        }
    }

    #[test]
    fn target_proc_exists_and_is_structured() {
        let p = program();
        let pid = p.proc_id(TARGET_PROC).expect("target exists");
        assert!(ct_cfg::loops::is_reducible(&p.proc(pid).cfg));
        assert_eq!(p.proc(pid).cfg.exit_blocks().len(), 1);
    }
}
