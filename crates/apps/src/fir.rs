//! Fir: an 8-tap moving-average FIR filter over the sensor stream with a
//! threshold alarm. The filter loop has a deterministic trip count (the
//! Markov geometric-loop assumption is deliberately misspecified here) while
//! the alarm branch is input-driven.

use ct_ir::program::Program;
use ct_mote::devices::SineAdc;
use ct_mote::interp::Mote;
use ct_mote::trace::NullProfiler;

/// NLC source.
pub const SOURCE: &str = r#"
module Fir {
    var taps: u16[8];
    var hist: u16[8];
    var hpos: u16;
    var output: u16;
    var alarms: u32;

    proc init() {
        var i: u16 = 0;
        while (i < 8) {
            taps[i] = 1;
            i = i + 1;
        }
    }

    proc step() {
        hist[hpos] = read_adc();
        var acc: u32 = 0;
        var i: u16 = 0;
        while (i < 8) {
            var j: u16 = (hpos + 8 - i) % 8;
            acc = acc + hist[j] * taps[i];
            i = i + 1;
        }
        hpos = (hpos + 1) % 8;
        output = acc >> 3;
        if (output > 600) {
            alarms = alarms + 1;
            led_set(1, 1);
        } else {
            led_set(1, 0);
        }
    }
}
"#;

/// The procedure the experiments profile.
pub const TARGET_PROC: &str = "step";

/// Compiles the app.
///
/// # Panics
///
/// Panics if the bundled source fails to compile (a bug in this crate).
pub fn program() -> Program {
    ct_ir::compile_source(SOURCE).expect("bundled Fir source compiles")
}

/// Standard workload: initialize taps, periodic field swinging through the
/// alarm threshold.
pub fn configure(mote: &mut Mote) {
    mote.devices.adc = Box::new(SineAdc::new(512.0, 400.0, 128.0, 30.0));
    let init = mote.program().proc_id("init").expect("init exists");
    mote.call(init, &[], &mut NullProfiler).expect("init runs");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_mote::cost::AvrCost;
    use ct_mote::devices::ConstantAdc;
    use ct_mote::trace::GroundTruthProfiler;

    #[test]
    fn moving_average_converges_to_constant_input() {
        let p = program();
        let mut mote = Mote::new(p.clone(), Box::new(AvrCost));
        configure(&mut mote);
        mote.devices.adc = Box::new(ConstantAdc(800));
        for _ in 0..16 {
            mote.call(p.proc_id(TARGET_PROC).unwrap(), &[], &mut NullProfiler)
                .unwrap();
        }
        // After ≥8 steps of constant 800 input: output = 8·800/8 = 800.
        assert_eq!(mote.globals.load(p.global_id("output").unwrap()), 800);
        assert!(mote.globals.load(p.global_id("alarms").unwrap()) > 0);
    }

    #[test]
    fn filter_loop_runs_exactly_eight_times() {
        let p = program();
        let mut mote = Mote::new(p.clone(), Box::new(AvrCost));
        configure(&mut mote);
        let mut gt = GroundTruthProfiler::new(&p);
        let pid = p.proc_id(TARGET_PROC).unwrap();
        mote.call(pid, &[], &mut gt).unwrap();
        let cfg = &p.proc(pid).cfg;
        // Loop header visited 9 times (8 continues + exit).
        let visits = gt.profile(pid).block_visits(cfg, 1);
        assert!(visits.contains(&9), "{visits:?}");
    }

    #[test]
    fn alarm_branch_oscillates_with_field() {
        let p = program();
        let mut mote = Mote::new(p.clone(), Box::new(AvrCost));
        configure(&mut mote);
        let mut gt = GroundTruthProfiler::new(&p);
        let pid = p.proc_id(TARGET_PROC).unwrap();
        for _ in 0..512 {
            mote.call(pid, &[], &mut gt).unwrap();
        }
        let cfg = &p.proc(pid).cfg;
        let probs = gt.branch_probs(pid, cfg);
        // Sine centered at 512 with amplitude 400: alarm (>600) a noticeable
        // but minority fraction of the time.
        let alarm_p = probs.as_slice().last().copied().unwrap();
        assert!(alarm_p > 0.1 && alarm_p < 0.6, "{:?}", probs);
    }
}
