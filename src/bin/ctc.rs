//! `ctc` — the Code Tomography command line: compile, inspect, run and
//! estimate NLC sensor programs.
//!
//! ```text
//! ctc compile <file.nlc>                      dump lowered IR and stats
//! ctc dot <file.nlc> [proc]                   CFG as Graphviz DOT
//! ctc run <file.nlc> <proc> [n]               run on the simulated mote
//! ctc estimate <file.nlc> <proc> [n] [cpt]    profile by timing and estimate
//! ```

use code_tomography::cfg::dot::to_dot;
use code_tomography::core::estimator::{estimate, EstimateOptions};
use code_tomography::core::samples::TimingSamples;
use code_tomography::core::unrolled::estimate_unrolled;
use code_tomography::ir;
use code_tomography::ir::pretty::dump_program;
use code_tomography::mote::cost::AvrCost;
use code_tomography::mote::devices::UniformAdc;
use code_tomography::mote::interp::Mote;
use code_tomography::mote::timer::VirtualTimer;
use code_tomography::mote::trace::{NullProfiler, TimingProfiler};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("estimate") => cmd_estimate(&args[1..]),
        _ => {
            eprintln!(
                "usage: ctc <compile|dot|run|estimate> <file.nlc> [args...]\n\
                 \n\
                 compile <file>                 dump lowered IR and stats\n\
                 dot <file> [proc]              CFG as Graphviz DOT\n\
                 run <file> <proc> [n=1]        run on the simulated mote\n\
                 estimate <file> <proc> [n=2000] [cpt=8]\n\
                 \x20                              profile by timing and estimate"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CmdResult = Result<(), Box<dyn std::error::Error>>;

fn load(args: &[String]) -> Result<ir::Program, Box<dyn std::error::Error>> {
    let path = args.first().ok_or("missing source file argument")?;
    let src = std::fs::read_to_string(path)?;
    Ok(ir::compile_source(&src)?)
}

fn proc_id(
    program: &ir::Program,
    args: &[String],
    idx: usize,
) -> Result<ct_ir::instr::ProcId, Box<dyn std::error::Error>> {
    let name = args.get(idx).ok_or("missing procedure name")?;
    program
        .proc_id(name)
        .ok_or_else(|| format!("no procedure named `{name}`").into())
}

fn cmd_compile(args: &[String]) -> CmdResult {
    let program = load(args)?;
    print!("{}", dump_program(&program));
    println!(
        "\n{} procs, {} instructions, {} bytes RAM",
        program.procs.len(),
        program.instr_count(),
        program.ram_bytes()
    );
    for p in &program.procs {
        if !p.counted_loops.is_empty() {
            let loops: Vec<String> = p
                .counted_loops
                .iter()
                .map(|(b, k)| format!("{b}×{k}"))
                .collect();
            println!("counted loops in {}: {}", p.name, loops.join(", "));
        }
    }
    Ok(())
}

fn cmd_dot(args: &[String]) -> CmdResult {
    let program = load(args)?;
    match args.get(1) {
        Some(name) => {
            let pid = program
                .proc_id(name)
                .ok_or_else(|| format!("no procedure named `{name}`"))?;
            println!("{}", to_dot(&program.proc(pid).cfg));
        }
        None => {
            for p in &program.procs {
                println!("{}", to_dot(&p.cfg));
            }
        }
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> CmdResult {
    let program = load(args)?;
    let pid = proc_id(&program, args, 1)?;
    let n: usize = args.get(2).map(|s| s.parse()).transpose()?.unwrap_or(1);
    if !program.proc(pid).params.is_empty() {
        return Err("ctc run only drives parameterless procedures".into());
    }
    let mut mote = Mote::new(program, Box::new(AvrCost));
    mote.devices.adc = Box::new(UniformAdc { lo: 0, hi: 1023 });
    let start = mote.cycles;
    let mut last = None;
    for _ in 0..n {
        last = mote.call(pid, &[], &mut NullProfiler)?;
    }
    println!("ran {n} invocation(s) in {} cycles", mote.cycles - start);
    if let Some(v) = last {
        println!("last result: {v}");
    }
    println!(
        "leds: {:?}  radio sent: {} packet(s)",
        mote.devices.leds.state,
        mote.devices.radio.sent.len()
    );
    Ok(())
}

fn cmd_estimate(args: &[String]) -> CmdResult {
    let program = load(args)?;
    let pid = proc_id(&program, args, 1)?;
    let n: usize = args.get(2).map(|s| s.parse()).transpose()?.unwrap_or(2000);
    let cpt: u64 = args.get(3).map(|s| s.parse()).transpose()?.unwrap_or(8);
    if !program.proc(pid).params.is_empty() {
        return Err("ctc estimate only drives parameterless procedures".into());
    }

    let mut mote = Mote::new(program.clone(), Box::new(AvrCost));
    mote.devices.adc = Box::new(UniformAdc { lo: 0, hi: 1023 });
    let timer = VirtualTimer::new(cpt);
    let mut timing = TimingProfiler::new(&program, timer, 0);
    for _ in 0..n {
        mote.call(pid, &[], &mut timing)?;
    }

    let proc = program.proc(pid);
    let samples = TimingSamples::new(timing.samples(pid).to_vec(), cpt);
    let bc = mote.static_block_costs(pid);
    let ec = mote.static_edge_costs(pid);

    let (probs, method) = if proc.counted_loops.is_empty() {
        let e = estimate(&proc.cfg, bc, ec, &samples, EstimateOptions::default())?;
        (e.probs, e.method.to_string())
    } else {
        match estimate_unrolled(
            &proc.cfg,
            &proc.counted_loops,
            bc,
            ec,
            &samples,
            Default::default(),
        ) {
            Ok(u) => (u.probs, "em+unroll".to_string()),
            Err(_) => {
                let e = estimate(&proc.cfg, bc, ec, &samples, EstimateOptions::default())?;
                (e.probs, e.method.to_string())
            }
        }
    };

    println!(
        "estimated `{}` from {n} samples at {cpt} cycles/tick ({method}):\n",
        proc.name
    );
    // A fresh mote: everything its PMU counted is this run.
    let true_probs = mote.ground_truth().branch_probs(pid, &proc.cfg);
    print!(
        "{}",
        code_tomography::core::report::branch_table(&proc.cfg, &probs, &true_probs)
    );
    Ok(())
}
