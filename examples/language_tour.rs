//! NLC language tour: compile a program exercising every language feature,
//! dump the lowered stack-machine IR and the CFG as Graphviz, and show the
//! natural loops and the counted loops the estimators build on.
//!
//! Run with: `cargo run --example language_tour`

use code_tomography::cfg::dot::to_dot;
use code_tomography::cfg::loops::LoopForest;
use code_tomography::ir::pretty::dump_procedure;

fn main() {
    let source = r#"
        module Tour {
            // Scalars of every type, with initializers.
            var total: u32 = 0;
            var limit: u16 = 0x40;
            var bias: i16 = -5;
            var enabled: bool = true;
            // Fixed-size arrays (zero-initialized).
            var window: u16[4];

            proc leaf(x: u16) -> u16 {
                return (x * 3 + 1) % 97;
            }

            proc work(n: u16) -> u32 {
                var i: u16 = 0;
                var acc: u32 = 0;
                while (i < n) {
                    window[i % 4] = leaf(i);
                    if ((window[i % 4] & 1) != 0 && enabled) {
                        acc = acc + window[i % 4];
                    } else {
                        acc = acc ^ 0xFF;
                    }
                    i = i + 1;
                }
                total = acc + (bias + 5);
                return acc;
            }
        }
    "#;

    let program = code_tomography::ir::compile_source(source).expect("tour compiles");
    println!(
        "== module `{}`: {} globals, {} procs, {} bytes RAM ==\n",
        program.name,
        program.globals.len(),
        program.procs.len(),
        program.ram_bytes(),
    );

    let work = program.proc_id("work").expect("work exists");
    let proc = program.proc(work);

    println!("== lowered IR of `work` ==");
    println!("{}", dump_procedure(proc));

    println!("== CFG (Graphviz) ==");
    println!("{}", to_dot(&proc.cfg));

    println!("== natural loops ==");
    for l in LoopForest::compute(&proc.cfg).loops() {
        println!(
            "header {:?}, latches {:?}, body {:?}",
            l.header, l.latches, l.body
        );
    }
    println!("counted loops (header, trips): {:?}", proc.counted_loops);
    let decisions = proc.cfg.branch_blocks();
    println!(
        "\n{} decision blocks drive the Markov model: {decisions:?}",
        decisions.len()
    );

    // Run it to show semantics.
    use code_tomography::mote::cost::AvrCost;
    use code_tomography::mote::interp::Mote;
    use code_tomography::mote::trace::NullProfiler;
    let mut mote = Mote::new(program.clone(), Box::new(AvrCost));
    let result = mote.call(work, &[10], &mut NullProfiler).expect("runs");
    println!("\nwork(10) = {:?} in {} cycles", result, mote.cycles);
    assert!(result.is_some());
}
