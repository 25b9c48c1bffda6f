#![warn(missing_docs)]

//! # ct-ir
//!
//! The NLC ("nesC-lite") front end: a small structured language for sensor
//! mote programs, compiled to per-procedure control-flow graphs of
//! stack-machine instructions with statically known per-block cycle costs.
//!
//! The pipeline is [`parser::parse_module`] → [`sema::analyze`] →
//! [`lower::lower`], bundled as [`compile_source`].
//!
//! Language restrictions (all checked by sema) guarantee that every lowered
//! procedure is *structured*: reducible, single-exit, header-controlled
//! single-latch loops. One Return block gives each run one end-to-end
//! duration, and a header-controlled single-latch loop with a known trip
//! count is the shape `ct_cfg::unroll` expands for the unrolled estimator.
//!
//! ## Example
//!
//! ```
//! let program = ct_ir::compile_source(r#"
//!     module Sense {
//!         var threshold: u16 = 512;
//!         var alarms: u16;
//!
//!         proc check() {
//!             var v: u16 = read_adc();
//!             if (v > threshold) { alarms = alarms + 1; led_set(0, 1); }
//!             else { led_set(0, 0); }
//!         }
//!     }
//! "#).unwrap();
//! let check = &program.procs[0];
//! assert_eq!(check.cfg.branch_blocks().len(), 1);
//! assert!(ct_cfg::loops::is_reducible(&check.cfg));
//! assert_eq!(check.cfg.exit_blocks().len(), 1);
//! ```

pub mod ast;
pub mod error;
pub mod instr;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod pretty;
pub mod program;
pub mod sema;
pub mod token;
pub mod tripcount;
pub mod types;

pub use error::IrError;
pub use instr::{GlobalId, Instr, Intrinsic, ProcId, ValKind};
pub use lower::compile_source;
pub use program::{Global, Procedure, Program};
pub use types::Ty;

/// Alias for [`compile_source`], the one-call front end.
///
/// # Errors
///
/// Propagates lex, parse and semantic errors.
pub fn compile(src: &str) -> Result<Program, IrError> {
    compile_source(src)
}
