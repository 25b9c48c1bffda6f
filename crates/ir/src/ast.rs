//! Abstract syntax tree for NLC.
//!
//! NLC ("nesC-lite") is a deliberately small structured language for sensor
//! mote programs:
//!
//! ```text
//! module Sense {
//!     var threshold: u16 = 100;
//!     var samples: u16[8];
//!
//!     proc clamp(x: u16) -> u16 {
//!         var y: u16 = 0;
//!         if (x > threshold) { y = threshold; } else { y = x; }
//!         return y;
//!     }
//! }
//! ```
//!
//! Design restrictions that keep lowered CFGs structured (reducible, with
//! one Return block):
//!
//! - no `goto`, `break` or `continue`;
//! - `return` may appear only as the final statement of a procedure body;
//! - `&&` and `||` evaluate both operands (no short-circuit control flow).

use crate::token::Span;
use crate::types::Ty;

/// A whole translation unit: one `module`.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Module-level variables (mote RAM).
    pub globals: Vec<GlobalDecl>,
    /// Procedures.
    pub procs: Vec<ProcDecl>,
}

/// A module-level variable, scalar or fixed-length array.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Variable name.
    pub name: String,
    /// Element type.
    pub ty: Ty,
    /// Array length; `None` for scalars.
    pub array_len: Option<u32>,
    /// Optional scalar initializer (arrays zero-initialize).
    pub init: Option<i64>,
    /// Source location.
    pub span: Span,
}

/// A procedure definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcDecl {
    /// Procedure name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Return type; `None` for void procedures.
    pub ret: Option<Ty>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location of the header.
    pub span: Span,
}

/// One formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Ty,
    /// Source location.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local variable declaration with optional initializer.
    VarDecl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Ty,
        /// Initializer (defaults to zero/false).
        init: Option<Expr>,
        /// Source location.
        span: Span,
    },
    /// Assignment to a variable or array element.
    Assign {
        /// Assignment target.
        target: LValue,
        /// Right-hand side.
        value: Expr,
        /// Source location.
        span: Span,
    },
    /// Two-way conditional.
    If {
        /// Condition (must be `bool`).
        cond: Expr,
        /// Then-arm statements.
        then_blk: Vec<Stmt>,
        /// Else-arm statements (empty for `if` without `else`).
        else_blk: Vec<Stmt>,
        /// Source location.
        span: Span,
    },
    /// Header-controlled loop.
    While {
        /// Condition (must be `bool`).
        cond: Expr,
        /// Body statements.
        body: Vec<Stmt>,
        /// Source location.
        span: Span,
    },
    /// Procedure return; only legal as the last statement of a body.
    Return {
        /// Returned value; must match the procedure's return type.
        value: Option<Expr>,
        /// Source location.
        span: Span,
    },
    /// Expression evaluated for side effects (a call).
    Expr {
        /// The expression.
        expr: Expr,
        /// Source location.
        span: Span,
    },
}

impl Stmt {
    /// The statement's source location.
    pub fn span(&self) -> Span {
        match self {
            Stmt::VarDecl { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::Expr { span, .. } => *span,
        }
    }
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A scalar local or global.
    Var(String),
    /// A global array element `name[index]`.
    Elem(String, Box<Expr>),
}

/// An expression with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression node.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// Expression node kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// Variable read (local, parameter or global scalar).
    Var(String),
    /// Global array element read.
    Elem(String, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Procedure or intrinsic call.
    Call(String, Vec<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation (integers).
    Neg,
    /// Logical not (booleans).
    Not,
    /// Bitwise complement (integers).
    BitNot,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (traps on zero divisor)
    Div,
    /// `%` (traps on zero divisor)
    Rem,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&` (non-short-circuit boolean and)
    And,
    /// `||` (non-short-circuit boolean or)
    Or,
}

impl BinOp {
    /// True for operators producing `bool` from integer operands.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// True for `&&`/`||`, which take and produce `bool`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::BitAnd.is_logical());
    }

    #[test]
    fn stmt_span_accessor() {
        let s = Stmt::Return {
            value: None,
            span: Span {
                start: 1,
                end: 2,
                line: 9,
                col: 1,
            },
        };
        assert_eq!(s.span().line, 9);
    }
}
