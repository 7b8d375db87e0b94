//! Expression AST over model variables.
//!
//! Expressions appear as transition guards, location invariants, effect
//! right-hand sides, data-flow definitions and property goals. They are
//! Boolean/arithmetic terms over the network's variables, with the usual
//! int→real coercion.

use crate::error::TypeError;
use crate::value::{Value, VarType};
use std::fmt;

/// Index of a variable in the network's global variable table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Numeric addition.
    Add,
    /// Numeric subtraction.
    Sub,
    /// Numeric multiplication.
    Mul,
    /// Numeric division (real semantics; integer operands are coerced).
    Div,
    /// Numeric minimum.
    Min,
    /// Numeric maximum.
    Max,
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
    /// Logical exclusive or.
    Xor,
    /// Logical implication.
    Implies,
    /// Equality (numeric coercion applies).
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl BinOp {
    /// True for `And`/`Or`/`Xor`/`Implies`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Implies)
    }

    /// True for comparison operators producing Booleans from numbers.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// True for arithmetic operators.
    pub fn is_arithmetic(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max)
    }

    /// Concrete syntax used by [`fmt::Display`] on [`Expr`].
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Implies => "=>",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }
}

/// An expression over model variables.
///
/// # Examples
///
/// ```
/// use slim_automata::expr::{Expr, VarId};
///
/// // x >= 200 and x <= 300
/// let x = Expr::var(VarId(0));
/// let guard = x.clone().ge(Expr::real(200.0)).and(x.le(Expr::real(300.0)));
/// assert!(guard.to_string().contains("and"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Const(Value),
    /// Variable read.
    Var(VarId),
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// If-then-else (`cond ? then : else`).
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// The constant `true`.
    pub const TRUE: Expr = Expr::Const(Value::Bool(true));
    /// The constant `false`.
    pub const FALSE: Expr = Expr::Const(Value::Bool(false));

    /// Variable reference.
    pub fn var(id: VarId) -> Expr {
        Expr::Var(id)
    }

    /// Boolean literal.
    pub fn bool(b: bool) -> Expr {
        Expr::Const(Value::Bool(b))
    }

    /// Integer literal.
    pub fn int(i: i64) -> Expr {
        Expr::Const(Value::Int(i))
    }

    /// Real literal.
    pub fn real(r: f64) -> Expr {
        Expr::Const(Value::Real(r))
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(self), Box::new(rhs))
    }

    /// `min(self, rhs)`.
    pub fn min(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Min, Box::new(self), Box::new(rhs))
    }

    /// `max(self, rhs)`.
    pub fn max(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Max, Box::new(self), Box::new(rhs))
    }

    /// Logical `and`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::And, Box::new(self), Box::new(rhs))
    }

    /// Logical `or`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Or, Box::new(self), Box::new(rhs))
    }

    /// Logical `xor`.
    pub fn xor(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Xor, Box::new(self), Box::new(rhs))
    }

    /// Logical implication.
    pub fn implies(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Implies, Box::new(self), Box::new(rhs))
    }

    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Arithmetic negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }

    /// `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Eq, Box::new(self), Box::new(rhs))
    }

    /// `self != rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Ne, Box::new(self), Box::new(rhs))
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Lt, Box::new(self), Box::new(rhs))
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Le, Box::new(self), Box::new(rhs))
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Gt, Box::new(self), Box::new(rhs))
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Ge, Box::new(self), Box::new(rhs))
    }

    /// `if cond then self else other`.
    pub fn ite(cond: Expr, then: Expr, els: Expr) -> Expr {
        Expr::Ite(Box::new(cond), Box::new(then), Box::new(els))
    }

    /// Conjunction of an iterator of expressions (`true` when empty).
    pub fn all<I: IntoIterator<Item = Expr>>(exprs: I) -> Expr {
        let mut it = exprs.into_iter();
        match it.next() {
            None => Expr::TRUE,
            Some(first) => it.fold(first, Expr::and),
        }
    }

    /// Disjunction of an iterator of expressions (`false` when empty).
    pub fn any<I: IntoIterator<Item = Expr>>(exprs: I) -> Expr {
        let mut it = exprs.into_iter();
        match it.next() {
            None => Expr::FALSE,
            Some(first) => it.fold(first, Expr::or),
        }
    }

    /// True if the expression is the literal `true`.
    pub fn is_const_true(&self) -> bool {
        matches!(self, Expr::Const(Value::Bool(true)))
    }

    /// Collects all variables read by the expression into `out`.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => out.push(*v),
            Expr::Not(e) | Expr::Neg(e) => e.collect_vars(out),
            Expr::Bin(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Ite(c, t, e) => {
                c.collect_vars(out);
                t.collect_vars(out);
                e.collect_vars(out);
            }
        }
    }

    /// All variables read by the expression, deduplicated and sorted.
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// True if the expression reads any variable for which `pred` holds.
    /// Walks the tree without allocating and stops at the first match.
    pub fn reads_any_var(&self, pred: &dyn Fn(VarId) -> bool) -> bool {
        match self {
            Expr::Const(_) => false,
            Expr::Var(v) => pred(*v),
            Expr::Not(e) | Expr::Neg(e) => e.reads_any_var(pred),
            Expr::Bin(_, a, b) => a.reads_any_var(pred) || b.reads_any_var(pred),
            Expr::Ite(c, t, e) => {
                c.reads_any_var(pred) || t.reads_any_var(pred) || e.reads_any_var(pred)
            }
        }
    }

    /// Rewrites every variable reference through `map` (used when merging
    /// variable tables during lowering).
    pub fn map_vars(&self, map: &dyn Fn(VarId) -> VarId) -> Expr {
        match self {
            Expr::Const(v) => Expr::Const(*v),
            Expr::Var(v) => Expr::Var(map(*v)),
            Expr::Not(e) => Expr::Not(Box::new(e.map_vars(map))),
            Expr::Neg(e) => Expr::Neg(Box::new(e.map_vars(map))),
            Expr::Bin(op, a, b) => {
                Expr::Bin(*op, Box::new(a.map_vars(map)), Box::new(b.map_vars(map)))
            }
            Expr::Ite(c, t, e) => Expr::Ite(
                Box::new(c.map_vars(map)),
                Box::new(t.map_vars(map)),
                Box::new(e.map_vars(map)),
            ),
        }
    }

    /// Statically checks the expression against the variable typing `ty_of`
    /// and returns its result kind.
    ///
    /// # Errors
    /// Returns a [`TypeError`] on kind mismatches (Boolean used as number,
    /// comparing a Boolean with a number, …).
    pub fn check(&self, ty_of: &dyn Fn(VarId) -> VarType) -> Result<TypeKind, TypeError> {
        match self {
            Expr::Const(Value::Bool(_)) => Ok(TypeKind::Bool),
            Expr::Const(Value::Int(_)) => Ok(TypeKind::Int),
            Expr::Const(Value::Real(_)) => Ok(TypeKind::Real),
            Expr::Var(v) => Ok(match ty_of(*v) {
                VarType::Bool => TypeKind::Bool,
                VarType::Int { .. } => TypeKind::Int,
                VarType::Real | VarType::Clock | VarType::Continuous => TypeKind::Real,
            }),
            Expr::Not(e) => {
                let k = e.check(ty_of)?;
                if k == TypeKind::Bool {
                    Ok(TypeKind::Bool)
                } else {
                    Err(TypeError::Expected {
                        expected: "bool",
                        found: k.name(),
                        context: "not".into(),
                    })
                }
            }
            Expr::Neg(e) => {
                let k = e.check(ty_of)?;
                if k.is_numeric() {
                    Ok(k)
                } else {
                    Err(TypeError::Expected {
                        expected: "number",
                        found: k.name(),
                        context: "negation".into(),
                    })
                }
            }
            Expr::Bin(op, a, b) => {
                let ka = a.check(ty_of)?;
                let kb = b.check(ty_of)?;
                if op.is_logical() {
                    if ka == TypeKind::Bool && kb == TypeKind::Bool {
                        Ok(TypeKind::Bool)
                    } else {
                        Err(TypeError::Expected {
                            expected: "bool",
                            found: if ka == TypeKind::Bool { kb.name() } else { ka.name() },
                            context: op.symbol().into(),
                        })
                    }
                } else if op.is_comparison() {
                    match (*op, ka, kb) {
                        (BinOp::Eq | BinOp::Ne, TypeKind::Bool, TypeKind::Bool) => {
                            Ok(TypeKind::Bool)
                        }
                        (_, ka, kb) if ka.is_numeric() && kb.is_numeric() => Ok(TypeKind::Bool),
                        _ => Err(TypeError::Mismatch { context: op.symbol().into() }),
                    }
                } else {
                    // arithmetic
                    if ka.is_numeric() && kb.is_numeric() {
                        if *op == BinOp::Div {
                            Ok(TypeKind::Real)
                        } else {
                            Ok(ka.join(kb))
                        }
                    } else {
                        Err(TypeError::Expected {
                            expected: "number",
                            found: if ka.is_numeric() { kb.name() } else { ka.name() },
                            context: op.symbol().into(),
                        })
                    }
                }
            }
            Expr::Ite(c, t, e) => {
                let kc = c.check(ty_of)?;
                if kc != TypeKind::Bool {
                    return Err(TypeError::Expected {
                        expected: "bool",
                        found: kc.name(),
                        context: "if condition".into(),
                    });
                }
                let kt = t.check(ty_of)?;
                let ke = e.check(ty_of)?;
                match (kt, ke) {
                    (TypeKind::Bool, TypeKind::Bool) => Ok(TypeKind::Bool),
                    (a, b) if a.is_numeric() && b.is_numeric() => Ok(a.join(b)),
                    _ => Err(TypeError::Mismatch { context: "if branches".into() }),
                }
            }
        }
    }
}

/// Static result kind of an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeKind {
    /// Boolean result.
    Bool,
    /// Integer result.
    Int,
    /// Real result.
    Real,
}

impl TypeKind {
    /// True for `Int`/`Real`.
    pub fn is_numeric(self) -> bool {
        !matches!(self, TypeKind::Bool)
    }

    /// Kind name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            TypeKind::Bool => "bool",
            TypeKind::Int => "int",
            TypeKind::Real => "real",
        }
    }

    /// Least upper bound for numeric kinds (`Int ⊔ Real = Real`).
    pub fn join(self, other: TypeKind) -> TypeKind {
        if self == TypeKind::Real || other == TypeKind::Real {
            TypeKind::Real
        } else {
            self
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Not(e) => write!(f, "(not {e})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Bin(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Ite(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty_table(tys: &[VarType]) -> impl Fn(VarId) -> VarType + '_ {
        move |v: VarId| tys[v.0]
    }

    #[test]
    fn builder_shapes() {
        let e = Expr::var(VarId(0)).add(Expr::int(1)).le(Expr::int(5));
        match &e {
            Expr::Bin(BinOp::Le, lhs, _) => {
                assert!(matches!(**lhs, Expr::Bin(BinOp::Add, _, _)));
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn vars_deduplicated() {
        let x = Expr::var(VarId(3));
        let e = x.clone().add(x.clone()).lt(x);
        assert_eq!(e.vars(), vec![VarId(3)]);
    }

    #[test]
    fn all_and_any_fold() {
        assert!(Expr::all(std::iter::empty()).is_const_true());
        assert_eq!(Expr::any(std::iter::empty()), Expr::FALSE);
        let e = Expr::all(vec![Expr::TRUE, Expr::FALSE]);
        assert!(matches!(e, Expr::Bin(BinOp::And, _, _)));
    }

    #[test]
    fn typecheck_accepts_mixed_arithmetic() {
        let tys = [VarType::INT, VarType::Real];
        let e = Expr::var(VarId(0)).add(Expr::var(VarId(1)));
        assert_eq!(e.check(&ty_table(&tys)), Ok(TypeKind::Real));
    }

    #[test]
    fn typecheck_rejects_bool_arithmetic() {
        let tys = [VarType::Bool];
        let e = Expr::var(VarId(0)).add(Expr::int(1));
        assert!(e.check(&ty_table(&tys)).is_err());
    }

    #[test]
    fn typecheck_rejects_bool_number_comparison() {
        let tys = [VarType::Bool];
        let e = Expr::var(VarId(0)).eq(Expr::int(1));
        assert!(e.check(&ty_table(&tys)).is_err());
        let ok = Expr::var(VarId(0)).eq(Expr::bool(true));
        assert_eq!(ok.check(&ty_table(&tys)), Ok(TypeKind::Bool));
    }

    #[test]
    fn typecheck_division_is_real() {
        let tys = [VarType::INT];
        let e = Expr::var(VarId(0)).div(Expr::int(2));
        assert_eq!(e.check(&ty_table(&tys)), Ok(TypeKind::Real));
    }

    #[test]
    fn ite_branch_kinds_join() {
        let tys = [VarType::Bool, VarType::INT, VarType::Real];
        let e = Expr::ite(Expr::var(VarId(0)), Expr::var(VarId(1)), Expr::var(VarId(2)));
        assert_eq!(e.check(&ty_table(&tys)), Ok(TypeKind::Real));
        let bad = Expr::ite(Expr::var(VarId(1)), Expr::int(0), Expr::int(1));
        assert!(bad.check(&ty_table(&tys)).is_err());
    }

    #[test]
    fn map_vars_rewrites() {
        let e = Expr::var(VarId(0)).add(Expr::var(VarId(1)));
        let shifted = e.map_vars(&|v| VarId(v.0 + 10));
        assert_eq!(shifted.vars(), vec![VarId(10), VarId(11)]);
    }

    /// A random expression tree over variables `0..8` (xorshift64 over
    /// `state`), up to `depth` levels deep.
    fn random_expr(state: &mut u64, depth: u32) -> Expr {
        let mut next = |n: u64| {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state % n
        };
        let pick = if depth == 0 { next(2) } else { next(6) };
        let var = VarId(next(8) as usize);
        match pick {
            0 => Expr::int(next(5) as i64),
            1 => Expr::var(var),
            2 => Expr::Not(Box::new(random_expr(state, depth - 1))),
            3 => Expr::Neg(Box::new(random_expr(state, depth - 1))),
            4 => Expr::Bin(
                BinOp::Add,
                Box::new(random_expr(state, depth - 1)),
                Box::new(random_expr(state, depth - 1)),
            ),
            _ => Expr::ite(
                random_expr(state, depth - 1),
                random_expr(state, depth - 1),
                random_expr(state, depth - 1),
            ),
        }
    }

    /// The short-circuiting walk answers exactly what the collected,
    /// sorted and deduplicated variable list answers, for every
    /// predicate over a random variable subset.
    #[test]
    fn reads_any_var_agrees_with_vars_any() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..2000 {
            let e = random_expr(&mut state, 5);
            for mask in [0u32, 1, 0b1010_0101, 0x80, 0xff, (state % 256) as u32] {
                let pred = |v: VarId| mask & (1 << v.0) != 0;
                assert_eq!(e.reads_any_var(&pred), e.vars().into_iter().any(pred), "{e} {mask:b}");
            }
        }
    }

    #[test]
    fn display_round_trips_symbols() {
        let e = Expr::var(VarId(0))
            .ge(Expr::real(200.0))
            .and(Expr::var(VarId(0)).le(Expr::real(300.0)));
        let s = e.to_string();
        assert!(s.contains(">=") && s.contains("<=") && s.contains("and"));
    }
}
