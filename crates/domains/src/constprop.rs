//! Constant propagation: the classic *flat* (height-2) lattice per
//! variable, as used by Sagiv–Reps–Horwitz's "Precise interprocedural
//! dataflow analysis" — the related work the paper contrasts itself with
//! ("allows for infinite domains of finite height, but does not consider
//! infinite-height domains like intervals", §8).
//!
//! Including it here closes the loop: the same DAIG machinery that runs
//! interval/octagon/shape (infinite height, real widening) runs this
//! finite-height domain with widening degenerating to join, exactly as the
//! §2.3 discussion of finite-height domains predicts.
//!
//! A binding `x ↦ c` asserts that `x` currently holds *exactly* the
//! constant `c` (an integer, boolean, or `null`). Unbound variables may
//! hold anything. Abstract evaluation is constant folding with the
//! concrete semantics' trapping behavior: folding `1/0` or an overflowing
//! `+` yields `⊥` (the execution halts), not an arbitrary value.

use crate::{AbstractDomain, CallSite};
use dai_lang::interp::{ConcreteState, Value};
use dai_lang::{BinOp, Expr, Stmt, Symbol, UnOp, RETURN_VAR};
use std::collections::BTreeMap;
use std::fmt;

/// A propagated constant: the concrete scalar values of the language.
/// (Arrays and heap nodes are not propagated — they have identity and
/// value semantics that flat equality would misrepresent.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Const {
    /// An integer constant.
    Int(i64),
    /// A boolean constant.
    Bool(bool),
    /// The `null` reference.
    Null,
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(n) => write!(f, "{n}"),
            Const::Bool(b) => write!(f, "{b}"),
            Const::Null => write!(f, "null"),
        }
    }
}

/// Result of abstractly evaluating an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CVal {
    /// Evaluation traps (no value).
    Bot,
    /// Exactly this constant.
    Known(Const),
    /// Not a single known constant.
    Unknown,
}

/// The constant-propagation domain: `⊥` or an environment of constant
/// bindings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConstDomain {
    /// Unreachable.
    Bottom,
    /// Reachable with the given constant bindings.
    Env(BTreeMap<Symbol, Const>),
}

impl ConstDomain {
    /// The unconstrained state (no bindings).
    pub fn top() -> ConstDomain {
        ConstDomain::Env(BTreeMap::new())
    }

    /// A state from explicit bindings.
    pub fn from_bindings(bindings: impl IntoIterator<Item = (Symbol, Const)>) -> ConstDomain {
        ConstDomain::Env(bindings.into_iter().collect())
    }

    /// The constant bound to `var`, if any.
    pub fn const_of(&self, var: &str) -> Option<Const> {
        match self {
            ConstDomain::Bottom => None,
            ConstDomain::Env(env) => env.get(&Symbol::new(var)).copied(),
        }
    }

    fn with_binding(&self, var: &Symbol, v: CVal) -> ConstDomain {
        let ConstDomain::Env(env) = self else {
            return ConstDomain::Bottom;
        };
        let mut env = env.clone();
        match v {
            CVal::Bot => return ConstDomain::Bottom,
            CVal::Known(c) => {
                env.insert(var.clone(), c);
            }
            CVal::Unknown => {
                env.remove(var);
            }
        }
        ConstDomain::Env(env)
    }

    /// Refines this state by assuming `cond` evaluates to `expected`.
    fn refine(&self, cond: &Expr, expected: bool) -> ConstDomain {
        let ConstDomain::Env(env) = self else {
            return ConstDomain::Bottom;
        };
        match eval_const(env, cond) {
            CVal::Bot => return ConstDomain::Bottom,
            CVal::Known(Const::Bool(b)) if b != expected => return ConstDomain::Bottom,
            CVal::Known(Const::Bool(_)) => return self.clone(),
            CVal::Known(_) => return ConstDomain::Bottom, // guard on non-boolean traps
            CVal::Unknown => {}
        }
        match cond {
            Expr::Unary(UnOp::Not, inner) => self.refine(inner, !expected),
            Expr::Binary(BinOp::And, l, r) if expected => {
                let first = self.refine(l, true);
                if first.is_bottom() {
                    first
                } else {
                    first.refine(r, true)
                }
            }
            Expr::Binary(BinOp::Or, l, r) if !expected => {
                let first = self.refine(l, false);
                if first.is_bottom() {
                    first
                } else {
                    first.refine(r, false)
                }
            }
            // Equality against a constant pins the variable (the only
            // comparison a flat lattice can exploit).
            Expr::Binary(BinOp::Eq, l, r) if expected => self.refine_eq(l, r).refine_eq(r, l),
            Expr::Binary(BinOp::Ne, l, r) if !expected => self.refine_eq(l, r).refine_eq(r, l),
            _ => self.clone(),
        }
    }

    /// Refines `l == r` (taken true) when `l` is a variable and `r` folds
    /// to a constant.
    fn refine_eq(&self, l: &Expr, r: &Expr) -> ConstDomain {
        let ConstDomain::Env(env) = self else {
            return ConstDomain::Bottom;
        };
        let Expr::Var(x) = l else { return self.clone() };
        match eval_const(env, r) {
            CVal::Known(c) => self.with_binding(x, CVal::Known(c)),
            _ => self.clone(),
        }
    }
}

impl fmt::Display for ConstDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstDomain::Bottom => write!(f, "⊥"),
            ConstDomain::Env(env) => {
                write!(f, "{{")?;
                for (i, (k, v)) in env.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Constant-folds `expr` in `env`, trapping exactly when the concrete
/// semantics would (overflow, division by zero, type confusion).
fn eval_const(env: &BTreeMap<Symbol, Const>, expr: &Expr) -> CVal {
    match expr {
        Expr::Int(n) => CVal::Known(Const::Int(*n)),
        Expr::Bool(b) => CVal::Known(Const::Bool(*b)),
        Expr::Null => CVal::Known(Const::Null),
        Expr::Var(x) => env.get(x).map(|c| CVal::Known(*c)).unwrap_or(CVal::Unknown),
        Expr::Unary(UnOp::Neg, e) => match eval_const(env, e) {
            CVal::Known(Const::Int(n)) => n
                .checked_neg()
                .map(|m| CVal::Known(Const::Int(m)))
                .unwrap_or(CVal::Bot),
            CVal::Known(_) => CVal::Bot, // negating a non-integer traps
            other => other,
        },
        Expr::Unary(UnOp::Not, e) => match eval_const(env, e) {
            CVal::Known(Const::Bool(b)) => CVal::Known(Const::Bool(!b)),
            CVal::Known(_) => CVal::Bot,
            other => other,
        },
        Expr::Binary(op, l, r) => {
            let (a, b) = (eval_const(env, l), eval_const(env, r));
            match (a, b) {
                (CVal::Bot, _) | (_, CVal::Bot) => CVal::Bot,
                (CVal::Known(ca), CVal::Known(cb)) => fold_binop(*op, ca, cb),
                _ => CVal::Unknown,
            }
        }
        // Arrays and heap values are not propagated.
        Expr::ArrayLit(_)
        | Expr::ArrayRead(..)
        | Expr::ArrayLen(_)
        | Expr::Field(..)
        | Expr::AllocNode => CVal::Unknown,
    }
}

/// Folds a binary operation on two scalar constants, mirroring the
/// concrete semantics (including its traps).
fn fold_binop(op: BinOp, a: Const, b: Const) -> CVal {
    use BinOp::*;
    use Const::*;
    match (op, a, b) {
        (Add, Int(x), Int(y)) => int_or_trap(x.checked_add(y)),
        (Sub, Int(x), Int(y)) => int_or_trap(x.checked_sub(y)),
        (Mul, Int(x), Int(y)) => int_or_trap(x.checked_mul(y)),
        (Div, Int(_), Int(0)) | (Mod, Int(_), Int(0)) => CVal::Bot,
        (Div, Int(x), Int(y)) => int_or_trap(x.checked_div(y)),
        (Mod, Int(x), Int(y)) => int_or_trap(x.checked_rem(y)),
        (Lt, Int(x), Int(y)) => CVal::Known(Bool(x < y)),
        (Le, Int(x), Int(y)) => CVal::Known(Bool(x <= y)),
        (Gt, Int(x), Int(y)) => CVal::Known(Bool(x > y)),
        (Ge, Int(x), Int(y)) => CVal::Known(Bool(x >= y)),
        (Eq, Int(x), Int(y)) => CVal::Known(Bool(x == y)),
        (Ne, Int(x), Int(y)) => CVal::Known(Bool(x != y)),
        (Eq, Bool(x), Bool(y)) => CVal::Known(Bool(x == y)),
        (Ne, Bool(x), Bool(y)) => CVal::Known(Bool(x != y)),
        (Eq, Null, Null) => CVal::Known(Bool(true)),
        (Ne, Null, Null) => CVal::Known(Bool(false)),
        (And, Bool(x), Bool(y)) => CVal::Known(Bool(x && y)),
        (Or, Bool(x), Bool(y)) => CVal::Known(Bool(x || y)),
        // Everything else (arithmetic on booleans, ordering null, mixed
        // scalar families) traps in the concrete semantics.
        _ => CVal::Bot,
    }
}

fn int_or_trap(v: Option<i64>) -> CVal {
    v.map(|n| CVal::Known(Const::Int(n))).unwrap_or(CVal::Bot)
}

impl AbstractDomain for ConstDomain {
    fn bottom() -> Self {
        ConstDomain::Bottom
    }

    fn is_bottom(&self) -> bool {
        matches!(self, ConstDomain::Bottom)
    }

    fn entry_default(_params: &[Symbol]) -> Self {
        ConstDomain::top()
    }

    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (ConstDomain::Bottom, x) | (x, ConstDomain::Bottom) => x.clone(),
            (ConstDomain::Env(a), ConstDomain::Env(b)) => {
                // Flat join: keep only bindings equal on both sides.
                let env = a
                    .iter()
                    .filter(|(k, va)| b.get(*k) == Some(va))
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                ConstDomain::Env(env)
            }
        }
    }

    fn widen(&self, next: &Self) -> Self {
        // Flat lattice: chains have length ≤ 2 per variable, join suffices.
        self.join(next)
    }

    fn leq(&self, other: &Self) -> bool {
        match (self, other) {
            (ConstDomain::Bottom, _) => true,
            (_, ConstDomain::Bottom) => false,
            (ConstDomain::Env(a), ConstDomain::Env(b)) => {
                b.iter().all(|(k, vb)| a.get(k) == Some(vb))
            }
        }
    }

    fn transfer(&self, stmt: &Stmt) -> Self {
        let ConstDomain::Env(env) = self else {
            return ConstDomain::Bottom;
        };
        match stmt {
            Stmt::Skip | Stmt::Print(_) => self.clone(),
            Stmt::Assign(x, e) => self.with_binding(x, eval_const(env, e)),
            Stmt::ArrayWrite(a, i, e) => {
                // Writing into a scalar constant traps; a genuine array is
                // untracked, so only the index/value traps matter.
                if env.contains_key(a) {
                    return ConstDomain::Bottom;
                }
                match (eval_const(env, i), eval_const(env, e)) {
                    (CVal::Bot, _) | (_, CVal::Bot) => ConstDomain::Bottom,
                    (CVal::Known(Const::Int(n)), _) if n < 0 => ConstDomain::Bottom,
                    (CVal::Known(c), _) if !matches!(c, Const::Int(_)) => {
                        ConstDomain::Bottom // non-integer index traps
                    }
                    _ => self.clone(),
                }
            }
            Stmt::FieldWrite(x, _, _) => {
                if env.contains_key(x) {
                    return ConstDomain::Bottom; // scalars are not nodes
                }
                self.clone()
            }
            Stmt::Assume(e) => self.refine(e, true),
            Stmt::Call { lhs, .. } => match lhs {
                Some(x) => self.with_binding(x, CVal::Unknown),
                None => self.clone(),
            },
        }
    }

    fn call_entry(&self, site: CallSite<'_>, callee_params: &[Symbol]) -> Self {
        let ConstDomain::Env(env) = self else {
            return ConstDomain::Bottom;
        };
        ConstDomain::from_bindings(callee_params.iter().zip(site.args).filter_map(|(p, a)| {
            match eval_const(env, a) {
                CVal::Known(c) => Some((p.clone(), c)),
                _ => None,
            }
        }))
    }

    fn call_return(&self, site: CallSite<'_>, callee_exit: &Self) -> Self {
        if self.is_bottom() || callee_exit.is_bottom() {
            return ConstDomain::Bottom;
        }
        match site.lhs {
            Some(x) => {
                let ret = match callee_exit {
                    ConstDomain::Env(env) => env
                        .get(&Symbol::new(RETURN_VAR))
                        .map(|c| CVal::Known(*c))
                        .unwrap_or(CVal::Unknown),
                    ConstDomain::Bottom => CVal::Bot,
                };
                self.with_binding(x, ret)
            }
            None => self.clone(),
        }
    }

    fn models(&self, concrete: &ConcreteState) -> bool {
        let ConstDomain::Env(env) = self else {
            return false;
        };
        concrete.env.iter().all(|(x, v)| match env.get(x) {
            None => true,
            Some(Const::Int(n)) => matches!(v, Value::Int(m) if m == n),
            Some(Const::Bool(b)) => matches!(v, Value::Bool(c) if c == b),
            Some(Const::Null) => matches!(v, Value::Null),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dai_lang::parse_expr;

    fn assign(d: &ConstDomain, var: &str, e: &str) -> ConstDomain {
        d.transfer(&Stmt::Assign(var.into(), parse_expr(e).unwrap()))
    }

    #[test]
    fn constant_folding_chains() {
        let d = assign(&ConstDomain::top(), "x", "2 + 3");
        let d = assign(&d, "y", "x * x");
        let d = assign(&d, "b", "y == 25");
        assert_eq!(d.const_of("x"), Some(Const::Int(5)));
        assert_eq!(d.const_of("y"), Some(Const::Int(25)));
        assert_eq!(d.const_of("b"), Some(Const::Bool(true)));
    }

    #[test]
    fn unknown_operand_poisons_result_only() {
        let d = assign(&ConstDomain::top(), "y", "unknown + 1");
        assert_eq!(d.const_of("y"), None);
        let d = assign(&d, "z", "1 + 2");
        assert_eq!(d.const_of("z"), Some(Const::Int(3)));
    }

    #[test]
    fn trapping_folds_are_bottom() {
        // Division by a known zero halts the execution.
        assert!(assign(&ConstDomain::top(), "x", "1 / 0").is_bottom());
        assert!(assign(&ConstDomain::top(), "x", "1 % 0").is_bottom());
        // Arithmetic on booleans halts.
        assert!(assign(&ConstDomain::top(), "x", "true + 1").is_bottom());
        // Overflow halts (the concrete semantics traps rather than wraps).
        let d = assign(&ConstDomain::top(), "big", "9223372036854775807");
        assert!(assign(&d, "x", "big + 1").is_bottom());
    }

    #[test]
    fn flat_join_keeps_agreeing_bindings() {
        let a = ConstDomain::from_bindings([
            (Symbol::new("x"), Const::Int(1)),
            (Symbol::new("y"), Const::Int(7)),
        ]);
        let b = ConstDomain::from_bindings([
            (Symbol::new("x"), Const::Int(2)),
            (Symbol::new("y"), Const::Int(7)),
        ]);
        let j = a.join(&b);
        assert_eq!(j.const_of("x"), None, "disagreeing constants drop to ⊤");
        assert_eq!(j.const_of("y"), Some(Const::Int(7)));
        assert!(a.leq(&j) && b.leq(&j));
        assert_eq!(a.widen(&b), j, "flat widening is join");
    }

    #[test]
    fn assume_prunes_and_pins() {
        let d = assign(&ConstDomain::top(), "x", "4");
        // Contradicted guard: unreachable.
        assert!(d
            .transfer(&Stmt::Assume(parse_expr("x == 5").unwrap()))
            .is_bottom());
        // Consistent guard: state survives.
        let d2 = d.transfer(&Stmt::Assume(parse_expr("x == 4").unwrap()));
        assert_eq!(d2.const_of("x"), Some(Const::Int(4)));
        // Equality against a constant pins an unknown variable.
        let d3 = ConstDomain::top().transfer(&Stmt::Assume(parse_expr("u == 9").unwrap()));
        assert_eq!(d3.const_of("u"), Some(Const::Int(9)));
        // ¬(u != 9) pins too.
        let d4 = ConstDomain::top().transfer(&Stmt::Assume(parse_expr("!(u != 9)").unwrap()));
        assert_eq!(d4.const_of("u"), Some(Const::Int(9)));
    }

    #[test]
    fn null_and_bool_constants() {
        let d = assign(&ConstDomain::top(), "p", "null");
        assert_eq!(d.const_of("p"), Some(Const::Null));
        let d = assign(&d, "q", "p == null");
        assert_eq!(d.const_of("q"), Some(Const::Bool(true)));
        let d = assign(&d, "r", "!q");
        assert_eq!(d.const_of("r"), Some(Const::Bool(false)));
    }

    #[test]
    fn models_concrete_states() {
        let d = ConstDomain::from_bindings([(Symbol::new("x"), Const::Int(3))]);
        let mut c = ConcreteState::new();
        c.env.insert(Symbol::new("x"), Value::Int(3));
        assert!(d.models(&c));
        c.env.insert(Symbol::new("x"), Value::Int(4));
        assert!(!d.models(&c));
        c.env.insert(Symbol::new("x"), Value::Bool(true));
        assert!(!d.models(&c));
    }

    #[test]
    fn guard_on_non_boolean_is_unreachable() {
        let d = assign(&ConstDomain::top(), "x", "3");
        assert!(d
            .transfer(&Stmt::Assume(parse_expr("x").unwrap()))
            .is_bottom());
    }

    #[test]
    fn call_entry_and_return_propagate_constants() {
        let caller = assign(&ConstDomain::top(), "a", "11");
        let args = vec![parse_expr("a").unwrap()];
        let lhs = Symbol::new("out");
        let callee = Symbol::new("f");
        let site = CallSite {
            lhs: Some(&lhs),
            callee: &callee,
            args: &args,
            site_key: "main:e0",
        };
        let entry = caller.call_entry(site, &[Symbol::new("p")]);
        assert_eq!(entry.const_of("p"), Some(Const::Int(11)));
        let exit = ConstDomain::from_bindings([(Symbol::new(RETURN_VAR), Const::Int(99))]);
        let after = caller.call_return(site, &exit);
        assert_eq!(after.const_of("out"), Some(Const::Int(99)));
        assert_eq!(
            after.const_of("a"),
            Some(Const::Int(11)),
            "caller state framed"
        );
    }
}
