//! Direct products of abstract domains.
//!
//! The paper's framework is parametric in a single abstract interpreter
//! `⟨Σ♯, φ₀, ⟦·⟧♯, ⊑, ⊔, ∇⟩`; [`Prod`] builds a new instance of that
//! interface out of two existing ones, running both component analyses in
//! lockstep over the same DAIG. This is the standard *direct product*
//! construction (with `⊥`-smashing so that unreachability in either
//! component is unreachability of the pair); full *reduced* products —
//! where components exchange information at every step — are
//! domain-specific and out of scope, but `⊥`-smashing already captures the
//! most important reduction (dead code detected by either analysis kills
//! the other's state too).
//!
//! Products compose: `Prod<Prod<A, B>, C>` is a three-way product.
//!
//! ```
//! use dai_domains::product::Prod;
//! use dai_domains::{AbstractDomain, IntervalDomain, SignDomain};
//!
//! type Both = Prod<IntervalDomain, SignDomain>;
//! let top = Both::entry_default(&[]);
//! assert!(!top.is_bottom());
//! ```

use crate::{AbstractDomain, CallSite};
use dai_lang::interp::ConcreteState;
use dai_lang::{Stmt, Symbol};
use std::fmt;

/// The direct product of two abstract domains, with `⊥`-smashing: a pair
/// is `⊥` as soon as either component is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Prod<A, B>(pub A, pub B);

impl<A: AbstractDomain, B: AbstractDomain> Prod<A, B> {
    /// Creates a smashed pair: if either side is `⊥`, both become `⊥`
    /// (canonical form, so `Eq`/`Hash` see one bottom).
    pub fn new(a: A, b: B) -> Prod<A, B> {
        if a.is_bottom() || b.is_bottom() {
            Prod(A::bottom(), B::bottom())
        } else {
            Prod(a, b)
        }
    }

    /// The first component.
    pub fn first(&self) -> &A {
        &self.0
    }

    /// The second component.
    pub fn second(&self) -> &B {
        &self.1
    }
}

impl<A: fmt::Display, B: fmt::Display> fmt::Display for Prod<A, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} × {})", self.0, self.1)
    }
}

impl<A: AbstractDomain, B: AbstractDomain> AbstractDomain for Prod<A, B> {
    fn bottom() -> Self {
        Prod(A::bottom(), B::bottom())
    }

    fn is_bottom(&self) -> bool {
        // Smashing keeps this equivalent to `||`, but check both for
        // robustness against hand-built pairs.
        self.0.is_bottom() || self.1.is_bottom()
    }

    fn entry_default(params: &[Symbol]) -> Self {
        Prod::new(A::entry_default(params), B::entry_default(params))
    }

    fn join(&self, other: &Self) -> Self {
        if self.is_bottom() {
            return other.clone();
        }
        if other.is_bottom() {
            return self.clone();
        }
        Prod::new(self.0.join(&other.0), self.1.join(&other.1))
    }

    fn widen(&self, next: &Self) -> Self {
        if self.is_bottom() {
            return next.clone();
        }
        if next.is_bottom() {
            return self.clone();
        }
        Prod::new(self.0.widen(&next.0), self.1.widen(&next.1))
    }

    fn leq(&self, other: &Self) -> bool {
        self.is_bottom() || (self.0.leq(&other.0) && self.1.leq(&other.1))
    }

    fn transfer(&self, stmt: &Stmt) -> Self {
        Prod::new(self.0.transfer(stmt), self.1.transfer(stmt))
    }

    fn call_entry(&self, site: CallSite<'_>, callee_params: &[Symbol]) -> Self {
        Prod::new(
            self.0.call_entry(site, callee_params),
            self.1.call_entry(site, callee_params),
        )
    }

    fn call_return(&self, site: CallSite<'_>, callee_exit: &Self) -> Self {
        Prod::new(
            self.0.call_return(site, &callee_exit.0),
            self.1.call_return(site, &callee_exit.1),
        )
    }

    fn models(&self, concrete: &ConcreteState) -> bool {
        self.0.models(concrete) && self.1.models(concrete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constprop::{Const, ConstDomain};
    use crate::sign::{Sign, SignDomain};
    use crate::IntervalDomain;
    use dai_lang::parse_expr;

    type IS = Prod<IntervalDomain, SignDomain>;

    fn assume(d: &IS, e: &str) -> IS {
        d.transfer(&Stmt::Assume(parse_expr(e).unwrap()))
    }

    #[test]
    fn bottom_smashing_is_canonical() {
        let smashed = IS::new(IntervalDomain::bottom(), SignDomain::top());
        assert!(smashed.is_bottom());
        assert_eq!(smashed, IS::bottom(), "smashing canonicalizes Eq");
    }

    #[test]
    fn components_analyze_in_lockstep() {
        let d =
            IS::entry_default(&[]).transfer(&Stmt::Assign("x".into(), parse_expr("5").unwrap()));
        assert_eq!(d.first().interval_of("x"), dai_domains_interval_constant(5));
        assert_eq!(d.second().sign_of("x"), Sign::POS);
    }

    // Small helper aliasing the interval constructor (keeps the test body
    // on one line above).
    fn dai_domains_interval_constant(n: i64) -> crate::interval::Interval {
        crate::interval::Interval::constant(n)
    }

    #[test]
    fn either_component_can_kill_the_pair() {
        let d =
            IS::entry_default(&[]).transfer(&Stmt::Assign("x".into(), parse_expr("5").unwrap()));
        // Interval knows x = 5, so x < 0 is infeasible even though the
        // sign component alone would only refine to ⊥ via its own check.
        assert!(assume(&d, "x < 0").is_bottom());
        // And a contradiction caught by sign-refinement kills intervals.
        let d2 = assume(&IS::entry_default(&[]), "y > 0");
        assert!(assume(&d2, "y == 0").is_bottom());
    }

    #[test]
    fn product_is_at_least_as_precise_as_each_component() {
        let d = assume(&IS::entry_default(&[]), "x >= 1 && x <= 9");
        let iv = d.first().interval_of("x");
        assert!(iv.contains(1) && iv.contains(9) && !iv.contains(0));
        assert_eq!(d.second().sign_of("x"), Sign::POS);
    }

    #[test]
    fn lattice_ops_are_componentwise() {
        let a = assume(&IS::entry_default(&[]), "x == 1");
        let b = assume(&IS::entry_default(&[]), "x == 3");
        let j = a.join(&b);
        let iv = j.first().interval_of("x");
        assert!(iv.contains(1) && iv.contains(3) && !iv.contains(4));
        assert_eq!(j.second().sign_of("x"), Sign::POS);
        assert!(a.leq(&j) && b.leq(&j));
        let w = a.widen(&b);
        assert!(a.leq(&w));
    }

    #[test]
    fn three_way_products_compose() {
        type Three = Prod<Prod<IntervalDomain, SignDomain>, ConstDomain>;
        let d = Three::entry_default(&[])
            .transfer(&Stmt::Assign("k".into(), parse_expr("42").unwrap()));
        assert_eq!(d.first().second().sign_of("k"), Sign::POS);
        assert_eq!(d.second().const_of("k"), Some(Const::Int(42)));
        assert!(!d.is_bottom());
    }

    #[test]
    fn models_requires_both_components() {
        use dai_lang::interp::{ConcreteState, Value};
        let d = assume(&IS::entry_default(&[]), "x > 0");
        let mut c = ConcreteState::new();
        c.env.insert(Symbol::new("x"), Value::Int(5));
        assert!(d.models(&c));
        c.env.insert(Symbol::new("x"), Value::Int(-5));
        assert!(!d.models(&c));
    }

    #[test]
    fn join_with_bottom_is_identity() {
        let a = assume(&IS::entry_default(&[]), "x == 1");
        assert_eq!(a.join(&IS::bottom()), a);
        assert_eq!(IS::bottom().join(&a), a);
        assert!(IS::bottom().leq(&a));
    }
}
