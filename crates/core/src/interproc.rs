//! Context-sensitive interprocedural demanded analysis (paper §7.1).
//!
//! "We initially construct a DAIG only for the 'main' procedure in the
//! initial context. Then, when a query is issued for the abstract state
//! after a call, we construct a DAIG for its callee in the proper context."
//! Contexts are chosen by a pluggable [`ContextPolicy`]; the paper's
//! functors for context-insensitivity and 1-/2-call-site sensitivity are
//! [`ContextPolicy::Insensitive`] and [`ContextPolicy::CallString`].
//!
//! A callee's entry state under a context is the join of the entry
//! contributions from the call sites mapping to that context; contributions
//! accumulate as callers are evaluated, and feeding a larger entry into a
//! callee is an ordinary DAIG *edit* of its `φ₀` cell (dirtying downstream
//! results). Programs must be non-recursive with static calls (checked at
//! lowering), so cross-DAIG demand is well-founded.

use crate::analysis::FuncAnalysis;
use crate::graph::{DaigError, Value};
use crate::name::Name;
use crate::query::{CallResolver, QueryStats};
use dai_domains::{AbstractDomain, CallSite};
use dai_lang::cfg::LoweredProgram;
use dai_lang::edit::SpliceInfo;
use dai_lang::{Block, CfgError, EdgeId, Loc, Stmt, Symbol};
use dai_memo::{MemoStore, MemoTable};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// A calling context: the most recent call edges, outermost last
/// (bounded by the policy's `k`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Context(pub Vec<(Symbol, EdgeId)>);

impl Context {
    /// The empty (root) context.
    pub fn root() -> Context {
        Context(Vec::new())
    }
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "ε");
        }
        for (i, (g, e)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            write!(f, "{g}:{e}")?;
        }
        Ok(())
    }
}

/// How callee contexts are derived from call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContextPolicy {
    /// One context per function (0-call-string).
    Insensitive,
    /// k-call-string sensitivity (the paper evaluates k = 1 and k = 2).
    CallString(usize),
}

impl ContextPolicy {
    /// The callee context for a call at `(caller, edge)` in `caller_ctx`.
    pub fn extend(&self, caller_ctx: &Context, caller: &Symbol, edge: EdgeId) -> Context {
        match self {
            ContextPolicy::Insensitive => Context::root(),
            ContextPolicy::CallString(k) => {
                let mut v = vec![(caller.clone(), edge)];
                v.extend(caller_ctx.0.iter().cloned());
                v.truncate(*k);
                Context(v)
            }
        }
    }
}

/// The interprocedural analyzer: per-`(function, context)` DAIGs created
/// on demand, a shared memo table, and the entry-join bookkeeping.
pub struct InterAnalyzer<D: AbstractDomain> {
    program: LoweredProgram,
    policy: ContextPolicy,
    entry_fn: Symbol,
    phi0: D,
    strategy: crate::strategy::FixStrategy,
    units: HashMap<(Symbol, Context), FuncAnalysis<D>>,
    memo: MemoTable<Value<D>>,
    stats: QueryStats,
}

/// Resolves calls by demanding callee DAIG exits.
struct InterResolver<'a, D: AbstractDomain> {
    analyzer: &'a mut InterAnalyzer<D>,
    caller: Symbol,
    caller_ctx: Context,
}

impl<D: AbstractDomain> CallResolver<D> for InterResolver<'_, D> {
    fn resolve(
        &mut self,
        pre: &D,
        stmt: &Stmt,
        edge: EdgeId,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        self.analyzer
            .resolve_call(&self.caller, &self.caller_ctx, pre, stmt, edge, memo, stats)
    }
}

impl<D: AbstractDomain> InterAnalyzer<D> {
    /// Creates an analyzer for `program`, analyzing from `entry_fn` with
    /// entry state `φ₀` under the given context policy and the paper's
    /// default iteration strategy.
    pub fn new(
        program: LoweredProgram,
        policy: ContextPolicy,
        entry_fn: &str,
        phi0: D,
    ) -> InterAnalyzer<D> {
        InterAnalyzer::with_strategy(
            program,
            policy,
            entry_fn,
            phi0,
            crate::strategy::FixStrategy::PAPER,
        )
    }

    /// Like [`InterAnalyzer::new`] but with an explicit loop-head
    /// iteration strategy applied to every unit (see [`crate::strategy`]).
    pub fn with_strategy(
        program: LoweredProgram,
        policy: ContextPolicy,
        entry_fn: &str,
        phi0: D,
        strategy: crate::strategy::FixStrategy,
    ) -> InterAnalyzer<D> {
        InterAnalyzer {
            program,
            policy,
            entry_fn: Symbol::new(entry_fn),
            phi0,
            strategy,
            units: HashMap::new(),
            memo: MemoTable::new(),
            stats: QueryStats::default(),
        }
    }

    /// The program under analysis.
    pub fn program(&self) -> &LoweredProgram {
        &self.program
    }

    /// Cumulative query statistics.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Shared memo-table statistics.
    pub fn memo_stats(&self) -> dai_memo::MemoStats {
        *self.memo.stats()
    }

    /// Number of DAIG units constructed so far.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// All `(function, context)` units constructed so far, unordered
    /// (callers sort for deterministic output — see `dai-engine`'s
    /// session snapshot).
    pub fn units_iter(&self) -> impl Iterator<Item = (&(Symbol, Context), &FuncAnalysis<D>)> {
        self.units.iter()
    }

    /// All contexts in which `f` can be analyzed, discovered by walking the
    /// static call graph from the entry function under the policy.
    pub fn contexts_of(&self, f: &str) -> Vec<Context> {
        let mut out: HashMap<Symbol, HashSet<Context>> = HashMap::new();
        let mut queue: VecDeque<(Symbol, Context)> = VecDeque::new();
        out.entry(self.entry_fn.clone())
            .or_default()
            .insert(Context::root());
        queue.push_back((self.entry_fn.clone(), Context::root()));
        let mut seen: HashSet<(Symbol, Context)> = HashSet::new();
        while let Some((g, cg)) = queue.pop_front() {
            if !seen.insert((g.clone(), cg.clone())) {
                continue;
            }
            let Some(cfg) = self.program.by_name(g.as_str()) else {
                continue;
            };
            for e in cfg.edges() {
                if let Some(callee) = e.stmt.callee() {
                    if self.program.by_name(callee.as_str()).is_none() {
                        continue;
                    }
                    let ctx2 = self.policy.extend(&cg, &g, e.id);
                    out.entry(callee.clone()).or_default().insert(ctx2.clone());
                    queue.push_back((callee.clone(), ctx2));
                }
            }
        }
        let mut v: Vec<Context> = out
            .remove(&Symbol::new(f))
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        v.sort();
        v
    }

    fn ensure_unit(&mut self, f: &Symbol, ctx: &Context) -> Result<(), DaigError> {
        let key = (f.clone(), ctx.clone());
        if self.units.contains_key(&key) {
            return Ok(());
        }
        let cfg = self
            .program
            .by_name(f.as_str())
            .ok_or_else(|| DaigError::NoSuchCell(format!("function {f}")))?
            .clone();
        let entry = if *f == self.entry_fn && ctx.0.is_empty() {
            self.phi0.clone()
        } else {
            D::bottom()
        };
        self.units
            .insert(key, FuncAnalysis::with_strategy(cfg, entry, self.strategy));
        Ok(())
    }

    /// Demands the exit state of `(f, ctx)`.
    fn query_exit_of(
        &mut self,
        f: &Symbol,
        ctx: &Context,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        self.ensure_unit(f, ctx)?;
        let key = (f.clone(), ctx.clone());
        let mut unit = self.units.remove(&key).expect("ensured");
        let mut resolver = InterResolver {
            analyzer: self,
            caller: f.clone(),
            caller_ctx: ctx.clone(),
        };
        let out = unit.query_exit(memo, &mut resolver, stats);
        self.units.insert(key, unit);
        out
    }

    /// Demands the fixed-point-consistent state at `loc` in `(f, ctx)`.
    fn query_loc_of(
        &mut self,
        f: &Symbol,
        ctx: &Context,
        loc: Loc,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        self.ensure_unit(f, ctx)?;
        let key = (f.clone(), ctx.clone());
        let mut unit = self.units.remove(&key).expect("ensured");
        let mut resolver = InterResolver {
            analyzer: self,
            caller: f.clone(),
            caller_ctx: ctx.clone(),
        };
        let out = unit.query_loc(memo, loc, &mut resolver, stats);
        self.units.insert(key, unit);
        out
    }

    /// Resolves one call: joins the entry contribution into the callee's
    /// context, demands the callee's exit, and applies the return transfer.
    #[allow(clippy::too_many_arguments)]
    fn resolve_call(
        &mut self,
        caller: &Symbol,
        caller_ctx: &Context,
        pre: &D,
        stmt: &Stmt,
        edge: EdgeId,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        let Stmt::Call { lhs, callee, args } = stmt else {
            return Err(DaigError::Invariant("resolve_call on non-call".to_string()));
        };
        if pre.is_bottom() {
            return Ok(D::bottom());
        }
        let Some(callee_cfg) = self.program.by_name(callee.as_str()) else {
            // Unknown callee: fall back to the domain's conservative call
            // transfer.
            return Ok(pre.transfer(stmt));
        };
        let params: Vec<Symbol> = callee_cfg.params().to_vec();
        let site_key = format!("{caller}:{edge}");
        let site = CallSite {
            lhs: lhs.as_ref(),
            callee,
            args: args.as_slice(),
            site_key: &site_key,
        };
        let contribution = pre.call_entry(site, &params);
        let ctx2 = self.policy.extend(caller_ctx, caller, edge);
        self.ensure_unit(callee, &ctx2)?;
        {
            let unit = self
                .units
                .get_mut(&(callee.clone(), ctx2.clone()))
                .expect("ensured");
            let joined = unit.entry_state().join(&contribution);
            unit.set_entry_state(joined);
        }
        let exit = self.query_exit_of(callee, &ctx2, memo, stats)?;
        Ok(pre.call_return(site, &exit))
    }

    /// Seeds the entry of `(f, ctx)` from all of its call sites' current
    /// (fixed-point-consistent) pre-states. Needed when a query targets a
    /// function directly, before any caller has been demanded.
    fn force_entry(
        &mut self,
        f: &Symbol,
        ctx: &Context,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<(), DaigError> {
        if *f == self.entry_fn && ctx.0.is_empty() {
            return Ok(());
        }
        // All call sites of f whose policy-context matches ctx.
        let sites = self.program.call_sites_of(f.as_str());
        for (g, e) in sites {
            let caller_ctxs = self.contexts_of(g.as_str());
            for cg in caller_ctxs {
                if self.policy.extend(&cg, &g, e) != *ctx {
                    continue;
                }
                // The caller's own entry must be populated first (demand
                // flows transitively up the acyclic call graph).
                self.ensure_unit(&g, &cg)?;
                self.force_entry(&g, &cg, memo, stats)?;
                let edge = self
                    .program
                    .by_name(g.as_str())
                    .and_then(|c| c.edge(e))
                    .cloned()
                    .ok_or_else(|| DaigError::Invariant(format!("missing edge {e} in {g}")))?;
                let pre = self.query_loc_of(&g, &cg, edge.src, memo, stats)?;
                // Feeding the contribution is exactly what resolve_call
                // does; reuse it for the side effect on the entry join.
                let _ = self.resolve_call(&g, &cg, &pre, &edge.stmt, e, memo, stats)?;
            }
        }
        Ok(())
    }

    /// Demands the abstract state at `loc` of `f` under every context the
    /// call structure induces, returning per-context results.
    ///
    /// # Errors
    ///
    /// Returns [`DaigError`] for unknown functions/locations or internal
    /// inconsistencies.
    pub fn query_at(&mut self, f: &str, loc: Loc) -> Result<Vec<(Context, D)>, DaigError> {
        let fsym = Symbol::new(f);
        let mut memo = std::mem::take(&mut self.memo);
        let mut stats = QueryStats::default();
        let mut out = Vec::new();
        let result = (|| {
            // A function with no contexts is unreachable from the entry:
            // every location in it is dead code, reported as no results
            // (joined: ⊥). This matches demand semantics — a DAIG for it
            // would have a ⊥ entry.
            let ctxs = self.contexts_of(f);
            for ctx in ctxs {
                self.ensure_unit(&fsym, &ctx)?;
                self.force_entry(&fsym, &ctx, &mut memo, &mut stats)?;
                let v = self.query_loc_of(&fsym, &ctx, loc, &mut memo, &mut stats)?;
                out.push((ctx, v));
            }
            Ok(())
        })();
        self.memo = memo;
        self.stats.absorb(stats);
        result.map(|()| out)
    }

    /// Like [`InterAnalyzer::query_at`] but joined over contexts.
    ///
    /// # Errors
    ///
    /// See [`InterAnalyzer::query_at`].
    pub fn query_joined(&mut self, f: &str, loc: Loc) -> Result<D, DaigError> {
        let per_ctx = self.query_at(f, loc)?;
        let mut acc = D::bottom();
        for (_, v) in per_ctx {
            acc = acc.join(&v);
        }
        Ok(acc)
    }

    /// Evaluates everything: every unit of every reachable
    /// (function, context), callers before callees so entry joins are
    /// complete. Used by the exhaustive driver configurations.
    ///
    /// # Errors
    ///
    /// See [`InterAnalyzer::query_at`].
    pub fn evaluate_everything(&mut self) -> Result<(), DaigError> {
        let mut memo = std::mem::take(&mut self.memo);
        let mut stats = QueryStats::default();
        let result = (|| {
            // Callers first: reverse of callees-first topo order.
            let order: Vec<Symbol> = self.program.topo_order().iter().rev().cloned().collect();
            for f in order {
                for ctx in self.contexts_of(f.as_str()) {
                    self.ensure_unit(&f, &ctx)?;
                    self.force_entry(&f, &ctx, &mut memo, &mut stats)?;
                    let key = (f.clone(), ctx.clone());
                    let mut unit = self.units.remove(&key).expect("ensured");
                    let mut resolver = InterResolver {
                        analyzer: self,
                        caller: f.clone(),
                        caller_ctx: ctx.clone(),
                    };
                    let r = unit.evaluate_all(&mut memo, &mut resolver, &mut stats);
                    self.units.insert(key, unit);
                    r?;
                }
            }
            Ok(())
        })();
        self.memo = memo;
        self.stats.absorb(stats);
        result
    }

    /// Applies an in-place statement relabel to `f` (all contexts),
    /// propagating dirtiness across function boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError`] for unknown edges and call-graph violations.
    pub fn relabel(&mut self, f: &str, edge: EdgeId, stmt: Stmt) -> Result<(), CfgError> {
        let cfg = self
            .program
            .by_name_mut(f)
            .ok_or_else(|| CfgError::UndefinedFunction(Symbol::new(f)))?;
        dai_lang::edit::relabel_edge(cfg, edge, stmt.clone())?;
        self.program.refresh_call_graph()?;
        for ((g, _), unit) in self.units.iter_mut() {
            if g.as_str() == f {
                unit.relabel(edge, stmt.clone())?;
            }
        }
        self.propagate_cross_function_dirt(f);
        Ok(())
    }

    /// Applies a block splice to `f` (all contexts).
    ///
    /// # Errors
    ///
    /// Returns [`CfgError`] for unknown edges, non-falling blocks, and
    /// call-graph violations.
    pub fn splice(&mut self, f: &str, edge: EdgeId, block: &Block) -> Result<SpliceInfo, CfgError> {
        let cfg = self
            .program
            .by_name_mut(f)
            .ok_or_else(|| CfgError::UndefinedFunction(Symbol::new(f)))?;
        let info = dai_lang::edit::splice_block_on_edge(cfg, edge, block)?;
        self.program.refresh_call_graph()?;
        for ((g, _), unit) in self.units.iter_mut() {
            if g.as_str() == f {
                unit.splice(edge, block)?;
            }
        }
        self.propagate_cross_function_dirt(f);
        Ok(info)
    }

    /// After editing `f`: accumulated callee entries anywhere may be stale
    /// — an edited function's changed values can flow through its callers
    /// into any other callee's entry join, and joins never shrink on their
    /// own. Entries are therefore reset (to be re-accumulated on demand)
    /// for every non-entry unit; callers' post-call cells depend on `f`'s
    /// exit, so additionally dirty downstream of every transitive caller's
    /// relevant call sites.
    fn propagate_cross_function_dirt(&mut self, f: &str) {
        let entry_fn = self.entry_fn.clone();
        for ((g, ctx), unit) in self.units.iter_mut() {
            if *g == entry_fn && ctx.0.is_empty() {
                continue;
            }
            unit.set_entry_state(D::bottom());
            unit.dirty_everything();
        }
        // Transitive callers of f: functions from which f is reachable.
        let mut affected: HashSet<Symbol> = HashSet::new();
        affected.insert(Symbol::new(f));
        loop {
            let mut grew = false;
            for g in self.program.topo_order().to_vec() {
                if affected.contains(&g) {
                    continue;
                }
                if self
                    .program
                    .callees(g.as_str())
                    .iter()
                    .any(|c| affected.contains(c))
                {
                    affected.insert(g);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        // Dirty call-site destinations in callers whose callee is affected.
        for ((g, _), unit) in self.units.iter_mut() {
            if g.as_str() == f || !affected.contains(g) {
                continue;
            }
            let call_edges: Vec<EdgeId> = unit
                .cfg()
                .edges()
                .filter(|e| {
                    e.stmt
                        .callee()
                        .map(|c| affected.contains(c))
                        .unwrap_or(false)
                })
                .map(|e| e.id)
                .collect();
            for e in call_edges {
                let deps: Vec<Name> = unit.daig().dependents(&Name::Stmt(e)).cloned().collect();
                crate::edit::dirty_from(unit.daig_mut(), deps);
            }
        }
    }

    /// Discards all analysis results but keeps program structure (the
    /// demand-driven-only configuration's "dirty the full DAIG").
    pub fn dirty_everything(&mut self) {
        for unit in self.units.values_mut() {
            unit.dirty_everything();
        }
        // Entries must also be re-accumulated.
        for ((g, ctx), unit) in self.units.iter_mut() {
            if !(*g == self.entry_fn && ctx.0.is_empty()) {
                unit.set_entry_state(D::bottom());
            }
        }
        self.memo.clear();
    }

    /// Access to a unit, for tests and inspection.
    pub fn unit(&self, f: &str, ctx: &Context) -> Option<&FuncAnalysis<D>> {
        self.units.get(&(Symbol::new(f), ctx.clone()))
    }
}
