//! Topological, parallel evaluation of demanded DAIG cells.
//!
//! The paper's Definition 4.1 makes DAIGs acyclic, and §8 observes the
//! consequence this module exploits: cells on the ready frontier never
//! read each other, so they can be evaluated **concurrently** with results
//! identical to any sequential order. The scheduler alternates two moves
//! until the demanded targets are filled:
//!
//! 1. **fan-out** — apply every ready pure computation in the demanded
//!    cone: in place ([`dai_core::query::apply_ready_at`], borrowing
//!    inputs straight from the graph) when the batch is small or the pool
//!    has one worker, or cloned out ([`dai_core::collect_ready`]) and
//!    applied on the worker pool otherwise. Both paths run the *same*
//!    `Q-Match`/`Q-Miss` code the sequential `query` loop uses, which is
//!    what makes concurrent results bit-identical;
//! 2. **fix resolution** — when no pure computation is ready, step one
//!    `fix` edge ([`dai_core::fix_step`]): either its fixed point is
//!    written or the loop unrolls and the new iterate's subgraph joins the
//!    demand.
//!
//! # Incremental cone maintenance
//!
//! The demanded cone — unfilled cells backward-reachable from the targets
//! — is traversed **once** per evaluation ([`QueryStats::cone_walks`]
//! counts these), loading a dense [`CellId`]-indexed table of
//! missing-input counts. From then on the counts are maintained
//! incrementally: every write decrements its cone-dependents, cells
//! reaching zero join the ready queue, and when a loop *unrolls* the
//! spliced subgraph reported by [`dai_core::query::FixOutcome::Unrolled`]
//! is patched into the table — the new iterate's cells are counted and
//! the re-pointed fix cell's count is refreshed. Per-query cost is thus
//! O(cone + spliced) rather than O(cone × unrolls); convergence of a
//! fixed point was already an ordinary write.
//!
//! Graph mutation (write-back, unrolling) happens only on the scheduling
//! thread; workers see cloned inputs and the sharded memo table. Memo
//! races are benign: entries are keyed by content hashes of their inputs,
//! so whichever worker wins the race records the same value any loser
//! would have.

use dai_core::analysis::FuncAnalysis;
use dai_core::explain::ExplainSink;
use dai_core::graph::{Daig, DaigError, Func, Value};
use dai_core::intern::CellId;
use dai_core::name::Name;
use dai_core::query::{
    apply_ready, apply_ready_at, collect_ready_id, fix_step_id, CallResolver, FixOutcome,
    QueryStats, ReadyComp,
};
use dai_domains::AbstractDomain;
use dai_lang::cfg::Cfg;
use dai_memo::SharedMemoTable;

use crate::pool::PoolHandle;

/// Guard against non-converging widenings, mirroring the sequential
/// evaluator's bound.
const MAX_UNROLLS: u64 = 1_000_000;

/// Smallest frontier worth fanning out to the pool; below this the
/// cross-thread hand-off costs more than the computations.
const MIN_PARALLEL_BATCH: usize = 4;

/// Sentinel for cells outside the demanded cone.
const NOT_IN_CONE: u32 = u32::MAX;

/// Dense per-[`CellId`] missing-input counts for the demanded cone.
///
/// Loaded by one traversal, then patched: writes decrement, unroll splices
/// insert. Ids are stable across unrolls (the arena only grows), so the
/// table survives structural change — it just grows with the arena.
struct Cone {
    counts: Vec<u32>,
}

impl Cone {
    fn new(arena_len: usize) -> Cone {
        Cone {
            counts: vec![NOT_IN_CONE; arena_len],
        }
    }

    /// Tracks arena growth (new ids spliced in by unrolls).
    fn grow(&mut self, arena_len: usize) {
        if arena_len > self.counts.len() {
            self.counts.resize(arena_len, NOT_IN_CONE);
        }
    }

    #[inline]
    fn contains(&self, id: CellId) -> bool {
        self.counts.get(id.idx()).copied().unwrap_or(NOT_IN_CONE) != NOT_IN_CONE
    }

    #[inline]
    fn set(&mut self, id: CellId, count: u32) {
        self.counts[id.idx()] = count;
    }

    #[inline]
    fn remove(&mut self, id: CellId) {
        if let Some(c) = self.counts.get_mut(id.idx()) {
            *c = NOT_IN_CONE;
        }
    }

    /// Decrements `id`'s count if it is in the cone with a positive count;
    /// returns `true` when the count reaches zero (the cell became ready).
    #[inline]
    fn decrement(&mut self, id: CellId) -> bool {
        match self.counts.get_mut(id.idx()) {
            Some(c) if *c != NOT_IN_CONE && *c > 0 => {
                *c -= 1;
                *c == 0
            }
            _ => false,
        }
    }
}

/// Computes the number of *distinct* unfilled sources of `id` (dead
/// sources are reported as an invariant error), optionally pushing each
/// first-seen unfilled source onto `stack`.
fn missing_inputs<D: AbstractDomain>(
    daig: &Daig<D>,
    id: CellId,
    mut stack: Option<&mut Vec<CellId>>,
) -> Result<u32, DaigError> {
    let comp = daig.comp_slot(id).ok_or_else(|| {
        DaigError::Invariant(format!(
            "empty cell {} has no computation",
            daig.name_of(id)
        ))
    })?;
    let mut count: u32 = 0;
    for (i, &s) in comp.srcs.iter().enumerate() {
        if !daig.contains_id(s) {
            return Err(DaigError::Invariant(format!(
                "computation for {} reads missing cell {}",
                daig.name_of(id),
                daig.name_of(s)
            )));
        }
        if daig.value_id(s).is_some() || comp.srcs[..i].contains(&s) {
            continue;
        }
        count += 1;
        if let Some(stack) = stack.as_deref_mut() {
            stack.push(s);
        }
    }
    Ok(count)
}

/// Evaluates `targets` (and their transitive demands) in `fa`, fanning
/// ready computations out over `pool` and threading the shared memo table
/// through every application.
///
/// Call statements are resolved through `resolver`, cloned once per
/// worker-side application — a resolver used here must be cheap to clone
/// and correct when clones run concurrently. `dai_core::IntraResolver`
/// (the session default) trivially qualifies; a shared-summary-table
/// resolver in the style of `dai_core::summaries` (lookups against an
/// `Arc`-shared map of entry-state-keyed callee summaries) is the
/// intended future instantiation. Fully demand-driven interprocedural
/// resolution can NOT plug in here — demanding a callee's DAIG needs
/// cross-unit mutable access no worker clone can have — which is why
/// `dai_engine::session::ResolverChoice::Interproc` routes around the
/// parallel scheduler instead.
///
/// On success every target cell holds a value — the same value the
/// sequential [`dai_core::query`] evaluator produces, regardless of worker
/// count or interleaving.
///
/// # Errors
///
/// * [`DaigError::NoSuchCell`] if a target is not in the DAIG's namespace;
/// * [`DaigError::Invariant`] on internal inconsistency or divergence.
pub fn evaluate_targets<D, R>(
    fa: &mut FuncAnalysis<D>,
    targets: &[Name],
    memo: &SharedMemoTable<Value<D>>,
    resolver: &R,
    pool: &PoolHandle,
    stats: &mut QueryStats,
) -> Result<(), DaigError>
where
    D: AbstractDomain,
    R: CallResolver<D> + Clone + Send + Sync + 'static,
{
    evaluate_targets_explain(fa, targets, memo, resolver, pool, stats, None)
}

/// [`evaluate_targets`] with opt-in cost attribution: when `sink` is
/// supplied, every demanded cell's outcome, wall time, and critical-path
/// finish time is recorded into it (see [`dai_core::explain`]). The sink
/// mirrors the [`QueryStats`] movements one-for-one — each record here
/// corresponds to exactly one counter bump — which is what makes explain
/// reports accounting-exact. With `sink = None` this *is* the plain
/// evaluation path: no timestamps are taken.
pub fn evaluate_targets_explain<D, R>(
    fa: &mut FuncAnalysis<D>,
    targets: &[Name],
    memo: &SharedMemoTable<Value<D>>,
    resolver: &R,
    pool: &PoolHandle,
    stats: &mut QueryStats,
    mut sink: Option<&mut ExplainSink>,
) -> Result<(), DaigError>
where
    D: AbstractDomain,
    R: CallResolver<D> + Clone + Send + Sync + 'static,
{
    // Split borrow: the CFG is read-only for the whole evaluation, so fix
    // resolution never clones it.
    let (cfg, daig) = fa.parts_mut();
    let mut pending: Vec<CellId> = Vec::new();
    for t in targets {
        match daig.id_of(t) {
            None => return Err(DaigError::NoSuchCell(t.to_string())),
            Some(id) => {
                if daig.value_id(id).is_some() {
                    stats.reused += 1;
                    if let Some(s) = sink.as_deref_mut() {
                        s.record_reused(daig.name_of(id).to_string());
                    }
                } else {
                    pending.push(id);
                }
            }
        }
    }
    if pending.is_empty() {
        return Ok(());
    }
    evaluate_pending(daig, cfg, &pending, memo, resolver, pool, stats, sink)
}

/// The drain loop over resolved, unfilled target ids.
#[allow(clippy::too_many_arguments)]
fn evaluate_pending<D, R>(
    daig: &mut Daig<D>,
    cfg: &Cfg,
    pending: &[CellId],
    memo: &SharedMemoTable<Value<D>>,
    resolver: &R,
    pool: &PoolHandle,
    stats: &mut QueryStats,
    mut sink: Option<&mut ExplainSink>,
) -> Result<(), DaigError>
where
    D: AbstractDomain,
    R: CallResolver<D> + Clone + Send + Sync + 'static,
{
    // The one full traversal: load the demanded cone — unfilled cells
    // backward-reachable from the unfilled targets — with each cell's
    // count of distinct unfilled inputs.
    stats.cone_walks += 1;
    let mut cone = Cone::new(daig.arena_len());
    let mut ready: Vec<CellId> = Vec::new();
    let mut stack: Vec<CellId> = pending.to_vec();
    while let Some(n) = stack.pop() {
        if cone.contains(n) {
            continue;
        }
        let count = missing_inputs(daig, n, Some(&mut stack))?;
        cone.set(n, count);
        stats.cone_cells += 1;
        if count == 0 {
            ready.push(n);
        }
    }

    // Drain the cone. Writing a cell decrements its cone-dependents'
    // counts; cells reaching zero join the ready queue. Loop unrolls patch
    // the spliced subgraph in; they do not end the traversal's validity.
    let mut unroll_guard: u64 = 0;
    let mut pure: Vec<CellId> = Vec::new();
    let mut fixes: Vec<CellId> = Vec::new();
    loop {
        for n in ready.drain(..) {
            match daig.comp_func(n) {
                Some(Func::Fix) => fixes.push(n),
                Some(_) => pure.push(n),
                None => {
                    return Err(DaigError::Invariant(format!(
                        "ready cell {} lost its computation",
                        daig.name_of(n)
                    )));
                }
            }
        }
        if !pure.is_empty() {
            // Sorting makes the batch composition (and with it the
            // worker-visible order) deterministic; cell *values* do not
            // depend on it, but reproducible schedules make debugging and
            // statistics saner.
            pure.sort_unstable();
            if pure.len() < MIN_PARALLEL_BATCH || pool.workers() <= 1 {
                // In-place fast path: inputs are borrowed from the graph,
                // not cloned.
                let _cells_span = dai_trace::span!("engine.cells", pure.len());
                let mut memo = memo.clone();
                let mut res = resolver.clone();
                for &id in &pure {
                    if let Some(s) = sink.as_deref_mut() {
                        let before = *stats;
                        let t0 = std::time::Instant::now();
                        let v = apply_ready_at(daig, id, &mut memo, &mut res, stats)?;
                        let wall_ns = t0.elapsed().as_nanos() as u64;
                        s.record_applied(daig, id, &stats.delta(&before), wall_ns);
                        daig.write_id(id, v);
                    } else {
                        let v = apply_ready_at(daig, id, &mut memo, &mut res, stats)?;
                        daig.write_id(id, v);
                    }
                    settle_write(daig, id, &mut cone, &mut ready);
                }
            } else {
                let batch: Vec<ReadyComp<D>> = pure
                    .iter()
                    .map(|&id| collect_ready_id(daig, id))
                    .collect::<Result<_, _>>()?;
                let shared = memo.clone();
                let res0 = resolver.clone();
                // Per-cell timestamps are taken only when a sink is
                // attached, so the plain path stays timestamp-free.
                let timed = sink.is_some();
                let results = pool.parallel_map(batch, move |rc| {
                    // One span per cell, recorded on the worker thread that
                    // evaluated it — this is what attributes flame-trace
                    // time to `dai-worker-{i}` threads.
                    let _cell_span = dai_trace::span!("engine.cells", 1);
                    let mut local = QueryStats::default();
                    let mut memo = shared.clone();
                    let mut res = res0.clone();
                    let t0 = timed.then(std::time::Instant::now);
                    let value = apply_ready(rc, &mut memo, &mut res, &mut local);
                    let wall_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    (rc.dest_id, value, local, wall_ns)
                });
                for (dest, value, local, wall_ns) in results {
                    stats.absorb(local);
                    daig.write_id(dest, value?);
                    if let Some(s) = sink.as_deref_mut() {
                        s.record_applied(daig, dest, &local, wall_ns);
                    }
                    settle_write(daig, dest, &mut cone, &mut ready);
                }
            }
            pure.clear();
            // Fix cells seen this round stay ready for the next one.
            ready.append(&mut fixes);
            continue;
        }
        if let Some(n) = fixes.pop() {
            // Resolve one fix edge at a time: convergence is an ordinary
            // write; an unroll splices a fresh iterate subgraph whose
            // counts are patched into the cone.
            ready.append(&mut fixes);
            let t0 = sink.is_some().then(std::time::Instant::now);
            let outcome = fix_step_id(daig, cfg, n, stats)?;
            if let (Some(s), Some(t0)) = (sink.as_deref_mut(), t0) {
                s.record_fix_step(daig, n, t0.elapsed().as_nanos() as u64, outcome.converged());
            }
            match outcome {
                FixOutcome::Converged => {
                    settle_write(daig, n, &mut cone, &mut ready);
                }
                FixOutcome::Unrolled { spliced } => {
                    unroll_guard += 1;
                    if unroll_guard > MAX_UNROLLS {
                        return Err(DaigError::Invariant(format!(
                            "loop at {} exceeded {MAX_UNROLLS} unrollings: \
                             widening does not converge",
                            daig.name_of(n)
                        )));
                    }
                    // Patch the spliced subgraph: every structurally
                    // changed, still-unfilled cell (re-pointed fix cell
                    // included) gets a fresh missing-input count. All of
                    // it is demanded — the new iterate feeds the fix cell
                    // that demanded the unroll — and its inputs are either
                    // filled (statement cells, the previous iterate) or
                    // themselves spliced, so no wider re-traversal is
                    // needed.
                    cone.grow(daig.arena_len());
                    for &id in &spliced {
                        if !daig.contains_id(id) || daig.value_id(id).is_some() {
                            continue;
                        }
                        let count = missing_inputs(daig, id, None)?;
                        if !cone.contains(id) {
                            stats.cone_cells += 1;
                        }
                        cone.set(id, count);
                        if count == 0 {
                            ready.push(id);
                        }
                    }
                }
            }
            continue;
        }
        // Nothing ready at all: done if the targets are filled; otherwise
        // the cone is wedged, which acyclicity rules out.
        if pending.iter().all(|&t| daig.value_id(t).is_some()) {
            return Ok(());
        }
        return Err(DaigError::Invariant(
            "scheduler stalled: no ready computation in the demanded cone \
             (dependency cycle?)"
                .to_string(),
        ));
    }
}

/// After `dest` was written: drop it from the cone and decrement each
/// cone-dependent's missing-input count, promoting cells that reach zero
/// onto the ready queue.
fn settle_write<D: AbstractDomain>(
    daig: &Daig<D>,
    dest: CellId,
    cone: &mut Cone,
    ready: &mut Vec<CellId>,
) {
    cone.remove(dest);
    for &dep in daig.dependents_ids(dest) {
        if cone.decrement(dep) {
            ready.push(dep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use dai_core::query::{query, IntraResolver};
    use dai_domains::IntervalDomain;
    use dai_lang::cfg::lower_program;
    use dai_lang::parser::parse_program;
    use dai_memo::MemoTable;

    type D = IntervalDomain;

    const SRC: &str = "function f(n) { var i = 0; var s = 0; \
                       while (i < 9) { var j = 0; while (j < 4) { s = s + j; j = j + 1; } i = i + 1; } \
                       return s; }";

    fn fresh() -> FuncAnalysis<D> {
        let cfg = lower_program(&parse_program(SRC).unwrap()).unwrap().cfgs()[0].clone();
        FuncAnalysis::new(cfg, IntervalDomain::top())
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_sequential() {
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers);
            let mut par = fresh();
            let memo = SharedMemoTable::new(8);
            let mut stats = QueryStats::default();
            let exit = par.cfg().exit();
            let target = Name::State {
                loc: exit,
                ctx: dai_core::name::IterCtx::root(),
            };
            evaluate_targets(
                &mut par,
                std::slice::from_ref(&target),
                &memo,
                &IntraResolver,
                &pool.handle(),
                &mut stats,
            )
            .unwrap();

            let mut seq = fresh();
            let mut seq_memo = MemoTable::new();
            let mut seq_stats = QueryStats::default();
            let seq_cfg = seq.cfg().clone();
            let expected = query(
                seq.daig_mut(),
                &seq_cfg,
                &mut seq_memo,
                &target,
                &mut IntraResolver,
                &mut seq_stats,
            )
            .unwrap();
            assert_eq!(
                par.daig().value(&target),
                Some(&expected),
                "workers = {workers}"
            );
            par.daig().check_well_formed().unwrap();
        }
    }

    #[test]
    fn unknown_target_is_reported() {
        let pool = WorkerPool::new(2);
        let mut fa = fresh();
        let memo = SharedMemoTable::new(2);
        let mut stats = QueryStats::default();
        let bogus = Name::State {
            loc: dai_lang::Loc(4242),
            ctx: dai_core::name::IterCtx::root(),
        };
        let err = evaluate_targets(
            &mut fa,
            &[bogus],
            &memo,
            &IntraResolver,
            &pool.handle(),
            &mut stats,
        )
        .unwrap_err();
        assert!(matches!(err, DaigError::NoSuchCell(_)));
    }

    #[test]
    fn already_filled_targets_count_as_reuse() {
        let pool = WorkerPool::new(2);
        let mut fa = fresh();
        let memo = SharedMemoTable::new(2);
        let mut stats = QueryStats::default();
        let entry = Name::State {
            loc: fa.cfg().entry(),
            ctx: dai_core::name::IterCtx::root(),
        };
        evaluate_targets(
            &mut fa,
            std::slice::from_ref(&entry),
            &memo,
            &IntraResolver,
            &pool.handle(),
            &mut stats,
        )
        .unwrap();
        let computed_before = stats.computed;
        evaluate_targets(
            &mut fa,
            &[entry],
            &memo,
            &IntraResolver,
            &pool.handle(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(stats.computed, computed_before, "no recomputation");
        assert!(stats.reused >= 1);
    }

    #[test]
    fn demanded_cone_is_traversed_once_despite_unrolls() {
        // The nested-loop workload needs several unrollings to converge;
        // incremental cone maintenance must keep the traversal count at
        // one — the whole point of patching spliced subgraphs instead of
        // ending the epoch.
        let pool = WorkerPool::new(1);
        let mut fa = fresh();
        let memo = SharedMemoTable::new(2);
        let mut stats = QueryStats::default();
        let exit = Name::State {
            loc: fa.cfg().exit(),
            ctx: dai_core::name::IterCtx::root(),
        };
        evaluate_targets(
            &mut fa,
            std::slice::from_ref(&exit),
            &memo,
            &IntraResolver,
            &pool.handle(),
            &mut stats,
        )
        .unwrap();
        assert!(
            stats.unrolls >= 2,
            "workload must unroll several times (got {})",
            stats.unrolls
        );
        assert_eq!(
            stats.cone_walks, 1,
            "one traversal regardless of {} unrolls",
            stats.unrolls
        );
        // A repeated evaluation reuses the filled target without walking
        // anything.
        evaluate_targets(
            &mut fa,
            &[exit],
            &memo,
            &IntraResolver,
            &pool.handle(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(stats.cone_walks, 1, "filled targets walk nothing");
        fa.daig().check_well_formed().unwrap();
    }
}
