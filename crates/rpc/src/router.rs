//! Session-sharding: one [`Service`] front end consistent-hashing
//! sessions across several backends.
//!
//! A [`Router`] owns N backends — in-process [`Engine`]s, remote
//! [`Client`]s, or anything else implementing [`ShardBackend`] — and is
//! itself a [`Service`], so code written against the trait (the REPL,
//! the benches, the equality tests) scales across shards without
//! changing a line. Session *names* are consistent-hashed onto a ring
//! of virtual nodes, so adding a backend remaps only ~1/N of fresh
//! sessions; established sessions stay pinned to the shard that opened
//! them through a binding table that also translates the router's
//! session ids (stable, process-local) to each shard's own ids.
//!
//! Writes (edits, saves) forward to the owning shard; sweeps and
//! queries do too — a session's demanded state lives on exactly one
//! shard, which is the point: no cross-shard coherence is needed, and
//! `routed == sum(served)` is checkable per shard
//! ([`Router::routed_queries`] against each backend's
//! `stats().queries`).
//!
//! ## Live migration
//!
//! [`Router::migrate`] moves a session between shards mid-workload:
//! under the binding table's **write** lock (so every concurrent call
//! on the session blocks rather than misroutes), it saves the session
//! on the owner, releases connection ownership ([`ShardBackend::release`]
//! — a [`Client::handoff`] for remote shards, a no-op in-process),
//! closes it there, loads the snapshot on the destination, and rebinds.
//! Queries issued before the migration see the old shard; queries
//! issued after see the new one; none are lost.

use dai_core::driver::ProgramEdit;
use dai_engine::{
    EditOutcome, Engine, EngineError, EngineStats, ExplainReport, PersistOutcome, Service,
    SessionId, SessionSnapshot,
};
use dai_lang::Loc;
use dai_persist::PersistDomain;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::client::Client;

/// Virtual nodes per backend on the hash ring: enough that shard loads
/// even out, few enough that building the ring is trivial.
const VNODES: usize = 64;

/// A backend a [`Router`] can shard over: the full [`Service`] verb set
/// plus [`release`](ShardBackend::release), the hook migration uses to
/// detach a session from per-connection ownership before closing it on
/// the source shard.
pub trait ShardBackend<D>: Service<D> {
    /// Releases transport-level ownership of `session` so a following
    /// `close`/`load` pair can move it. In-process engines have no
    /// connection ownership — the default no-op is correct.
    ///
    /// # Errors
    ///
    /// Transport failures for remote implementations.
    fn release(&self, _session: SessionId) -> Result<(), EngineError> {
        Ok(())
    }
}

impl<D: PersistDomain> ShardBackend<D> for Engine<D> {}

impl<D: PersistDomain> ShardBackend<D> for Client<D> {
    fn release(&self, session: SessionId) -> Result<(), EngineError> {
        self.handoff(session).map(|_| ())
    }
}

/// Where a routed session lives.
#[derive(Debug, Clone)]
struct Binding {
    shard: usize,
    remote: SessionId,
}

/// A session-sharding [`Service`] front end over N backends.
pub struct Router<D, B: ShardBackend<D>> {
    backends: Vec<Arc<B>>,
    /// `(point, backend)` pairs sorted by point: the consistent-hash
    /// ring. Lookup is the first point at or clockwise of the key.
    ring: Vec<(u64, usize)>,
    /// Router session id → owning shard and its local id. The write
    /// lock serializes migration against every forwarded call.
    bindings: RwLock<HashMap<u64, Binding>>,
    next_id: AtomicU64,
    /// Per-shard count of query *members* routed (single queries, batch
    /// members, sweep members), matching the engine-side `queries`
    /// counter so `routed == sum(served)` is assertable.
    routed: Vec<AtomicU64>,
    _domain: std::marker::PhantomData<fn() -> D>,
}

fn ring_hash(key: &str) -> u64 {
    let mut h = dai_memo::FxBuild::default().build_hasher();
    h.write(key.as_bytes());
    h.finish()
}

impl<D: PersistDomain, B: ShardBackend<D>> Router<D, B> {
    /// Builds a router over `backends` (at least one).
    ///
    /// # Panics
    ///
    /// When `backends` is empty.
    pub fn new(backends: Vec<Arc<B>>) -> Router<D, B> {
        assert!(!backends.is_empty(), "a router needs at least one backend");
        let mut ring = Vec::with_capacity(backends.len() * VNODES);
        for (i, _) in backends.iter().enumerate() {
            for v in 0..VNODES {
                ring.push((ring_hash(&format!("shard-{i}/vnode-{v}")), i));
            }
        }
        ring.sort_unstable();
        let routed = backends.iter().map(|_| AtomicU64::new(0)).collect();
        Router {
            backends,
            ring,
            bindings: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            routed,
            _domain: std::marker::PhantomData,
        }
    }

    /// Number of backends.
    pub fn shards(&self) -> usize {
        self.backends.len()
    }

    /// The backend at `shard`.
    pub fn backend(&self, shard: usize) -> &Arc<B> {
        &self.backends[shard]
    }

    /// The shard a fresh session named `name` would land on.
    pub fn shard_for(&self, name: &str) -> usize {
        let key = ring_hash(name);
        let at = self.ring.partition_point(|&(point, _)| point < key);
        // Wrap: past the last point, the ring starts over.
        self.ring[if at == self.ring.len() { 0 } else { at }].1
    }

    /// The shard currently owning routed session `session`, if bound.
    pub fn shard_of(&self, session: SessionId) -> Option<usize> {
        self.bindings
            .read()
            .expect("binding table poisoned")
            .get(&session.0)
            .map(|b| b.shard)
    }

    /// Query members routed to each shard, in shard order. Compare
    /// against each backend's `stats().queries` for the fan-out
    /// accounting check (`routed == sum(served)`).
    pub fn routed_queries(&self) -> Vec<u64> {
        self.routed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Runs `f` against a routed session's shard and shard-local id
    /// **while holding the binding table's read lock**, so a concurrent
    /// [`Router::migrate`] (which takes the write lock) serializes with
    /// every in-flight forward instead of closing the session out from
    /// under one — that, not the lookup, is what makes migration lose
    /// no queries.
    fn with_binding<R>(
        &self,
        session: SessionId,
        f: impl FnOnce(usize, SessionId) -> R,
    ) -> Result<R, EngineError> {
        let bindings = self.bindings.read().expect("binding table poisoned");
        let binding = bindings
            .get(&session.0)
            .ok_or(EngineError::NoSuchSession(session))?;
        Ok(f(binding.shard, binding.remote))
    }

    fn bind(&self, shard: usize, remote: SessionId) -> SessionId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.bindings
            .write()
            .expect("binding table poisoned")
            .insert(id, Binding { shard, remote });
        SessionId(id)
    }

    /// Moves `session` to shard `to` through `path` (a snapshot file
    /// both shards can reach), live: save on the owner, release, close,
    /// load on the destination, rebind — all under the binding table's
    /// write lock, so concurrent calls on the session block rather than
    /// misroute, and no query is lost.
    ///
    /// # Errors
    ///
    /// An unknown session, an out-of-range `to`, or any step's failure
    /// (on failure the binding is left pointing at whichever shard
    /// still holds the session).
    pub fn migrate(&self, session: SessionId, to: usize, path: &str) -> Result<(), EngineError> {
        if to >= self.backends.len() {
            return Err(EngineError::Remote {
                code: "rejected",
                message: format!("no shard {to} (router has {})", self.backends.len()),
            });
        }
        let mut bindings = self.bindings.write().expect("binding table poisoned");
        let binding = bindings
            .get(&session.0)
            .cloned()
            .ok_or(EngineError::NoSuchSession(session))?;
        if binding.shard == to {
            return Ok(());
        }
        let from = &self.backends[binding.shard];
        from.save(binding.remote, path)?;
        from.release(binding.remote)?;
        from.close(binding.remote)?;
        // The source copy is gone; from here on a failure must not
        // leave the binding pointing at it.
        match self.backends[to].load(path) {
            Ok((remote, _outcome)) => {
                bindings.insert(session.0, Binding { shard: to, remote });
                Ok(())
            }
            Err(e) => {
                bindings.remove(&session.0);
                Err(e)
            }
        }
    }
}

impl<D: PersistDomain, B: ShardBackend<D>> Service<D> for Router<D, B> {
    fn open(&self, name: &str, source: &str) -> Result<SessionId, EngineError> {
        let shard = self.shard_for(name);
        let remote = self.backends[shard].open(name, source)?;
        Ok(self.bind(shard, remote))
    }

    fn close(&self, session: SessionId) -> Result<bool, EngineError> {
        let Some(binding) = self
            .bindings
            .write()
            .expect("binding table poisoned")
            .remove(&session.0)
        else {
            return Ok(false);
        };
        self.backends[binding.shard].close(binding.remote)
    }

    fn query(&self, session: SessionId, func: &str, loc: Loc) -> Result<D, EngineError> {
        self.with_binding(session, |shard, remote| {
            self.routed[shard].fetch_add(1, Ordering::Relaxed);
            self.backends[shard].query(remote, func, loc)
        })?
    }

    fn query_batch(
        &self,
        session: SessionId,
        func: &str,
        locs: &[Loc],
    ) -> Vec<Result<D, EngineError>> {
        self.with_binding(session, |shard, remote| {
            self.routed[shard].fetch_add(locs.len() as u64, Ordering::Relaxed);
            self.backends[shard].query_batch(remote, func, locs)
        })
        .unwrap_or_else(|_| {
            locs.iter()
                .map(|_| Err(EngineError::NoSuchSession(session)))
                .collect()
        })
    }

    fn query_sweep(
        &self,
        session: SessionId,
        targets: &[(String, Loc)],
    ) -> Vec<Result<D, EngineError>> {
        self.with_binding(session, |shard, remote| {
            self.routed[shard].fetch_add(targets.len() as u64, Ordering::Relaxed);
            self.backends[shard].query_sweep(remote, targets)
        })
        .unwrap_or_else(|_| {
            targets
                .iter()
                .map(|_| Err(EngineError::NoSuchSession(session)))
                .collect()
        })
    }

    fn edit(&self, session: SessionId, edit: &ProgramEdit) -> Result<EditOutcome, EngineError> {
        self.with_binding(session, |shard, remote| {
            self.backends[shard].edit(remote, edit)
        })?
    }

    fn snapshot(&self, session: SessionId) -> Result<SessionSnapshot, EngineError> {
        self.with_binding(session, |shard, remote| {
            self.backends[shard].snapshot(remote)
        })?
    }

    fn save(&self, session: SessionId, path: &str) -> Result<PersistOutcome, EngineError> {
        self.with_binding(session, |shard, remote| {
            self.backends[shard].save(remote, path)
        })?
    }

    fn load(&self, path: &str) -> Result<(SessionId, PersistOutcome), EngineError> {
        let shard = self.shard_for(path);
        let (remote, outcome) = self.backends[shard].load(path)?;
        Ok((self.bind(shard, remote), outcome))
    }

    fn stats(&self) -> Result<EngineStats, EngineError> {
        let mut merged = EngineStats::default();
        for backend in &self.backends {
            merge_stats(&mut merged, &backend.stats()?);
        }
        Ok(merged)
    }

    fn explain(
        &self,
        session: SessionId,
        targets: &[(String, Loc)],
    ) -> Result<ExplainReport, EngineError> {
        self.with_binding(session, |shard, remote| {
            self.backends[shard].explain(remote, targets)
        })?
    }
}

/// Adds one shard's stats into an aggregate: scalar counters sum,
/// per-domain explain totals merge by name, and the replication block
/// keeps the furthest-along journal (the counters are per-engine, so a
/// cross-shard sum would be meaningless there).
fn merge_stats(into: &mut EngineStats, s: &EngineStats) {
    into.workers += s.workers;
    into.sessions += s.sessions;
    into.queries += s.queries;
    into.edits += s.edits;
    into.snapshots += s.snapshots;
    into.saves += s.saves;
    into.loads += s.loads;
    into.session_locks += s.session_locks;
    into.batch.batches += s.batch.batches;
    into.batch.coalesced_queries += s.batch.coalesced_queries;
    into.batch.singleton_queries += s.batch.singleton_queries;
    into.batch.union_cone_cells += s.batch.union_cone_cells;
    into.batch.union_cone_walks += s.batch.union_cone_walks;
    into.query_stats.absorb(s.query_stats);
    into.explain.reports += s.explain.reports;
    into.explain.cells += s.explain.cells;
    into.explain.fixes += s.explain.fixes;
    into.explain.work_ns += s.explain.work_ns;
    into.explain.span_ns += s.explain.span_ns;
    into.explain.computed_ns += s.explain.computed_ns;
    into.explain.memo_matched_ns += s.explain.memo_matched_ns;
    into.explain.fix_ns += s.explain.fix_ns;
    for (domain, n) in &s.explain.domains {
        match into.explain.domains.iter_mut().find(|(d, _)| d == domain) {
            Some((_, total)) => *total += *n,
            None => into.explain.domains.push((domain.clone(), *n)),
        }
    }
    into.memo.hits += s.memo.hits;
    into.memo.misses += s.memo.misses;
    into.memo.insertions += s.memo.insertions;
    into.memo.evictions += s.memo.evictions;
    if s.replication.journal_last_seq > into.replication.journal_last_seq
        || (s.replication.journal_attached && !into.replication.journal_attached)
    {
        into.replication = s.replication;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_spreads_names_and_lookups_are_stable() {
        let backends: Vec<Arc<Engine<dai_domains::IntervalDomain>>> =
            (0..3).map(|_| Arc::new(Engine::new(1))).collect();
        let router = Router::new(backends);
        let mut hit = [0usize; 3];
        for i in 0..300 {
            let name = format!("session-{i}");
            let shard = router.shard_for(&name);
            assert_eq!(shard, router.shard_for(&name), "lookup must be stable");
            hit[shard] += 1;
        }
        assert!(
            hit.iter().all(|&n| n > 0),
            "every shard should receive some sessions: {hit:?}"
        );
    }
}
