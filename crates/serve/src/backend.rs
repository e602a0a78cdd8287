//! Execution backends: the one trait both server front ends share.
//!
//! [`Server`](crate::Server) owns the whole submit / schedule /
//! deadline / redeem lifecycle once; a [`ServeBackend`] only answers
//! "what graph is placed" and "execute this kind-pure batch". Two
//! backends ship:
//!
//! * [`Engine`] — the single-device batched path: frontier-driven
//!   batches run as one [`Engine::run_batch`] call (merged frontiers,
//!   shared fetches); full-sweep queries run solo on the same
//!   placement.
//! * [`ShardedEngine`] — the device-group path: every query runs solo
//!   but sharded across all devices (shares devices, not fetches).
//!
//! Both execute queries in the exact order the scheduler planned and
//! report simulated elapsed time, so the server's clock — and with it
//! every deadline decision — is a pure function of the submitted
//! workload.

use crate::query::{QueryKind, QueryResult, QuerySpec};
use crate::scheduler::Pending;
use emogi_core::sharded::ShardedEngine;
use emogi_core::{BfsProgram, Engine, Run, SsspProgram};
use emogi_graph::CsrGraph;

/// The result of executing one kind-pure batch: per-query results in
/// batch order plus the batch-level accounting the server folds into
/// its clock and [`ServerStats`](crate::ServerStats).
#[derive(Debug)]
pub struct ExecutedBatch {
    /// One result per batch member, in the batch's order.
    pub results: Vec<QueryResult>,
    /// Simulated time the batch took, ns (advances the server clock).
    pub elapsed_ns: u64,
    /// Host→GPU payload bytes (shared fetches counted once).
    pub host_bytes: u64,
}

/// What a server needs from an execution engine. Implementations must
/// execute the batch deterministically and return exactly one result
/// per entry, in order.
pub trait ServeBackend {
    /// The placed graph every admitted query runs against.
    fn graph(&self) -> &CsrGraph;

    /// Effective host-link payload bandwidth in bytes per simulated ns,
    /// used by cost-model admission to convert estimated traffic into
    /// time.
    fn link_bytes_per_ns(&self) -> f64;

    /// Execute one kind-pure batch planned by the scheduler.
    fn execute(&mut self, kind: QueryKind, entries: &[Pending]) -> ExecutedBatch;
}

fn bfs_src(p: &Pending) -> u32 {
    match &p.query.spec {
        QuerySpec::Bfs { src } => *src,
        other => unreachable!("BFS batch holds {other:?}"),
    }
}

fn sssp_parts(p: &Pending) -> (u32, &std::sync::Arc<Vec<u32>>) {
    match &p.query.spec {
        QuerySpec::Sssp { src, weights } => (*src, weights),
        other => unreachable!("SSSP batch holds {other:?}"),
    }
}

impl<'g> ServeBackend for Engine<'g> {
    fn graph(&self) -> &CsrGraph {
        Engine::graph(self)
    }

    fn link_bytes_per_ns(&self) -> f64 {
        Engine::link_bytes_per_ns(self)
    }

    fn execute(&mut self, kind: QueryKind, entries: &[Pending]) -> ExecutedBatch {
        let graph = Engine::graph(self);
        match kind {
            QueryKind::Bfs => {
                let programs: Vec<BfsProgram> = entries
                    .iter()
                    .map(|p| BfsProgram::new(graph, bfs_src(p)))
                    .collect();
                let out = self.run_batch(programs);
                ExecutedBatch {
                    results: out.runs.into_iter().map(QueryResult::Bfs).collect(),
                    elapsed_ns: out.stats.elapsed_ns,
                    host_bytes: out.stats.host_bytes,
                }
            }
            QueryKind::Sssp => {
                let programs: Vec<SsspProgram> = entries
                    .iter()
                    .map(|p| {
                        let (src, weights) = sssp_parts(p);
                        SsspProgram::new(graph, weights, src)
                    })
                    .collect();
                let out = self.run_batch(programs);
                ExecutedBatch {
                    results: out.runs.into_iter().map(QueryResult::Sssp).collect(),
                    elapsed_ns: out.stats.elapsed_ns,
                    host_bytes: out.stats.host_bytes,
                }
            }
            // Full-sweep kinds arrive in batches of one (the scheduler
            // never groups them), but executing each entry solo keeps
            // this correct for any batch shape.
            QueryKind::Cc | QueryKind::PageRank => solo_sweeps(entries, |spec| match spec {
                QuerySpec::Cc => QueryResult::Cc(self.cc()),
                QuerySpec::PageRank {
                    damping,
                    iterations,
                } => QueryResult::PageRank(self.pagerank(*damping, *iterations)),
                other => unreachable!("full-sweep batch holds {other:?}"),
            }),
        }
    }
}

impl<'g> ServeBackend for ShardedEngine<'g> {
    fn graph(&self) -> &CsrGraph {
        ShardedEngine::graph(self)
    }

    fn link_bytes_per_ns(&self) -> f64 {
        ShardedEngine::link_bytes_per_ns(self)
    }

    /// Every query runs solo, sharded across the full device group —
    /// this path shares devices, not fetches, so no result is flagged
    /// [`shared_fetch`](emogi_runtime::RunStats::shared_fetch) and
    /// [`ServerStats::batched_queries`](crate::ServerStats::batched_queries)
    /// stays zero.
    fn execute(&mut self, _kind: QueryKind, entries: &[Pending]) -> ExecutedBatch {
        solo_sweeps(entries, |spec| match spec {
            QuerySpec::Bfs { src } => {
                let r = self.bfs(*src);
                QueryResult::Bfs(Run {
                    output: r.output,
                    stats: r.stats,
                })
            }
            QuerySpec::Sssp { src, weights } => {
                let r = self.sssp(weights, *src);
                QueryResult::Sssp(Run {
                    output: r.output,
                    stats: r.stats,
                })
            }
            QuerySpec::Cc => {
                let r = self.cc();
                QueryResult::Cc(Run {
                    output: r.output,
                    stats: r.stats,
                })
            }
            QuerySpec::PageRank {
                damping,
                iterations,
            } => {
                let r = self.pagerank(*damping, *iterations);
                QueryResult::PageRank(Run {
                    output: r.output,
                    stats: r.stats,
                })
            }
        })
    }
}

/// Run each entry solo through `run_one`, summing elapsed time and
/// traffic into one back-to-back batch record.
fn solo_sweeps(
    entries: &[Pending],
    mut run_one: impl FnMut(&QuerySpec) -> QueryResult,
) -> ExecutedBatch {
    let mut results = Vec::with_capacity(entries.len());
    let mut elapsed_ns = 0u64;
    let mut host_bytes = 0u64;
    for p in entries {
        let r = run_one(&p.query.spec);
        elapsed_ns += r.stats().elapsed_ns;
        host_bytes += r.stats().host_bytes;
        results.push(r);
    }
    ExecutedBatch {
        results,
        elapsed_ns,
        host_bytes,
    }
}
