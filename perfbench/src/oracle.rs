//! Output checks against the CPU references in `emogi_graph::algo`, and
//! the determinism digest over every simulated metric and output.

use crate::workload::{Inputs, Job, Output, Sequence, DAMPING};
use emogi_core::sssp::INF;
use emogi_graph::algo;
use emogi_runtime::RunStats;

/// Failure accounting of one sequence.
#[derive(Debug, Clone, Default)]
pub struct Check {
    pub attempted: u64,
    /// Refused at admission or expired in the queue.
    pub refused_or_expired: u64,
    /// Ran, but the output differs from the reference.
    pub mismatched: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Check {
    pub fn failed(&self) -> u64 {
        self.refused_or_expired + self.mismatched
    }
}

/// Check every query of `seq` against the CPU reference. BFS levels,
/// SSSP distances and CC labels must be equal; PageRank bit-equal.
pub fn check(inputs: &Inputs, seq: &Sequence) -> Check {
    let g = &inputs.graph;
    let mut cc_ref: Option<Vec<u32>> = None;
    let mut pr_ref: Option<(u32, Vec<f64>)> = None;
    let mut c = Check::default();
    for (i, q) in seq.queries.iter().enumerate() {
        c.attempted += 1;
        let ok = match (&q.output, q.job) {
            (Output::Missing, _) => {
                c.refused_or_expired += 1;
                c.notes
                    .push(format!("query {i} ({:?}) refused or expired", q.job));
                continue;
            }
            (Output::Levels(got), Job::Bfs(src)) => *got == algo::bfs_levels(g, src),
            (Output::Dist(got), Job::Sssp(src)) => {
                let want = algo::sssp_distances(g, &inputs.weights, src);
                got.len() == want.len()
                    && got.iter().zip(&want).all(|(&d, &w)| {
                        if d == INF {
                            w == algo::UNREACHABLE
                        } else {
                            u64::from(d) == w
                        }
                    })
            }
            (Output::Labels(got), Job::Cc) => {
                *got == *cc_ref.get_or_insert_with(|| algo::cc_labels(g))
            }
            (Output::Ranks(got), Job::PageRank(iters)) => {
                if pr_ref.as_ref().is_none_or(|(n, _)| *n != iters) {
                    pr_ref = Some((iters, algo::pagerank(g, DAMPING, iters)));
                }
                let want = &pr_ref.as_ref().expect("just filled").1;
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            _ => false,
        };
        if !ok {
            c.mismatched += 1;
            c.notes.push(format!(
                "query {i} ({:?}) differs from the reference",
                q.job
            ));
        }
    }
    c
}

/// FNV-1a, 64 bit.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn digest_stats(h: &mut Fnv, s: &RunStats) {
    let t = &s.transfer;
    let p = &s.prefetch;
    for v in [
        s.elapsed_ns,
        s.kernel_launches,
        s.pcie_read_requests,
        s.request_sizes.buckets[0],
        s.request_sizes.buckets[1],
        s.request_sizes.buckets[2],
        s.request_sizes.buckets[3],
        s.request_sizes.other,
        s.host_bytes,
        s.page_faults,
        s.pages_migrated,
        s.host_dram_bytes,
        s.l2_sector_hits,
        s.l2_sector_misses,
        s.lane_bytes,
        s.txn_bytes,
        s.cxl_read_requests,
        s.cxl_bytes,
        t.staged_regions,
        t.staged_bytes,
        t.pool_fallbacks,
        t.staging_rounds,
        t.cxl_staged_regions,
        t.cxl_staged_bytes,
        t.demoted_regions,
        p.prefetched_regions,
        p.prefetched_bytes,
        p.hit_regions,
        p.hit_bytes,
        p.wasted_bytes,
        p.stall_ns,
        p.hidden_ns,
        u64::from(s.shared_fetch),
    ] {
        h.u64(v);
    }
}

/// Digest of every simulated metric and output of a sequence. Equal
/// seeds must give equal digests, run after run.
pub fn digest(seq: &Sequence) -> u64 {
    let mut h = Fnv::new();
    digest_stats(&mut h, &seq.totals);
    for &b in &seq.link_bytes {
        h.u64(b);
    }
    h.u64(seq.exchange_bytes);
    if let Some(s) = seq.serve {
        for v in [
            s.batches,
            s.batched_queries,
            s.executed,
            s.rejected,
            s.expired,
        ] {
            h.u64(v);
        }
    }
    for q in &seq.queries {
        h.u64(q.latency_ns);
        h.u64(q.wait_ns);
        h.u64(u64::from(q.dated) << 1 | u64::from(q.met));
        digest_stats(&mut h, &q.stats);
        match &q.output {
            Output::Levels(v) | Output::Dist(v) | Output::Labels(v) => {
                h.u64(v.len() as u64);
                v.iter().for_each(|&x| h.u64(u64::from(x)));
            }
            Output::Ranks(v) => {
                h.u64(v.len() as u64);
                v.iter().for_each(|x| h.u64(x.to_bits()));
            }
            Output::Missing => h.u64(u64::MAX),
        }
    }
    h.finish()
}
