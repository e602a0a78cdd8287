//! Per-kernel and per-run statistics.

use crate::prefetch::PrefetchStats;
use crate::transfer::TransferStats;
use emogi_sim::monitor::SizeHistogram;
use emogi_sim::time::Time;

/// What one kernel launch did, measured by the executor.
#[derive(Debug, Clone, Default)]
pub struct KernelReport {
    /// Launch time.
    pub start: Time,
    /// Completion time (all warps drained).
    pub end: Time,
    /// Warp tasks executed.
    pub tasks: u64,
    /// Warp steps executed.
    pub steps: u64,
    /// Coalesced device-space transactions.
    pub device_txns: u64,
    /// Coalesced pinned-host (zero-copy) transactions.
    pub host_txns: u64,
    /// Coalesced managed-space transactions.
    pub managed_txns: u64,
    /// Coalesced CXL-space transactions (regions served in place from the
    /// external tier).
    pub cxl_txns: u64,
    /// Host transactions that were satisfied by attaching to an already
    /// in-flight request (MSHR merges).
    pub mshr_merges: u64,
    /// Page faults raised against the UVM driver.
    pub page_faults: u64,
}

impl KernelReport {
    /// Launch-to-drain time of the kernel.
    pub fn elapsed(&self) -> Time {
        self.end - self.start
    }
}

/// Cumulative measurements for a whole traversal run (all kernel launches
/// of one BFS/SSSP/CC execution), diffed off the machine's monitors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Total simulated wall time.
    pub elapsed_ns: Time,
    /// Kernel launches ("the total number of kernels launched ... is equal
    /// to the distance from the source vertex", §4.2).
    pub kernel_launches: u64,
    /// Zero-copy PCIe read requests (Figure 5).
    pub pcie_read_requests: u64,
    /// Their size mix (Figure 7).
    pub request_sizes: SizeHistogram,
    /// Host→GPU payload bytes: zero-copy reads plus DMA/migrations
    /// (Figure 10's numerator).
    pub host_bytes: u64,
    /// Average achieved PCIe bandwidth over the run, GB/s (Figure 8).
    pub avg_pcie_gbps: f64,
    /// UVM page faults (zero for EMOGI engines).
    pub page_faults: u64,
    /// UVM pages migrated to the device (zero for EMOGI engines).
    pub pages_migrated: u64,
    /// Host DRAM traffic (Figure 4's DRAM lane).
    pub host_dram_bytes: u64,
    /// L2 sectors that hit during this run's kernels (the cache-aware
    /// `layout` experiment's numerator).
    pub l2_sector_hits: u64,
    /// L2 sectors that missed during this run's kernels.
    pub l2_sector_misses: u64,
    /// Bytes the kernels' lanes requested, before coalescing.
    pub lane_bytes: u64,
    /// Bytes the coalesced transactions moved for those lanes.
    pub txn_bytes: u64,
    /// Demand read requests served by the CXL external tier; zero on
    /// two-tier machines.
    pub cxl_read_requests: u64,
    /// Payload bytes the CXL tier served — zero-copy demand reads plus
    /// bulk promotions into HBM. Kept separate from
    /// [`host_bytes`](Self::host_bytes), which stays PCIe-only.
    pub cxl_bytes: u64,
    /// Hybrid transfer-manager counters for this run; all-zero for runs
    /// that never stage (pure zero-copy, UVM).
    pub transfer: TransferStats,
    /// Pipelined-execution prefetch counters for this run (speculative
    /// bytes issued, adoption hits, mispredicted waste, residual stall
    /// and hidden staging latency); all-zero for synchronous runs.
    pub prefetch: PrefetchStats,
    /// `true` when these counters describe traffic *shared* with other
    /// queries of a batched multi-query execution: the merged edge fetch
    /// is accounted once globally (in the batch-level stats) and every
    /// query that was active in an iteration absorbs that iteration's
    /// totals, so summing flagged stats across queries double-counts the
    /// shared bytes by design. Always `false` for solo runs.
    pub shared_fetch: bool,
}

impl RunStats {
    /// Fraction of probed L2 sectors that hit over this run; 0 when no
    /// sector was probed. Higher under cache-aware vertex layouts.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_sector_hits + self.l2_sector_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_sector_hits as f64 / total as f64
        }
    }

    /// Requested lane bytes over moved transaction bytes — 1.0 means
    /// every transferred byte was asked for by a lane; lower means the
    /// coalescer padded scattered accesses out to sector granularity.
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.txn_bytes == 0 {
            0.0
        } else {
            self.lane_bytes as f64 / self.txn_bytes as f64
        }
    }

    /// The paper's I/O read amplification metric (Figure 10).
    pub fn amplification(&self, dataset_bytes: u64) -> f64 {
        if dataset_bytes == 0 {
            0.0
        } else {
            self.host_bytes as f64 / dataset_bytes as f64
        }
    }

    /// Counters accrued since `base`, an earlier snapshot of the same
    /// monotonic counters (see [`Machine::snapshot`]): every field is
    /// the difference, and the average bandwidth is re-derived.
    ///
    /// [`Machine::snapshot`]: crate::Machine::snapshot
    pub fn since(&self, base: &RunStats) -> RunStats {
        let mut diff = self.clone();
        diff.combine(base, |a, b| a - b, |a, b| a - b);
        diff
    }

    /// Fold one iteration's measurements into a running per-query total
    /// (batched execution attributes each iteration's machine diff to
    /// every query active in it). Every field adds, and the average
    /// bandwidth is re-derived from the summed bytes and time.
    pub fn accumulate(&mut self, iteration: &RunStats) {
        self.combine(iteration, |a, b| a + b, |a, b| a + b);
    }

    /// Fold the per-device stats of one multi-GPU run into a group
    /// total. The devices ran *concurrently*, so elapsed time is the
    /// maximum (the devices' clocks are barrier-aligned each iteration);
    /// every counter sums across devices, and the average bandwidth is
    /// re-derived as aggregate bytes over the shared wall clock.
    pub fn aggregate_concurrent(per_device: &[RunStats]) -> RunStats {
        let mut total = RunStats::default();
        for s in per_device {
            total.combine(s, Time::max, |a, b| a + b);
        }
        total
    }

    /// Field-wise combination with `other`: `elapsed` folds the clock,
    /// `counter` every counter; `avg_pcie_gbps` is re-derived and
    /// `shared_fetch` keeps `self`'s value.
    fn combine(
        &mut self,
        other: &RunStats,
        elapsed: fn(Time, Time) -> Time,
        counter: fn(u64, u64) -> u64,
    ) {
        self.elapsed_ns = elapsed(self.elapsed_ns, other.elapsed_ns);
        let [b32, b64, b96, b128] = &mut self.request_sizes.buckets;
        let (t, ot) = (&mut self.transfer, &other.transfer);
        let (p, op) = (&mut self.prefetch, &other.prefetch);
        // The one list of counters: a new counter is one field above
        // plus one entry here.
        for (a, b) in [
            (&mut self.kernel_launches, other.kernel_launches),
            (&mut self.pcie_read_requests, other.pcie_read_requests),
            (b32, other.request_sizes.buckets[0]),
            (b64, other.request_sizes.buckets[1]),
            (b96, other.request_sizes.buckets[2]),
            (b128, other.request_sizes.buckets[3]),
            (&mut self.request_sizes.other, other.request_sizes.other),
            (&mut self.host_bytes, other.host_bytes),
            (&mut self.page_faults, other.page_faults),
            (&mut self.pages_migrated, other.pages_migrated),
            (&mut self.host_dram_bytes, other.host_dram_bytes),
            (&mut self.l2_sector_hits, other.l2_sector_hits),
            (&mut self.l2_sector_misses, other.l2_sector_misses),
            (&mut self.lane_bytes, other.lane_bytes),
            (&mut self.txn_bytes, other.txn_bytes),
            (&mut self.cxl_read_requests, other.cxl_read_requests),
            (&mut self.cxl_bytes, other.cxl_bytes),
            (&mut t.staged_regions, ot.staged_regions),
            (&mut t.staged_bytes, ot.staged_bytes),
            (&mut t.pool_fallbacks, ot.pool_fallbacks),
            (&mut t.staging_rounds, ot.staging_rounds),
            (&mut t.cxl_staged_regions, ot.cxl_staged_regions),
            (&mut t.cxl_staged_bytes, ot.cxl_staged_bytes),
            (&mut t.demoted_regions, ot.demoted_regions),
            (&mut p.prefetched_regions, op.prefetched_regions),
            (&mut p.prefetched_bytes, op.prefetched_bytes),
            (&mut p.hit_regions, op.hit_regions),
            (&mut p.hit_bytes, op.hit_bytes),
            (&mut p.wasted_bytes, op.wasted_bytes),
            (&mut p.stall_ns, op.stall_ns),
            (&mut p.hidden_ns, op.hidden_ns),
        ] {
            *a = counter(*a, b);
        }
        self.avg_pcie_gbps = if self.elapsed_ns == 0 {
            0.0
        } else {
            self.host_bytes as f64 / self.elapsed_ns as f64
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_and_amplification() {
        let r = KernelReport {
            start: 100,
            end: 350,
            ..Default::default()
        };
        assert_eq!(r.elapsed(), 250);
        let s = RunStats {
            host_bytes: 150,
            ..Default::default()
        };
        assert!((s.amplification(100) - 1.5).abs() < 1e-12);
        assert_eq!(s.amplification(0), 0.0);
    }
}
