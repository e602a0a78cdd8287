//! Frontier access reordering: sort each iteration's work by the cache
//! segment its edge-region read starts in.
//!
//! Inspired by in-advance reordering (IAR) schemes for irregular GPU
//! workloads: when the frontier is processed in vertex-id order, warps
//! jump between distant edge-list regions and their dst-status gathers
//! scatter across the L2. Sorting the iteration's work items by the
//! cache segment of their first edge-list access groups warps whose
//! reads share lines, so sectors fetched by one warp are still resident
//! when its neighbours in launch order touch them.
//!
//! # Determinism
//!
//! Reordering happens in the iteration driver, before kernel
//! construction, and is a pure function of iteration-start state: the
//! per-device work items (or merged batch union), the immutable
//! [`GraphLayout`] and a fixed segment size. [`segment_key`] is the
//! kernel-purity hook emogi-lint audits — its body may read only the
//! layout's address arithmetic, never live machine state, so the sort
//! order cannot depend on how previous warps interleaved. Because every
//! shipped [`VertexProgram`](crate::program::VertexProgram) commutes
//! over edge-visit order within an iteration (first-discovery BFS,
//! min-fold SSSP/CC, value-sorted PageRank reduction), outputs and
//! iteration counts are bit-identical with the stage on or off; only
//! traffic statistics move. `tests/layout_differential.rs` asserts
//! exactly that.

use crate::layout::GraphLayout;
use emogi_graph::{CsrGraph, VertexId};

/// Sort key of an edge-region access that begins at edge-list element
/// `start`: the cache segment the first byte lands in, then the exact
/// address within it. A pure function of the immutable layout — the
/// kernel-purity contract for this module (see `emogi-lint.toml`).
#[inline]
pub fn segment_key(layout: &GraphLayout, start: u64, segment_bytes: u64) -> (u64, u64) {
    let addr = layout.edge_addr(start);
    (addr / segment_bytes.max(1), addr)
}

/// Batched execution: sort the merged frontier `union` by the cache
/// segment of each vertex's neighbour-list start, ties broken by address
/// then vertex id, permuting its per-vertex membership `masks` in
/// lockstep — the `union[i] ↔ masks[i]` pairing the
/// [`BatchKernel`](crate::batch::BatchKernel) relies on. The order is
/// [`reorder_slices`]' order on the union's unsplit work items.
pub fn reorder_union(
    layout: &GraphLayout,
    graph: &CsrGraph,
    union: &mut Vec<VertexId>,
    masks: &mut Vec<u64>,
    segment_bytes: u64,
) {
    debug_assert_eq!(union.len(), masks.len(), "one mask per union vertex");
    let mut order: Vec<usize> = (0..union.len()).collect();
    order.sort_by_key(|&i| {
        let v = union[i];
        let (seg, addr) = segment_key(layout, graph.neighbor_start(v), segment_bytes);
        (seg, addr, v)
    });
    let permuted_union: Vec<VertexId> = order.iter().map(|&i| union[i]).collect();
    let permuted_masks: Vec<u64> = order.iter().map(|&i| masks[i]).collect();
    *union = permuted_union;
    *masks = permuted_masks;
}

/// Sort one device's work slices `(vertex, lo, hi)` by the cache segment
/// of each slice's first edge-list element, ties broken by address then
/// vertex. Call at the top of an iteration, before kernel construction.
/// Hub splitting can hand a device several slices of one vertex; the
/// per-slice `lo` keeps those distinct and address-ordered.
pub fn reorder_slices(
    layout: &GraphLayout,
    items: &mut [(VertexId, u64, u64)],
    segment_bytes: u64,
) {
    items.sort_by_key(|&(v, lo, _)| {
        let (seg, addr) = segment_key(layout, lo, segment_bytes);
        (seg, addr, v, lo)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::EdgePlacement;
    use emogi_graph::generators;
    use emogi_runtime::machine::MachineConfig;
    use emogi_runtime::Machine;

    fn layout_for(graph: &emogi_graph::CsrGraph) -> GraphLayout {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        GraphLayout::place(&mut m, graph, 8, EdgePlacement::ZeroCopyHost, false)
    }

    #[test]
    fn segment_key_groups_by_segment_then_address() {
        let g = generators::uniform_random(64, 4, 9);
        let l = layout_for(&g);
        let a = segment_key(&l, 0, 4096);
        let b = segment_key(&l, 1, 4096);
        assert_eq!(a.0, b.0, "adjacent elements share a 4 KiB segment");
        assert!(b.1 > a.1, "address breaks the tie");
        let far = segment_key(&l, 4096, 4096);
        assert!(far.0 > a.0, "distant element lands in a later segment");
    }

    #[test]
    fn segment_key_survives_zero_segment() {
        let g = generators::uniform_random(8, 2, 1);
        let l = layout_for(&g);
        // max(1) guards the division; the key degenerates to plain address order.
        let k = segment_key(&l, 3, 0);
        assert_eq!(k.0, l.edge_addr(3));
    }

    #[test]
    fn reorder_slices_is_a_permutation_in_segment_order() {
        let g = generators::uniform_random(500, 6, 3);
        let l = layout_for(&g);
        let mut items: Vec<(VertexId, u64, u64)> = (0..500u32)
            .rev()
            .map(|v| (v, g.neighbor_start(v), g.neighbor_end(v)))
            .collect();
        let mut expected = items.clone();
        expected.sort_unstable();
        reorder_slices(&l, &mut items, 4096);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, expected, "reorder permutes, never drops");
        for w in items.windows(2) {
            let ka = segment_key(&l, w[0].1, 4096);
            let kb = segment_key(&l, w[1].1, 4096);
            assert!(ka <= kb, "non-decreasing segment keys");
        }
    }

    #[test]
    fn reorder_union_orders_like_unsplit_slices() {
        let g = generators::uniform_random(300, 6, 11);
        let l = layout_for(&g);
        let mut union: Vec<VertexId> = (0..300).rev().collect();
        let mut masks = vec![1u64; union.len()];
        let mut items: Vec<(VertexId, u64, u64)> = union
            .iter()
            .map(|&v| (v, g.neighbor_start(v), g.neighbor_end(v)))
            .collect();
        reorder_union(&l, &g, &mut union, &mut masks, 2048);
        reorder_slices(&l, &mut items, 2048);
        let order: Vec<VertexId> = items.iter().map(|it| it.0).collect();
        assert_eq!(union, order);
    }

    #[test]
    fn reorder_union_keeps_masks_in_lockstep() {
        let g = generators::uniform_random(200, 5, 7);
        let l = layout_for(&g);
        let mut union: Vec<VertexId> = (0..200).rev().collect();
        let mut masks: Vec<u64> = union.iter().map(|&v| u64::from(v) << 1 | 1).collect();
        reorder_union(&l, &g, &mut union, &mut masks, 2048);
        assert_eq!(union.len(), masks.len());
        for (&v, &m) in union.iter().zip(&masks) {
            assert_eq!(m, u64::from(v) << 1 | 1, "mask moved with its vertex");
        }
    }

    #[test]
    fn reorder_slices_orders_by_slice_start() {
        let g = generators::uniform_random(100, 8, 5);
        let l = layout_for(&g);
        let mut items: Vec<(VertexId, u64, u64)> = (0..100u32)
            .rev()
            .map(|v| {
                let lo = g.neighbor_start(v);
                (v, lo, lo + g.degree(v))
            })
            .collect();
        reorder_slices(&l, &mut items, 4096);
        for w in items.windows(2) {
            assert!(
                l.edge_addr(w[0].1) <= l.edge_addr(w[1].1),
                "slices in edge-address order"
            );
        }
    }
}
