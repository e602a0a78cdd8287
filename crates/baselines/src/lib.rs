//! # emogi-baselines — the systems EMOGI is compared against
//!
//! * **UVM** (§5.1.2(a)) — the optimized UVM baseline is simply
//!   `emogi_core::EngineConfig::uvm_v100()`: the same kernels with the
//!   edge list in managed memory and `cudaMemAdviseSetReadMostly`. This
//!   crate adds nothing for it.
//! * **HALO-like** ([`halo`], Table 3 upper half) — Gera et al.'s
//!   locality-enhancing CSR reordering, then UVM traversal. Since HALO's
//!   source is unavailable (the paper compares against published numbers),
//!   we implement the published mechanism: relabel vertices so that
//!   vertices activated together hold adjacent neighbour lists, which
//!   packs each BFS level's reads onto contiguous pages.
//! * **Subway-like** ([`subway`], Table 3 lower half) — Sabet et al.'s
//!   per-iteration subgraph extraction: gather the active vertices'
//!   neighbour lists into a compact buffer, `cudaMemcpy` it to the GPU,
//!   and run the iteration entirely from device memory (sync and async
//!   flavours).

#![forbid(unsafe_code)]

pub mod halo;
pub mod subway;

pub use halo::HaloSystem;
pub use subway::{SubwayMode, SubwaySystem};
