//! The memory-access coalescing unit.
//!
//! GPUs service a warp's 32 simultaneous lane accesses by merging them into
//! the minimum number of *transactions*: within each 128-byte cache line,
//! every contiguous run of touched 32-byte sectors becomes one transaction.
//! This is precisely the behaviour EMOGI observed on the FPGA monitor
//! (Figure 3): zero-copy requests only ever appear in 32/64/96/128-byte
//! sizes, strided lane accesses degenerate into per-lane 32-byte requests,
//! warp-contiguous aligned accesses merge into full 128-byte requests, and
//! a 32-byte misalignment splits each line into a 96 + 32 byte pair.

use crate::access::{LaneAccess, Space};

/// Bytes per sector — the smallest external memory request a GPU makes.
pub const SECTOR_BYTES: u64 = 32;
/// Bytes per cache line — the largest single coalesced request.
pub const LINE_BYTES: u64 = 128;
/// Sectors per line.
pub const SECTORS_PER_LINE_U64: u64 = LINE_BYTES / SECTOR_BYTES;

/// A coalesced memory transaction: contiguous sectors within one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    pub addr: u64,
    /// Always a multiple of 32 in `{32, 64, 96, 128}`.
    pub size: u32,
    pub space: Space,
    pub store: bool,
}

impl Transaction {
    /// Address of the 128-byte line this transaction lives in.
    #[inline]
    pub fn line(&self) -> u64 {
        self.addr & !(LINE_BYTES - 1)
    }

    /// Bitmask of the sectors within the line this transaction covers.
    #[inline]
    pub fn sector_mask(&self) -> u8 {
        run_mask(
            (self.addr % LINE_BYTES) / SECTOR_BYTES,
            u64::from(self.size) / SECTOR_BYTES,
        )
    }
}

// A coalescer entry packs one (space, store, instruction, line) key and
// the line's touched-sector mask into a `u64`, most significant field
// first, so sorting plain integers sorts by key and brings equal keys
// together: space rank (2 bits), store (1), instruction group (8), line
// index (49), sector mask (4).
const MASK_BITS: u32 = 4;
const LINE_INDEX_BITS: u32 = 49;
const INSTR_SHIFT: u32 = MASK_BITS + LINE_INDEX_BITS;
const STORE_SHIFT: u32 = INSTR_SHIFT + 8;
const SPACE_SHIFT: u32 = STORE_SHIFT + 1;

fn space_rank(s: Space) -> u8 {
    match s {
        Space::Device => 0,
        Space::HostPinned => 1,
        Space::Managed => 2,
        Space::Cxl => 3,
    }
}

fn rank_space(r: u8) -> Space {
    match r {
        0 => Space::Device,
        1 => Space::HostPinned,
        2 => Space::Managed,
        _ => Space::Cxl,
    }
}

/// Bitmask of `count` sectors starting at sector `first` of a line.
#[inline]
pub fn run_mask(first: u64, count: u64) -> u8 {
    (((1u16 << count) - 1) << first) as u8
}

/// The runs of set bits in a line's sector mask, lowest first, as
/// `(first sector, sector count)`.
#[inline]
pub fn sector_runs(mut mask: u8) -> impl Iterator<Item = (u64, u64)> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let first = u64::from(mask.trailing_zeros());
        let count = u64::from((mask >> first).trailing_ones());
        mask &= !run_mask(first, count);
        Some((first, count))
    })
}

/// The coalescing unit. Holds scratch buffers so per-step coalescing does
/// not allocate; one per executor.
#[derive(Debug, Default)]
pub struct Coalescer {
    entries: Vec<u64>,
}

impl Coalescer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Coalesce a warp's lane accesses into transactions, appended to
    /// `out` in deterministic (space, store, instruction, address) order.
    pub fn coalesce(&mut self, accesses: &[LaneAccess], out: &mut Vec<Transaction>) {
        self.entries.clear();
        for a in accesses {
            if a.size == 0 {
                continue;
            }
            let group = (u64::from(space_rank(a.space)) << SPACE_SHIFT)
                | (u64::from(a.store) << STORE_SHIFT)
                | (u64::from(a.instr) << INSTR_SHIFT);
            let first_sector = a.addr / SECTOR_BYTES;
            let last_sector = (a.addr + u64::from(a.size) - 1) / SECTOR_BYTES;
            for s in first_sector..=last_sector {
                let line_index = s / SECTORS_PER_LINE_U64;
                debug_assert!(
                    line_index < 1 << LINE_INDEX_BITS,
                    "line index of address {:#x} overflows its packed field",
                    a.addr
                );
                let entry = group | (line_index << MASK_BITS) | 1 << (s % SECTORS_PER_LINE_U64);
                // Fast path: warps usually touch lines in address order,
                // so the previous entry is a frequent match.
                match self.entries.last_mut() {
                    Some(last) if same_key(*last, entry) => *last |= entry,
                    _ => self.entries.push(entry),
                }
            }
        }
        self.entries.sort_unstable();
        // Merge entries of equal key, then emit contiguous sector runs.
        let mut i = 0;
        while i < self.entries.len() {
            let mut entry = self.entries[i];
            i += 1;
            while i < self.entries.len() && same_key(self.entries[i], entry) {
                entry |= self.entries[i];
                i += 1;
            }
            emit_runs(entry, out);
        }
    }
}

/// Whether two packed entries differ at most in their sector masks.
#[inline]
fn same_key(a: u64, b: u64) -> bool {
    (a ^ b) >> MASK_BITS == 0
}

/// Emit one transaction per run of set bits in a packed entry's mask.
fn emit_runs(entry: u64, out: &mut Vec<Transaction>) {
    let line = ((entry >> MASK_BITS) & ((1 << LINE_INDEX_BITS) - 1)) * LINE_BYTES;
    let space = rank_space((entry >> SPACE_SHIFT) as u8);
    let store = (entry >> STORE_SHIFT) & 1 == 1;
    let mask = (entry & ((1 << MASK_BITS) - 1)) as u8;
    debug_assert!(mask != 0, "line sector mask empty");
    for (first, count) in sector_runs(mask) {
        out.push(Transaction {
            addr: line + first * SECTOR_BYTES,
            size: (count * SECTOR_BYTES) as u32,
            space,
            store,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessBatch;

    fn coalesce(batch: &AccessBatch) -> Vec<Transaction> {
        let mut c = Coalescer::new();
        let mut out = Vec::new();
        c.coalesce(batch.items(), &mut out);
        out
    }

    /// Figure 3(a): each lane scans a different 128-byte block, producing
    /// per-lane 32-byte requests.
    #[test]
    fn strided_lanes_produce_32_byte_requests() {
        let mut b = AccessBatch::new();
        for lane in 0..32u64 {
            b.load(lane * 128, 8, Space::HostPinned);
        }
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 32);
        assert!(txns.iter().all(|t| t.size == 32));
    }

    /// Figure 3(b): 32 lanes reading consecutive 4-byte elements from a
    /// 128-byte-aligned address merge into a single 128-byte request.
    #[test]
    fn aligned_warp_access_merges_to_one_line() {
        let mut b = AccessBatch::new();
        for lane in 0..32u64 {
            b.load(0x8000 + lane * 4, 4, Space::HostPinned);
        }
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].size, 128);
        assert_eq!(txns[0].addr, 0x8000);
    }

    /// Figure 3(c): the same warp access misaligned by 32 bytes produces a
    /// 96-byte and a 32-byte request.
    #[test]
    fn misaligned_warp_access_splits_96_plus_32() {
        let mut b = AccessBatch::new();
        for lane in 0..32u64 {
            b.load(0x8020 + lane * 4, 4, Space::HostPinned);
        }
        let mut txns = coalesce(&b);
        txns.sort_by_key(|t| t.addr);
        assert_eq!(txns.len(), 2);
        assert_eq!((txns[0].addr, txns[0].size), (0x8020, 96));
        assert_eq!((txns[1].addr, txns[1].size), (0x8080, 32));
    }

    /// EMOGI's 8-byte CSR elements: one warp iteration covers 256 bytes,
    /// i.e. two full 128-byte requests when aligned.
    #[test]
    fn eight_byte_elements_cover_two_lines() {
        let mut b = AccessBatch::new();
        for lane in 0..32u64 {
            b.load(0x1000 + lane * 8, 8, Space::HostPinned);
        }
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 2);
        assert!(txns.iter().all(|t| t.size == 128));
    }

    #[test]
    fn hole_in_sector_mask_splits_runs() {
        let mut b = AccessBatch::new();
        b.load(0, 8, Space::HostPinned); // sector 0
        b.load(64, 8, Space::HostPinned); // sector 2
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 2);
        assert_eq!((txns[0].addr, txns[0].size), (0, 32));
        assert_eq!((txns[1].addr, txns[1].size), (64, 32));
    }

    #[test]
    fn spaces_and_stores_do_not_merge_with_each_other() {
        let mut b = AccessBatch::new();
        b.load(0, 8, Space::Device);
        b.load(8, 8, Space::HostPinned);
        b.store(16, 8, Space::HostPinned);
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 3, "{txns:?}");
    }

    #[test]
    fn access_straddling_sector_boundary_touches_both() {
        let mut b = AccessBatch::new();
        b.load(28, 8, Space::Device); // bytes 28..36: sectors 0 and 1
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 1);
        assert_eq!((txns[0].addr, txns[0].size), (0, 64));
    }

    #[test]
    fn sector_mask_roundtrip() {
        let t = Transaction {
            addr: 0x8020,
            size: 96,
            space: Space::HostPinned,
            store: false,
        };
        assert_eq!(t.line(), 0x8000);
        assert_eq!(t.sector_mask(), 0b1110);
    }

    /// Same-lane loads from different loop iterations (distinct
    /// instructions) must not merge even when byte-adjacent: coalescing
    /// is a per-instruction mechanism.
    #[test]
    fn different_instructions_never_merge() {
        let mut b = AccessBatch::new();
        for k in 0..4u64 {
            b.load_instr(0x1000 + k * 8, 8, Space::HostPinned, k as u8);
        }
        let txns = coalesce(&b);
        assert_eq!(txns.len(), 4, "{txns:?}");
        assert!(txns.iter().all(|t| t.size == 32));
    }

    #[test]
    fn same_instruction_adjacent_sectors_do_merge() {
        let mut b = AccessBatch::new();
        for k in 0..4u64 {
            b.load_instr(0x1000 + k * 32, 8, Space::HostPinned, 7);
        }
        assert_eq!(coalesce(&b).len(), 1);
    }

    #[test]
    fn zero_size_access_is_ignored() {
        let mut b = AccessBatch::new();
        b.load(0, 0, Space::Device);
        assert!(coalesce(&b).is_empty());
    }

    /// The struct-key coalescer the packed one replaced, kept verbatim as
    /// the order oracle for [`matches_the_struct_key_reference`].
    mod reference {
        use super::super::{
            rank_space, space_rank, LaneAccess, Transaction, LINE_BYTES, SECTORS_PER_LINE_U64,
            SECTOR_BYTES,
        };

        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        struct EntryKey {
            space_rank: u8,
            store: bool,
            instr: u8,
            line: u64,
        }

        pub fn coalesce(accesses: &[LaneAccess]) -> Vec<Transaction> {
            let mut entries: Vec<(EntryKey, u8)> = Vec::new();
            for a in accesses {
                if a.size == 0 {
                    continue;
                }
                let first_sector = a.addr / SECTOR_BYTES;
                let last_sector = (a.addr + u64::from(a.size) - 1) / SECTOR_BYTES;
                for s in first_sector..=last_sector {
                    let key = EntryKey {
                        space_rank: space_rank(a.space),
                        store: a.store,
                        instr: a.instr,
                        line: (s * SECTOR_BYTES) & !(LINE_BYTES - 1),
                    };
                    entries.push((key, 1u8 << (s % SECTORS_PER_LINE_U64)));
                }
            }
            entries.sort_unstable_by_key(|(k, _)| *k);
            let mut out = Vec::new();
            let mut i = 0;
            while i < entries.len() {
                let (key, mut mask) = entries[i];
                let mut j = i + 1;
                while j < entries.len() && entries[j].0 == key {
                    mask |= entries[j].1;
                    j += 1;
                }
                i = j;
                let mut sector = 0u64;
                let mut m = mask;
                while m != 0 {
                    let skip = m.trailing_zeros() as u64;
                    sector += skip;
                    m >>= skip;
                    let run = m.trailing_ones() as u64;
                    out.push(Transaction {
                        addr: key.line + sector * SECTOR_BYTES,
                        size: (run * SECTOR_BYTES) as u32,
                        space: rank_space(key.space_rank),
                        store: key.store,
                    });
                    sector += run;
                    m = m.checked_shr(run as u32).unwrap_or(0);
                }
            }
            out
        }
    }

    /// SplitMix64: a dependency-free deterministic generator for the
    /// differential test below.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The coalescer emits exactly the transactions, in exactly the order,
    /// of the struct-key reference, on random batches over all four
    /// spaces, loads and stores, several instruction groups, accesses that
    /// straddle sectors and lines, addresses around the simulator's
    /// highest space base (the CXL base, 2^50) and the top of the packed
    /// line field, and batches of more than 512 accesses.
    #[test]
    fn matches_the_struct_key_reference() {
        const CXL_BASE: u64 = 0x4_0000_0000_0000;
        let bases = [
            0,
            0x1_0000_0000_0000,
            0x2_0000_0000_0000,
            0x3_0000_0000_0000,
            CXL_BASE - 4096,
            CXL_BASE,
            (1 << 56) - (1 << 21),
        ];
        let spaces = [Space::Device, Space::HostPinned, Space::Managed, Space::Cxl];
        let sizes = [1u8, 4, 4, 8, 8, 8, 16, 33, 100, 255];
        let mut rng = SplitMix(0x5EED);
        let mut c = Coalescer::new();
        let mut got = Vec::new();
        for case in 0..2000 {
            let n = if case % 10 == 0 {
                513 + rng.below(700) as usize
            } else {
                1 + rng.below(96) as usize
            };
            let base = bases[rng.below(bases.len() as u64) as usize];
            let span = [256, 4096, 1 << 20][rng.below(3) as usize];
            let accesses: Vec<LaneAccess> = (0..n)
                .map(|_| {
                    let size = sizes[rng.below(sizes.len() as u64) as usize];
                    let addr = base + rng.below(span);
                    let space = spaces[rng.below(4) as usize];
                    let instr = [0, 0, 1, 2, 7, 255][rng.below(6) as usize];
                    let a = if rng.below(4) == 0 {
                        LaneAccess::store(addr, size, space)
                    } else {
                        LaneAccess::load(addr, size, space)
                    };
                    a.with_instr(instr)
                })
                .collect();
            got.clear();
            c.coalesce(&accesses, &mut got);
            assert_eq!(got, reference::coalesce(&accesses), "case {case}");
        }
    }

    #[test]
    fn unordered_lanes_coalesce_the_same() {
        let mut fwd = AccessBatch::new();
        let mut rev = AccessBatch::new();
        for lane in 0..32u64 {
            fwd.load(0x2000 + lane * 4, 4, Space::HostPinned);
            rev.load(0x2000 + (31 - lane) * 4, 4, Space::HostPinned);
        }
        assert_eq!(coalesce(&fwd), coalesce(&rev));
    }
}
