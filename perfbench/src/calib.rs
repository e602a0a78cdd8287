//! Host timing relative to a fixed reference workload.
//!
//! The speed of a shared host drifts by tens of percent within seconds.
//! A [`Meter`] times each interval of interest (one query, one serving
//! round, one set-up) and runs a short reference workload right after it.
//! The interval's scaled time is its wall time × [`REFERENCE_S`] / the
//! mean of the reference runs on either side of it: seconds on a host
//! whose reference run takes `REFERENCE_S`.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Reference-run seconds of the host the scaled timings are expressed
/// for: about what one run took on the 2-core development container.
pub const REFERENCE_S: f64 = 0.038;
/// Random-access table: well past any L2, like the simulator's arrays.
const TABLE_WORDS: usize = 1 << 20;
/// Rounds of one reference run.
const ROUNDS: u64 = 1 << 17;

/// Wall and scaled seconds of one or more timed intervals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lap {
    pub wall_s: f64,
    pub scaled_s: f64,
}

impl std::ops::AddAssign for Lap {
    fn add_assign(&mut self, other: Lap) {
        self.wall_s += other.wall_s;
        self.scaled_s += other.scaled_s;
    }
}

/// Times intervals, scaling each by the reference runs on either side.
pub struct Meter {
    /// `None` leaves scaled time equal to wall time.
    reference: Option<Reference>,
    last_ref_s: f64,
    /// Every reference run, in order.
    pub refs: Vec<f64>,
}

impl Meter {
    /// A meter with reference runs; makes the first one now.
    pub fn on() -> Meter {
        let mut reference = Reference::new();
        let last_ref_s = reference.time();
        Meter {
            reference: Some(reference),
            last_ref_s,
            refs: vec![last_ref_s],
        }
    }

    /// A meter without reference runs: scaled time is wall time.
    pub fn off() -> Meter {
        Meter {
            reference: None,
            last_ref_s: REFERENCE_S,
            refs: Vec::new(),
        }
    }

    /// Close the interval that began at `since`.
    pub fn lap(&mut self, since: Instant) -> Lap {
        let wall_s = since.elapsed().as_secs_f64();
        let Some(reference) = &mut self.reference else {
            return Lap {
                wall_s,
                scaled_s: wall_s,
            };
        };
        let now_s = reference.time();
        let scaled_s = wall_s * 2.0 * REFERENCE_S / (self.last_ref_s + now_s);
        self.last_ref_s = now_s;
        self.refs.push(now_s);
        Lap { wall_s, scaled_s }
    }
}

/// A reference run exercises what the simulator's hot loop does — an
/// event heap, a hash map of in-flight lines, and scattered reads and
/// writes of a large table — with code of its own that never changes, so
/// any change in its time is the host's.
struct Reference {
    table: Vec<u64>,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            table: (0..TABLE_WORDS as u64).collect(),
        }
    }

    /// Seconds one reference run takes now.
    fn time(&mut self) -> f64 {
        let t = Instant::now();
        let mut heap = BinaryHeap::new();
        let mut inflight: HashMap<u64, u32> = HashMap::new();
        let mask = TABLE_WORDS as u64 - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = ((x ^ self.table[(x & mask) as usize]) & mask) as usize;
            self.table[i] = self.table[i].wrapping_mul(31).wrapping_add(x);
            heap.push(std::cmp::Reverse((step + (x & 1023), i as u32)));
            *inflight.entry(x & 0xFFFF).or_insert(0) += 1;
            if heap.len() > 4096 {
                let std::cmp::Reverse((_, j)) = heap.pop().expect("heap is not empty");
                inflight.remove(&(u64::from(j) & 0xFFFF));
            }
        }
        black_box((&self.table, heap.len(), inflight.len()));
        t.elapsed().as_secs_f64()
    }
}
