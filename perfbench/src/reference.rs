//! The reference kernel: fixed benchmark-owned code that measures how
//! fast the machine runs allocation- and pointer-heavy work right now.
//!
//! On a host whose other tenants share the cores and the last-level
//! cache, such code changes speed in phases of seconds to tens of
//! seconds, and the kernel's speed moves with the engines' (see
//! `README.md`). Dividing a repetition's times by the kernel's current
//! slowdown removes most of that phase noise. The kernel's work never
//! changes with the program under test.

use crate::local::mix;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Keys per pass: ~2 MB of ordered-map nodes and hash-map entries.
const KEYS: u64 = 20_000;

/// Seconds one pass takes at the machine's quiet speed, with one and
/// with two passes running at once, measured on the 2-vCPU host the
/// README describes (two concurrent passes contend for shared caches).
/// Reported timings are seconds of a machine running at this speed.
const NOMINAL_S: [f64; 2] = [0.0095, 0.0140];

/// One pass: build an ordered map of boxed values, run range lookups
/// over it, and fill a hash map of small vectors.
fn pass() -> u64 {
    let mut x = 1u64;
    let mut ordered = BTreeMap::new();
    for i in 0..KEYS {
        x = mix(x);
        ordered.insert(x, Box::new(i));
    }
    let mut acc = 0u64;
    for _ in 0..2 * KEYS {
        x = mix(x);
        if let Some((_, v)) = ordered.range(x..).next() {
            acc = acc.wrapping_add(**v);
        }
    }
    let mut hashed = HashMap::new();
    for i in 0..KEYS {
        x = mix(x);
        hashed.insert(x, vec![i; 3]);
    }
    acc.wrapping_add(hashed.len() as u64)
}

/// Seconds one pass takes now.
fn timed_pass() -> f64 {
    let t = Instant::now();
    std::hint::black_box(pass());
    t.elapsed().as_secs_f64()
}

/// The machine's slowdown now: the time of `threads` concurrent passes
/// (one per CPU the workload keeps busy), averaged, over its nominal
/// time.
///
/// # Panics
///
/// Panics unless `threads` is 1 or 2.
pub fn slowdown(threads: usize) -> f64 {
    let nominal = NOMINAL_S[threads - 1];
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(timed_pass)).collect();
        let mine = timed_pass();
        let theirs: f64 = helpers
            .into_iter()
            .map(|h| h.join().expect("reference pass panicked"))
            .sum();
        (mine + theirs) / threads as f64 / nominal
    })
}
