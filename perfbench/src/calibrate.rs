//! A fixed reference kernel that gauges the machine's current speed.
//!
//! On a shared machine the same code runs up to 1.5× slower for tens of
//! seconds at a time when co-tenants are busy, which no amount of
//! repetition inside one run can average out. The benchmark therefore
//! times this kernel between cases and scales its timings by
//! `REFERENCE_MS / kernel time`: each reported time is the time the pass
//! would have taken on a machine that runs the kernel in exactly
//! `REFERENCE_MS`. The kernel mixes what the checker does most — hashing,
//! small allocations, pointer chasing in ordered maps and random reads
//! of a table larger than L1 — and depends on no code under test, so
//! scaled times of two commits stay comparable. Raw wall times are
//! printed next to the scaled ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Nominal duration of one kernel run, in milliseconds.
pub const REFERENCE_MS: f64 = 2.0;

/// Rounds of the kernel; sized so one call takes about `REFERENCE_MS` on
/// an unloaded 2-core VM.
const ROUNDS: u64 = 5_000;
const TABLE: usize = 1 << 13;

/// Runs the kernel once on each of `threads` threads at the same time and
/// returns the wall time until all are done, in milliseconds. A workload
/// running on two threads is gauged on two, so a busy second core shows.
pub fn kernel_ms(threads: usize) -> f64 {
    let start = Instant::now();
    if threads <= 1 {
        kernel();
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(kernel);
            }
        });
    }
    start.elapsed().as_secs_f64() * 1e3
}

fn kernel() {
    let mut table = vec![0u64; TABLE];
    let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut acc = 0u64;
    for i in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (TABLE - 1);
        table[slot] = table[slot].wrapping_add(x);
        acc = acc.wrapping_add(table[(x >> 20) as usize & (TABLE - 1)]);
        map.entry(x % 4096).or_default().push(i as u32);
        if i % 64 == 0 {
            map.retain(|k, v| (k ^ acc) % 7 != 0 || v.len() < 4);
        }
    }
    black_box((acc, map.len()));
}
