//! A fixed reference workload that measures the host's full speed, so
//! the benchmark can report time in units of it. On a shared host a core
//! flips between full speed and a slowed state, and even its full speed
//! drifts by several percent over minutes as other tenants load its
//! caches and memory bus; CPU time alone cannot cancel that. The best of
//! many short runs of the reference gives the full speed of the moment,
//! as the best of several passes does for the workload. The reference
//! does the kinds of work the simulator does per event and per pump tick
//! (cloning strings, ordered-map lookups, ring-buffer pushes, an event
//! heap, copying and hashing byte buffers) and uses none of the
//! program's code, so a change to the program never moves it.

use crate::cputime::Stopwatch;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hash::{Hash, Hasher};
use std::hint::black_box;

const SERIES: usize = 256;
const RING: usize = 64;
const TICKS: u64 = 200;
const EVENTS_PER_TICK: u64 = 64;
const BUF: usize = 4096;

/// CPU seconds the best run of the reference takes on the host the
/// bounds were set on (a 2-vCPU x86 VM); time is reported in units where
/// the best run takes this long.
pub const NOMINAL_S: f64 = 0.0065;

/// CPU seconds of one run of the reference workload.
pub fn reference_cpu_s() -> f64 {
    let t = Stopwatch::start();
    black_box(reference());
    t.cpu_s()
}

fn reference() -> u64 {
    let mut series: BTreeMap<String, VecDeque<u64>> = (0..SERIES)
        .map(|i| {
            (
                format!("kosha_ref_series_total{{peer=\"n{i}\"}}"),
                VecDeque::new(),
            )
        })
        .collect();
    let mut heap = BinaryHeap::new();
    let mut buf = vec![0u8; BUF];
    let mut acc = 0u64;
    for tick in 0..TICKS {
        let names: Vec<String> = series.keys().cloned().collect();
        for (i, name) in names.iter().enumerate() {
            let ring = series.get_mut(name).expect("name was just listed");
            ring.push_back(tick.wrapping_mul(i as u64 + 1));
            if ring.len() > RING {
                acc = acc.wrapping_add(ring.pop_front().unwrap_or(0));
            }
        }
        for e in 0..EVENTS_PER_TICK {
            heap.push(Reverse((tick * EVENTS_PER_TICK + (e * 7919) % 613, e)));
        }
        for _ in 0..EVENTS_PER_TICK {
            if let Some(Reverse((at, e))) = heap.pop() {
                acc = acc.wrapping_add(at ^ e);
            }
        }
        let copy = buf.clone();
        for (j, b) in buf.iter_mut().enumerate() {
            *b = copy[(j + tick as usize) % BUF].wrapping_add(j as u8);
        }
        let mut h = DefaultHasher::new();
        buf.hash(&mut h);
        acc ^= h.finish();
    }
    acc
}
