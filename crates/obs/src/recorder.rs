//! Cluster flight recorder: fixed-memory metric time-series, read-heat
//! tracking, and cluster-level load analytics.
//!
//! The registry ([`crate::Registry`]) answers "what is the value now";
//! this module answers "how did it get there". Three pieces:
//!
//! * [`Series`] — a fixed-capacity ring of `(t_nanos, value)` points.
//!   When the ring is full it does not drop history: it halves its
//!   resolution by merging adjacent pairs (keeping the earlier timestamp
//!   and the `max` of the two values, which preserves peaks for gauges
//!   and is the last value for monotonic counters), so a series always
//!   spans its whole lifetime in bounded memory.
//! * [`Recorder`] — a named set of series plus *sources* (counter,
//!   gauge, or histogram-percentile handles). [`Recorder::sample_all`]
//!   snapshots every source at a caller-supplied timestamp; under
//!   `SimNetwork` that timestamp comes from the virtual clock, so two
//!   runs with the same seed produce byte-identical series.
//! * [`ReadHeat`] — per-object read popularity: an EWMA with half-life
//!   decay per key, capped by a space-saving sketch so the hottest N
//!   objects are tracked in O(N) memory with a bounded overestimate.
//!
//! Free functions compute cluster analytics over plain slices:
//! [`load_skew_x1000`] (max/mean and Gini across nodes) and
//! [`slo_burn_x1000`] (fraction of latency samples over an SLO).
//!
//! Like the rest of the crate there are zero dependencies and no clock:
//! time is plain `u64` nanoseconds injected by the caller, which is the
//! determinism contract (DESIGN.md §13).

use crate::histogram::Histogram;
use crate::registry::{Counter, Gauge};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default number of points a series holds before downsampling.
pub const DEFAULT_SERIES_CAPACITY: usize = 256;

/// Default maximum number of series one recorder will hold; beyond this
/// new series are dropped (and counted in [`Recorder::dropped`]).
pub const DEFAULT_MAX_SERIES: usize = 512;

/// One `(t_nanos, value)` point.
pub type Point = (u64, u64);

/// Fixed-capacity time-series ring with pair-merge downsampling.
#[derive(Debug)]
pub struct Series {
    points: VecDeque<Point>,
    capacity: usize,
    /// How many pair-merge passes this series has absorbed.
    downsamples: u64,
}

impl Series {
    /// New empty series holding at most `capacity` points (min 2).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Series {
            points: VecDeque::new(),
            capacity: capacity.max(2),
            downsamples: 0,
        }
    }

    /// Appends a point; merges adjacent pairs when full.
    pub fn push(&mut self, t_nanos: u64, value: u64) {
        if self.points.len() >= self.capacity {
            self.downsample();
        }
        self.points.push_back((t_nanos, value));
    }

    /// Halves resolution: adjacent pairs become one point keeping the
    /// earlier timestamp and the larger value.
    fn downsample(&mut self) {
        let mut merged = VecDeque::with_capacity(self.capacity);
        let mut it = self.points.drain(..);
        while let Some((t, v)) = it.next() {
            match it.next() {
                Some((_, v2)) => merged.push_back((t, v.max(v2))),
                None => merged.push_back((t, v)),
            }
        }
        drop(it);
        self.points = merged;
        self.downsamples += 1;
    }

    /// All points, oldest first.
    #[must_use]
    pub fn points(&self) -> Vec<Point> {
        self.points.iter().copied().collect()
    }

    /// The most recent point, if any.
    #[must_use]
    pub fn last(&self) -> Option<Point> {
        self.points.back().copied()
    }

    /// Number of points currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points were recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// How many pair-merge passes have happened.
    #[must_use]
    pub fn downsamples(&self) -> u64 {
        self.downsamples
    }

    /// Worst-case payload bytes for this series (capacity × point size);
    /// the memory ceiling reported by benches.
    #[must_use]
    pub fn memory_ceiling_bytes(&self) -> usize {
        self.capacity * std::mem::size_of::<Point>()
    }
}

/// What a [`Recorder`] samples on each tick: a live handle plus how to
/// turn it into a `u64`.
#[derive(Debug, Clone)]
enum Source {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    /// Histogram percentile in parts-per-hundred (50 → p50, 99 → p99).
    HistPct(Arc<Histogram>, u8),
}

impl Source {
    fn read(&self) -> u64 {
        match self {
            Source::Counter(c) => c.get(),
            Source::Gauge(g) => g.get().max(0) as u64,
            Source::HistPct(h, pct) => h.quantile(f64::from(*pct) / 100.0),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    // lint: allow(L008) bounded by max_series: record_locked refuses and counts every new series past the budget
    series: BTreeMap<String, Series>,
    // lint: allow(L008) bounded by max_series: watch refuses and counts every new source past the budget
    sources: BTreeMap<String, Source>,
}

/// Named time-series store plus the sources sampled into it.
///
/// All mutation goes through one `Mutex`; `sample_all` only reads
/// atomics under it, so it never blocks on I/O or RPC.
#[derive(Debug)]
pub struct Recorder {
    inner: Mutex<Inner>,
    series_capacity: usize,
    max_series: usize,
    downsamples: AtomicU64,
    dropped: AtomicU64,
    ticks: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(DEFAULT_SERIES_CAPACITY, DEFAULT_MAX_SERIES)
    }
}

impl Recorder {
    /// New recorder: each series holds `series_capacity` points, at most
    /// `max_series` series are kept.
    #[must_use]
    pub fn new(series_capacity: usize, max_series: usize) -> Self {
        Recorder {
            inner: Mutex::new(Inner::default()),
            series_capacity: series_capacity.max(2),
            max_series: max_series.max(1),
            downsamples: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        }
    }

    /// Registers a counter to be sampled as series `name` on every tick.
    pub fn watch_counter(&self, name: &str, c: &Arc<Counter>) {
        self.watch(name, Source::Counter(Arc::clone(c)));
    }

    /// Registers a gauge to be sampled as series `name` on every tick.
    /// Negative gauge values clamp to 0 (series points are `u64`).
    pub fn watch_gauge(&self, name: &str, g: &Arc<Gauge>) {
        self.watch(name, Source::Gauge(Arc::clone(g)));
    }

    /// Registers a histogram percentile (e.g. `pct = 99` for p99) to be
    /// sampled as series `name` on every tick.
    pub fn watch_histogram_pct(&self, name: &str, h: &Arc<Histogram>, pct: u8) {
        self.watch(name, Source::HistPct(Arc::clone(h), pct.min(100)));
    }

    fn watch(&self, name: &str, src: Source) {
        let mut inner = self.inner.lock().expect("recorder lock");
        if inner.sources.len() >= self.max_series && !inner.sources.contains_key(name) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        inner.sources.insert(name.to_string(), src);
    }

    /// Appends one point directly to series `name` (for values that are
    /// not registry handles). Drops the point if the series budget is
    /// exhausted.
    pub fn record(&self, name: &str, t_nanos: u64, value: u64) {
        let mut inner = self.inner.lock().expect("recorder lock");
        self.record_locked(&mut inner, name, t_nanos, value);
    }

    fn record_locked(&self, inner: &mut Inner, name: &str, t_nanos: u64, value: u64) {
        if inner.series.len() >= self.max_series && !inner.series.contains_key(name) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let cap = self.series_capacity;
        let s = inner
            .series
            .entry(name.to_string())
            .or_insert_with(|| Series::new(cap));
        let before = s.downsamples();
        s.push(t_nanos, value);
        let merged = s.downsamples() - before;
        if merged > 0 {
            self.downsamples.fetch_add(merged, Ordering::Relaxed);
        }
    }

    /// One tick: snapshots every registered source at `t_nanos`, in
    /// sorted name order. Deterministic given deterministic sources and
    /// timestamps.
    pub fn sample_all(&self, t_nanos: u64) {
        let mut inner = self.inner.lock().expect("recorder lock");
        let reads: Vec<(String, u64)> = inner
            .sources
            .iter()
            .map(|(name, src)| (name.clone(), src.read()))
            .collect();
        for (name, v) in reads {
            self.record_locked(&mut inner, &name, t_nanos, v);
        }
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Points of series `name`, oldest first.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<Vec<Point>> {
        self.inner
            .lock()
            .expect("recorder lock")
            .series
            .get(name)
            .map(Series::points)
    }

    /// The most recent point of series `name`.
    #[must_use]
    pub fn last(&self, name: &str) -> Option<Point> {
        self.inner
            .lock()
            .expect("recorder lock")
            .series
            .get(name)
            .and_then(Series::last)
    }

    /// Names of all live series, sorted.
    #[must_use]
    pub fn series_names(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("recorder lock")
            .series
            .keys()
            .cloned()
            .collect()
    }

    /// Number of live series.
    #[must_use]
    pub fn series_count(&self) -> usize {
        self.inner.lock().expect("recorder lock").series.len()
    }

    /// Worst-case payload bytes across all live series.
    #[must_use]
    pub fn memory_ceiling_bytes(&self) -> usize {
        self.inner
            .lock()
            .expect("recorder lock")
            .series
            .values()
            .map(Series::memory_ceiling_bytes)
            .sum()
    }

    /// Total pair-merge passes across all series.
    #[must_use]
    pub fn downsamples(&self) -> u64 {
        self.downsamples.load(Ordering::Relaxed)
    }

    /// Points or sources dropped because the series budget was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// How many [`Recorder::sample_all`] ticks have run.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

/// One entry reported by [`ReadHeat::top`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatEntry {
    /// Object key (virtual path).
    pub key: String,
    /// Decayed heat in milli-units (1000 = one undecayed read).
    pub heat_milli: u64,
    /// Overestimate bound inherited from evicted entries, milli-units.
    pub err_milli: u64,
}

#[derive(Debug)]
struct HeatSlot {
    key: String,
    heat: f64,
    err: f64,
    last_t: u64,
}

/// Per-object read popularity: EWMA with half-life decay per key, capped
/// by a space-saving sketch (on overflow the coldest entry is replaced
/// and its heat becomes the newcomer's overestimate bound).
#[derive(Debug)]
pub struct ReadHeat {
    half_life_nanos: u64,
    capacity: usize,
    slots: Mutex<Vec<HeatSlot>>,
    touches: AtomicU64,
    evictions: AtomicU64,
}

/// Default heat half-life: 5 virtual seconds.
pub const DEFAULT_HEAT_HALF_LIFE_NANOS: u64 = 5_000_000_000;

/// Default number of objects tracked per node.
pub const DEFAULT_HEAT_CAPACITY: usize = 64;

impl Default for ReadHeat {
    fn default() -> Self {
        ReadHeat::new(DEFAULT_HEAT_HALF_LIFE_NANOS, DEFAULT_HEAT_CAPACITY)
    }
}

impl ReadHeat {
    /// New tracker: heat halves every `half_life_nanos`, at most
    /// `capacity` objects tracked.
    #[must_use]
    pub fn new(half_life_nanos: u64, capacity: usize) -> Self {
        ReadHeat {
            half_life_nanos: half_life_nanos.max(1),
            capacity: capacity.max(1),
            slots: Mutex::new(Vec::new()),
            touches: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn decayed(&self, heat: f64, from_t: u64, to_t: u64) -> f64 {
        if to_t <= from_t {
            return heat;
        }
        let dt = (to_t - from_t) as f64 / self.half_life_nanos as f64;
        heat * (-dt).exp2()
    }

    /// Records one read of `key` at time `t_nanos`.
    pub fn touch(&self, key: &str, t_nanos: u64) {
        self.touches.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.slots.lock().expect("heat lock");
        if let Some(s) = slots.iter_mut().find(|s| s.key == key) {
            s.heat = self.decayed(s.heat, s.last_t, t_nanos) + 1.0;
            s.err = self.decayed(s.err, s.last_t, t_nanos);
            s.last_t = t_nanos;
            return;
        }
        if slots.len() < self.capacity {
            slots.push(HeatSlot {
                key: key.to_string(),
                heat: 1.0,
                err: 0.0,
                last_t: t_nanos,
            });
            return;
        }
        // Space-saving: replace the coldest slot; its decayed heat
        // becomes the newcomer's overestimate bound.
        self.evictions.fetch_add(1, Ordering::Relaxed);
        let (idx, min_heat) = slots
            .iter()
            .enumerate()
            .map(|(i, s)| (i, self.decayed(s.heat, s.last_t, t_nanos)))
            // min by heat, ties broken by the later (greater) key so the
            // lexicographically-smallest survivor wins deterministically.
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| slots[b.0].key.cmp(&slots[a.0].key))
            })
            .expect("capacity >= 1");
        let s = &mut slots[idx];
        s.key = key.to_string();
        s.err = min_heat;
        s.heat = min_heat + 1.0;
        s.last_t = t_nanos;
    }

    /// The `n` hottest objects as of `now_nanos`, hottest first, ties
    /// broken by key. Heat is reported in milli-units.
    #[must_use]
    pub fn top(&self, n: usize, now_nanos: u64) -> Vec<HeatEntry> {
        let slots = self.slots.lock().expect("heat lock");
        let mut all: Vec<HeatEntry> = slots
            .iter()
            .map(|s| HeatEntry {
                key: s.key.clone(),
                heat_milli: (self.decayed(s.heat, s.last_t, now_nanos) * 1000.0).round() as u64,
                err_milli: (self.decayed(s.err, s.last_t, now_nanos) * 1000.0).round() as u64,
            })
            .collect();
        drop(slots);
        all.sort_by(|a, b| {
            b.heat_milli
                .cmp(&a.heat_milli)
                .then_with(|| a.key.cmp(&b.key))
        });
        all.truncate(n);
        all
    }

    /// Decayed heat of one key in milli-units as of `now_nanos`, or
    /// `None` if the sketch does not track it. Threshold checks (did
    /// this object cross the hot-spawn line? has it cooled past the shed
    /// line?) want a point query, not a full sorted `top` scan.
    #[must_use]
    pub fn heat_milli_of(&self, key: &str, now_nanos: u64) -> Option<u64> {
        let slots = self.slots.lock().expect("heat lock");
        slots
            .iter()
            .find(|s| s.key == key)
            .map(|s| (self.decayed(s.heat, s.last_t, now_nanos) * 1000.0).round() as u64)
    }

    /// Drops `key`'s slot, if tracked. Removal of the underlying object
    /// must not pin a space-saving slot (a deleted file would otherwise
    /// squat in the sketch until enough fresh heat evicts it), so
    /// unlink/rmdir paths call this alongside their cache invalidation.
    pub fn forget(&self, key: &str) {
        self.slots
            .lock()
            .expect("heat lock")
            .retain(|s| s.key != key);
    }

    /// Total reads observed.
    #[must_use]
    pub fn touches(&self) -> u64 {
        self.touches.load(Ordering::Relaxed)
    }

    /// Sketch evictions (non-zero means tail keys carry overestimates).
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// Load skew across nodes: `(max/mean × 1000, Gini × 1000)`.
///
/// A perfectly balanced cluster reports `(1000, 0)`; one node taking all
/// load in an `n`-node cluster reports `(n × 1000, (n-1)/n × 1000)`.
/// Pure integer math (`u128` intermediates), so deterministic.
#[must_use]
pub fn load_skew_x1000(loads: &[u64]) -> (u64, u64) {
    let n = loads.len() as u128;
    if n == 0 {
        return (1000, 0);
    }
    let sum: u128 = loads.iter().map(|&v| u128::from(v)).sum();
    if sum == 0 {
        return (1000, 0);
    }
    let max = u128::from(*loads.iter().max().expect("non-empty"));
    // max/mean = max * n / sum.
    let max_over_mean = (max * n * 1000 / sum) as u64;
    let mut diff: u128 = 0;
    for (i, &a) in loads.iter().enumerate() {
        for &b in &loads[i + 1..] {
            diff += u128::from(a.abs_diff(b));
        }
    }
    // Gini = Σij |xi−xj| / (2 n² mean) = 2·Σi<j |xi−xj| / (2 n sum).
    let gini = (diff * 1000 / (n * sum)) as u64;
    (max_over_mean, gini)
}

/// SLO burn over a latency series: the fraction (×1000) of points whose
/// value exceeds `slo_nanos`, plus the raw counts as `(burn_x1000,
/// over, total)`.
#[must_use]
pub fn slo_burn_x1000(points: &[Point], slo_nanos: u64) -> (u64, u64, u64) {
    let total = points.len() as u64;
    if total == 0 {
        return (0, 0, 0);
    }
    let over = points.iter().filter(|&&(_, v)| v > slo_nanos).count() as u64;
    (over * 1000 / total, over, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_downsamples_instead_of_dropping() {
        let mut s = Series::new(8);
        for i in 0..8u64 {
            s.push(i * 10, i);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.downsamples(), 0);
        s.push(80, 100);
        // 8 points merged to 4, then the new one appended.
        assert_eq!(s.len(), 5);
        assert_eq!(s.downsamples(), 1);
        let pts = s.points();
        // First merged pair keeps t=0 and max(0,1)=1.
        assert_eq!(pts[0], (0, 1));
        assert_eq!(pts[1], (20, 3));
        assert_eq!(*pts.last().unwrap(), (80, 100));
        // History still spans from the very first timestamp.
        assert_eq!(pts[0].0, 0);
    }

    #[test]
    fn series_memory_is_bounded_forever() {
        let mut s = Series::new(16);
        for i in 0..10_000u64 {
            s.push(i, i);
        }
        assert!(s.len() <= 16);
        assert!(s.downsamples() > 0);
        assert_eq!(s.memory_ceiling_bytes(), 16 * 16);
        // Oldest point survives all merges.
        assert_eq!(s.points()[0].0, 0);
    }

    #[test]
    fn recorder_samples_sources_deterministically() {
        let rec = Recorder::default();
        let c = Arc::new(Counter::default());
        let g = Arc::new(Gauge::default());
        let h = Arc::new(Histogram::new());
        rec.watch_counter("c_total", &c);
        rec.watch_gauge("g_now", &g);
        rec.watch_histogram_pct("lat:p99", &h, 99);
        c.add(3);
        g.set(7);
        h.record(1000);
        rec.sample_all(100);
        c.add(2);
        rec.sample_all(200);
        assert_eq!(rec.series("c_total").unwrap(), vec![(100, 3), (200, 5)]);
        assert_eq!(rec.series("g_now").unwrap()[1], (200, 7));
        assert!(rec.series("lat:p99").unwrap()[0].1 >= 1000);
        assert_eq!(rec.ticks(), 2);
        assert_eq!(rec.series_names(), vec!["c_total", "g_now", "lat:p99"]);
    }

    #[test]
    fn recorder_negative_gauge_clamps_to_zero() {
        let rec = Recorder::default();
        let g = Arc::new(Gauge::default());
        g.set(-5);
        rec.watch_gauge("g", &g);
        rec.sample_all(1);
        assert_eq!(rec.last("g"), Some((1, 0)));
    }

    #[test]
    fn recorder_enforces_series_budget() {
        let rec = Recorder::new(4, 2);
        rec.record("a", 1, 1);
        rec.record("b", 1, 1);
        rec.record("c", 1, 1); // over budget → dropped
        rec.record("a", 2, 2); // existing series still accepts
        assert_eq!(rec.series_count(), 2);
        assert_eq!(rec.dropped(), 1);
        assert!(rec.series("c").is_none());
        assert!(rec.memory_ceiling_bytes() <= 2 * 4 * 16);
    }

    #[test]
    fn recorder_at_default_ceiling_drops_new_series_loudly() {
        // Churn scenario: 512 per-peer series exist, then new peers keep
        // arriving. Every new series past the ceiling must be refused
        // with a `dropped` increment — never a panic, never a silent
        // eviction of an existing series.
        let rec = Recorder::default();
        for i in 0..DEFAULT_MAX_SERIES {
            rec.record(&format!("peer{i:04}"), 1, i as u64);
        }
        assert_eq!(rec.series_count(), DEFAULT_MAX_SERIES);
        assert_eq!(rec.dropped(), 0);
        for i in 0..32 {
            rec.record(&format!("late{i:04}"), 2, 9);
        }
        assert_eq!(rec.series_count(), DEFAULT_MAX_SERIES, "no eviction");
        assert_eq!(rec.dropped(), 32, "each refusal counted");
        assert!(rec.series("late0000").is_none());
        // Every pre-ceiling series survived untouched.
        assert_eq!(rec.series("peer0000").unwrap(), vec![(1, 0)]);
        assert_eq!(
            rec.series(&format!("peer{:04}", DEFAULT_MAX_SERIES - 1))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn recorder_at_ceiling_refuses_new_sources_on_watch_and_tick() {
        let rec = Recorder::new(4, DEFAULT_MAX_SERIES);
        let old = Arc::new(Gauge::default());
        old.set(5);
        rec.watch_gauge("keeper", &old);
        for i in 1..DEFAULT_MAX_SERIES {
            rec.watch_gauge(&format!("g{i:04}"), &Arc::new(Gauge::default()));
        }
        assert_eq!(rec.dropped(), 0);
        // The 513th watch is refused and counted; ticking afterwards
        // must not panic and must still sample every accepted source.
        rec.watch_gauge("overflow", &Arc::new(Gauge::default()));
        assert_eq!(rec.dropped(), 1);
        rec.sample_all(10);
        assert_eq!(rec.series_count(), DEFAULT_MAX_SERIES);
        assert!(rec.series("overflow").is_none());
        assert_eq!(rec.last("keeper"), Some((10, 5)));
    }

    #[test]
    fn heat_decays_with_half_life() {
        let hl = 1_000;
        let heat = ReadHeat::new(hl, 8);
        heat.touch("/a", 0);
        heat.touch("/a", 0);
        let top = heat.top(1, 0);
        assert_eq!(top[0].heat_milli, 2000);
        // One half-life later the heat halved.
        let top = heat.top(1, hl);
        assert_eq!(top[0].heat_milli, 1000);
        assert_eq!(heat.touches(), 2);
    }

    #[test]
    fn heat_space_saving_evicts_coldest() {
        let heat = ReadHeat::new(u64::MAX / 4, 2);
        heat.touch("/hot", 0);
        heat.touch("/hot", 1);
        heat.touch("/cold", 2);
        heat.touch("/new", 3); // evicts /cold (heat 1), inherits err
        assert_eq!(heat.evictions(), 1);
        let top = heat.top(2, 3);
        assert_eq!(top[0].key, "/hot");
        assert_eq!(top[1].key, "/new");
        // Newcomer carries the evicted heat as overestimate bound.
        assert!(top[1].err_milli >= 999);
        assert!(top[1].heat_milli >= top[1].err_milli + 999);
    }

    #[test]
    fn heat_top_order_is_deterministic_on_ties() {
        let heat = ReadHeat::new(u64::MAX / 4, 8);
        heat.touch("/b", 0);
        heat.touch("/a", 0);
        let top = heat.top(2, 0);
        assert_eq!(top[0].key, "/a");
        assert_eq!(top[1].key, "/b");
    }

    #[test]
    fn heat_top_ties_stable_across_insertion_orders() {
        // Any insertion order of equally-hot keys yields the same top-k:
        // the heat_milli tie breaks on the key, never on slot position.
        let keys = ["/m", "/z", "/a", "/q", "/c"];
        let mut orders: Vec<Vec<&str>> = vec![keys.to_vec()];
        orders.push(keys.iter().rev().copied().collect());
        orders.push(vec!["/q", "/a", "/z", "/c", "/m"]);
        let mut outputs = Vec::new();
        for order in orders {
            let heat = ReadHeat::new(u64::MAX / 4, 8);
            for k in order {
                heat.touch(k, 0);
            }
            outputs.push(heat.top(5, 0));
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        for out in &outputs {
            let got: Vec<&str> = out.iter().map(|e| e.key.as_str()).collect();
            assert_eq!(got, sorted, "tie order must be key order");
            assert_eq!(out, &outputs[0], "insertion order leaked into top-k");
        }
    }

    #[test]
    fn heat_top_ties_after_rounding_break_by_key() {
        // Distinct raw heats that round to the same milli value still
        // order by key: the comparison runs on the reported integers.
        let hl = 1_000_000;
        let heat = ReadHeat::new(hl, 8);
        heat.touch("/y", 0);
        heat.touch("/x", 0);
        // Tiny time skew: decayed heats differ in f64 but both round to
        // the same heat_milli at the query instant.
        let top = heat.top(2, 1);
        assert_eq!(top[0].heat_milli, top[1].heat_milli);
        assert_eq!(top[0].key, "/x");
        assert_eq!(top[1].key, "/y");
    }

    #[test]
    fn heat_forget_drops_slot_and_frees_capacity() {
        let heat = ReadHeat::new(u64::MAX / 4, 2);
        heat.touch("/dead", 0);
        heat.touch("/dead", 1);
        heat.touch("/live", 2);
        heat.forget("/dead");
        let top = heat.top(2, 2);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].key, "/live");
        // The freed slot is reusable without an eviction: a newcomer
        // enters cleanly (err = 0) instead of inheriting stale heat.
        heat.touch("/next", 3);
        assert_eq!(heat.evictions(), 0);
        let top = heat.top(2, 3);
        assert!(top.iter().any(|e| e.key == "/next" && e.err_milli == 0));
        // Forgetting an untracked key is a no-op.
        heat.forget("/ghost");
        assert_eq!(heat.top(8, 3).len(), 2);
    }

    #[test]
    fn load_skew_balanced_and_skewed() {
        assert_eq!(load_skew_x1000(&[]), (1000, 0));
        assert_eq!(load_skew_x1000(&[0, 0]), (1000, 0));
        assert_eq!(load_skew_x1000(&[5, 5, 5, 5]), (1000, 0));
        let (mom, gini) = load_skew_x1000(&[100, 0, 0, 0]);
        assert_eq!(mom, 4000);
        assert_eq!(gini, 750); // (n-1)/n = 3/4
        let (mom, gini) = load_skew_x1000(&[3, 1]);
        assert_eq!(mom, 1500);
        assert_eq!(gini, 250);
    }

    #[test]
    fn slo_burn_counts_violations() {
        assert_eq!(slo_burn_x1000(&[], 10), (0, 0, 0));
        let pts = vec![(0, 5), (1, 15), (2, 25), (3, 10)];
        let (burn, over, total) = slo_burn_x1000(&pts, 10);
        assert_eq!((over, total), (2, 4));
        assert_eq!(burn, 500);
    }
}
