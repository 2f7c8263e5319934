//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer's public API, with the transport's own registry counters
//! read at the same boundaries so work can be attributed to the span
//! that caused it. Nothing inside the program is instrumented.

use kosha_obs::Counter;
use kosha_rpc::SimNetwork;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Service labels of the transport's `rpc_*_total{service=...}` counters.
pub const SERVICES: [&str; 5] = ["nfs", "kosha", "koshafs", "replica", "pastry"];

/// Transport counters at one instant.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct NetSnap {
    /// `rpc_calls_total` per service, in [`SERVICES`] order.
    pub calls: [u64; 5],
    /// `rpc_bytes_total` per service.
    pub bytes: [u64; 5],
    /// `rpc_failed_calls_total`, all services.
    pub failed: u64,
    /// `kosha_sched_events_total`.
    pub events: u64,
    /// Process-wide scheduler heap comparisons.
    pub cmps: u64,
}

impl NetSnap {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &NetSnap) -> NetSnap {
        NetSnap {
            calls: std::array::from_fn(|i| self.calls[i] - earlier.calls[i]),
            bytes: std::array::from_fn(|i| self.bytes[i] - earlier.bytes[i]),
            failed: self.failed - earlier.failed,
            events: self.events - earlier.events,
            cmps: self.cmps - earlier.cmps,
        }
    }

    fn add(&mut self, d: &NetSnap) {
        for i in 0..SERVICES.len() {
            self.calls[i] += d.calls[i];
            self.bytes[i] += d.bytes[i];
        }
        self.failed += d.failed;
        self.events += d.events;
        self.cmps += d.cmps;
    }

    /// Calls across all services.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Wire bytes across all services.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// Handles on the transport counters a [`NetSnap`] reads.
pub struct NetProbe {
    calls: Vec<Arc<Counter>>,
    bytes: Vec<Arc<Counter>>,
    failed: Vec<Arc<Counter>>,
    events: Arc<Counter>,
}

impl NetProbe {
    /// Resolves the handles once; every one exists from transport
    /// construction on.
    pub fn new(net: &SimNetwork) -> Self {
        let obs = net.obs();
        let per = |what: &str| -> Vec<Arc<Counter>> {
            SERVICES
                .iter()
                .map(|s| {
                    obs.registry
                        .counter(&format!("rpc_{what}_total{{service=\"{s}\"}}"))
                })
                .collect()
        };
        NetProbe {
            calls: per("calls"),
            bytes: per("bytes"),
            failed: per("failed_calls"),
            events: obs.registry.counter("kosha_sched_events_total"),
        }
    }

    /// Reads every counter.
    pub fn read(&self) -> NetSnap {
        NetSnap {
            calls: std::array::from_fn(|i| self.calls[i].get()),
            bytes: std::array::from_fn(|i| self.bytes[i].get()),
            failed: self.failed.iter().map(|c| c.get()).sum(),
            events: self.events.get(),
            cmps: kosha_rpc::sched::heap_comparisons(),
        }
    }
}

/// Totals for one span name.
#[derive(Clone, Copy, Default, Debug)]
pub struct SpanStat {
    /// Spans closed.
    pub count: u64,
    /// Wall time inside them.
    pub total_ns: u64,
    /// Wall time inside them not covered by child spans.
    pub self_ns: u64,
    /// Transport counter growth inside them.
    pub net: NetSnap,
}

struct Span {
    name: &'static str,
    trace: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    span: usize,
    at_entry: NetSnap,
    child_ns: u64,
}

/// Span recorder. Disabled, `enter`/`exit` do nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    probe: NetProbe,
    spans: Vec<Span>,
    open: Vec<Open>,
    stats: BTreeMap<&'static str, SpanStat>,
    traces: u32,
}

/// Handle returned by [`Tracer::enter`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A recorder over `net`'s counters, initially off.
    pub fn new(net: &SimNetwork) -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            probe: NetProbe::new(net),
            spans: Vec::new(),
            open: Vec::new(),
            stats: BTreeMap::new(),
            traces: 0,
        }
    }

    /// Starts or stops recording.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The counter probe, for phase-level deltas.
    pub fn probe(&self) -> &NetProbe {
        &self.probe
    }

    /// Opens a span; a span opened with none open starts a new trace.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let parent = self.open.last().map(|o| o.span);
        let trace = match parent {
            Some(p) => self.spans[p].trace,
            None => {
                self.traces += 1;
                self.traces
            }
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        let at_entry = self.probe.read();
        self.open.push(Open {
            span: idx,
            at_entry,
            child_ns: 0,
        });
        SpanId(Some(idx))
    }

    /// Closes the innermost span (which `id` must be).
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let open = self.open.pop().expect("exit matches an enter");
        assert_eq!(open.span, idx, "spans close innermost first");
        let delta = self.probe.read().since(&open.at_entry);
        let end = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[idx];
        span.end_ns = end;
        let dur = end - span.start_ns;
        let stat = self.stats.entry(span.name).or_default();
        stat.count += 1;
        stat.total_ns += dur;
        stat.self_ns += dur.saturating_sub(open.child_ns);
        stat.net.add(&delta);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Per-name totals of every closed span.
    pub fn stats(&self) -> &BTreeMap<&'static str, SpanStat> {
        &self.stats
    }

    /// Sum of the stats of every span name starting with `prefix`.
    pub fn layer(&self, prefix: &str) -> SpanStat {
        let mut out = SpanStat::default();
        for (_, s) in self.stats.iter().filter(|(n, _)| n.starts_with(prefix)) {
            out.count += s.count;
            out.total_ns += s.total_ns;
            out.self_ns += s.self_ns;
            out.net.add(&s.net);
        }
        out
    }

    /// Every recorded span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"trace\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
