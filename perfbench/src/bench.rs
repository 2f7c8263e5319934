//! One repetition of a workload: a freshly booted cluster, a single
//! closed-loop client on one `KoshaMount`, and everything the benchmark
//! measures around the calls it makes.

use crate::cputime::{cpu_ns, Stopwatch};
use crate::layers::{self, NodeSnap};
use crate::shadow::Shadow;
use crate::trace::{NetSnap, SpanId, SpanStat, Tracer};
use kosha::{audit_cluster, AuditOptions, KoshaMount};
use kosha_nfs::{NfsError, NfsResult, NfsStatus};
use kosha_rpc::{Clock, NodeAddr, VirtualClock};
use kosha_sim::{ClusterParams, SimCluster};
use kosha_vfs::FileType;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency class of a client op.
#[derive(Clone, Copy)]
pub enum Class {
    /// `read_file` / `read_at`.
    Read = 0,
    /// `write_file` / `write_at` / `create`.
    Write = 1,
    /// `mkdir_p` / `stat` / `readdir` and the other namespace ops.
    Meta = 2,
}

/// What one repetition measured.
pub struct RepResult {
    /// CPU seconds from the start of cluster boot to the end of preload.
    pub setup_cpu_s: f64,
    /// Wall seconds of the timed phase.
    pub timed_s: f64,
    /// CPU seconds of the timed phase.
    pub timed_cpu_s: f64,
    /// Wall nanoseconds of every timed client op.
    pub wall_ns: Vec<u64>,
    /// CPU nanoseconds of every timed client op.
    pub cpu_ns: Vec<u64>,
    /// CPU nanoseconds of every call into the system in the timed phase
    /// (client ops and the workload's steps), in call order. The calls
    /// repeat exactly per seed, so repetitions can be compared call by
    /// call.
    pub seg_ns: Vec<u64>,
    /// Virtual-clock nanoseconds of every timed client op, per [`Class`].
    pub vlat: [Vec<u64>; 3],
    /// Timed client ops attempted.
    pub attempted: u64,
    /// Timed client ops that failed or returned a wrong result.
    pub failed: u64,
    /// Timed client ops that, while faults were injected, answered with
    /// an older state of the tree than the last acked one.
    pub stale: u64,
    /// Failed client ops outside the timed phase (set-up and preload).
    pub other_failures: u64,
    /// The first failed check, for the report.
    pub first_failure: Option<String>,
    /// Acked mutations checked by the final read-back.
    pub acked: u64,
    /// Acked mutations that did not read back intact.
    pub lost: u64,
    /// Transport counter growth over the timed phase.
    pub net: NetSnap,
    /// Bytes held across all node stores after the timed phase.
    pub stored_bytes: u64,
    /// Live user bytes the shadow model expects after the timed phase.
    pub live_bytes: u64,
    /// Virtual nanoseconds the timed phase spanned.
    pub virt_ns: u64,
    /// Per-layer metrics (traced repetitions only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-span-name totals (traced repetitions only).
    pub spans: BTreeMap<&'static str, SpanStat>,
    /// Every span, one JSON object per line (traced repetitions only).
    pub spans_jsonl: String,
}

impl RepResult {
    /// Every value that must repeat exactly for a given seed: virtual
    /// latencies, counts, bytes and the durability outcome.
    pub fn deterministic_signature(&self) -> String {
        let mut s = String::new();
        for (name, v) in ["read", "write", "meta"].iter().zip(&self.vlat) {
            let mut v = v.clone();
            v.sort_unstable();
            let _ = write!(
                s,
                "{name}: n={} p50={} p99={}; ",
                v.len(),
                crate::stats::quantile(&v, 0.5),
                crate::stats::quantile(&v, 0.99)
            );
        }
        let _ = write!(
            s,
            "attempted={} failed={} stale={} acked={} lost={} calls={} bytes={} stored={} live={} virt_ns={}",
            self.attempted,
            self.failed,
            self.stale,
            self.acked,
            self.lost,
            self.net.total_calls(),
            self.net.total_bytes(),
            self.stored_bytes,
            self.live_bytes,
            self.virt_ns
        );
        s
    }
}

/// A booted cluster, the client's mount, the shadow model, and the
/// meters. Every call into the system goes through a method here so it
/// is timed and, in a traced repetition, wrapped in a span.
pub struct Ctx {
    /// The cluster under test.
    pub cluster: SimCluster,
    mount: KoshaMount,
    clock: Arc<VirtualClock>,
    /// Span recorder (on only during a traced timed phase).
    pub tracer: Tracer,
    traced: bool,
    /// Whether the workload injects faults (see [`Ctx::expect_faults`]).
    faults: bool,
    /// Expected tree and contents.
    pub shadow: Shadow,
    started: Stopwatch,
    timed: Option<Timed>,
    out: RepResult,
    audit_peak: u64,
    queue_hwm: i64,
}

struct Timed {
    start: Stopwatch,
    virt0: u64,
    net0: NetSnap,
    nodes0: NodeSnap,
    ticks0: u64,
}

impl Ctx {
    /// Boots the cluster (the start of set-up is `started`) and mounts
    /// `/kosha` through node 0.
    pub fn new(params: &ClusterParams, traced: bool, started: Stopwatch) -> Ctx {
        let cluster = SimCluster::build(params);
        let mount = cluster.mount(0);
        let clock = cluster.clock();
        let tracer = Tracer::new(&cluster.net);
        Ctx {
            cluster,
            mount,
            clock,
            tracer,
            traced,
            faults: false,
            shadow: Shadow::default(),
            started,
            timed: None,
            out: RepResult {
                setup_cpu_s: 0.0,
                timed_s: 0.0,
                timed_cpu_s: 0.0,
                wall_ns: Vec::new(),
                cpu_ns: Vec::new(),
                seg_ns: Vec::new(),
                vlat: [Vec::new(), Vec::new(), Vec::new()],
                attempted: 0,
                failed: 0,
                stale: 0,
                other_failures: 0,
                first_failure: None,
                acked: 0,
                lost: 0,
                net: NetSnap::default(),
                stored_bytes: 0,
                live_bytes: 0,
                virt_ns: 0,
                layers: BTreeMap::new(),
                spans: BTreeMap::new(),
                spans_jsonl: String::new(),
            },
            audit_peak: 0,
            queue_hwm: 0,
        }
    }

    /// Places every host at a seeded position in a 10×10 square, so link
    /// latencies (with a non-zero `per_distance_unit`) differ by seed.
    pub fn place_hosts(&mut self, rng: &mut impl rand::Rng) {
        for node in &self.cluster.nodes {
            let (x, y) = (rng.random_range(0.0..10.0), rng.random_range(0.0..10.0));
            self.cluster.net.set_coord(node.addr(), x, y);
        }
    }

    /// Declares that the workload crashes nodes and wipes disks.
    /// Write-behind replicas may then lag the last acked write (DESIGN.md
    /// §11's consistency window), and every holder of a directory can be
    /// down or purged at once. An op answered from such an older tree (a
    /// wrong result, or `NoEnt` for an acked path) then counts as stale,
    /// measured by `fresh_ratio`, rather than failed.
    pub fn expect_faults(&mut self) {
        self.faults = true;
    }

    /// Ends set-up and starts the timed phase.
    pub fn begin_timed(&mut self) {
        self.out.setup_cpu_s = self.started.cpu_s();
        let net = &self.cluster.net;
        self.timed = Some(Timed {
            start: Stopwatch::start(),
            virt0: self.clock.now().0,
            net0: self.tracer.probe().read(),
            nodes0: NodeSnap::read(&self.cluster),
            ticks0: net.obs().recorder.ticks(),
        });
        self.tracer.set_on(self.traced);
    }

    /// Ends the timed phase and takes its measurements.
    pub fn end_timed(&mut self) {
        let t = self.timed.take().expect("timed phase was started");
        self.out.timed_s = t.start.wall_s();
        self.out.timed_cpu_s = t.start.cpu_s();
        self.tracer.set_on(false);
        self.out.virt_ns = self.clock.now().0 - t.virt0;
        self.out.net = self.tracer.probe().read().since(&t.net0);
        self.out.stored_bytes = self
            .cluster
            .nodes
            .iter()
            .map(|n| n.with_store(|v| v.used_bytes()))
            .sum();
        self.out.live_bytes = self.shadow.live_bytes();
        if self.traced {
            let ticks = self.cluster.net.obs().recorder.ticks() - t.ticks0;
            let nodes = NodeSnap::read(&self.cluster).since(&t.nodes0);
            self.out.layers = layers::compute(&layers::Inputs {
                cluster: &self.cluster,
                tracer: &self.tracer,
                net: &self.out.net,
                nodes: &nodes,
                client_ops: self.out.attempted,
                timed_s: self.out.timed_s,
                recorder_ticks: ticks,
                audit_peak: self.audit_peak,
                queue_hwm: self.queue_hwm,
                stored_bytes: self.out.stored_bytes,
            });
            self.out.spans = self.tracer.stats().clone();
            self.out.spans_jsonl = self.tracer.to_jsonl();
        }
    }

    /// Final check: optionally drains write-behind queues first, then
    /// reads every file back through the mount (untimed, unsampled).
    pub fn verify(mut self, drain: bool) -> RepResult {
        if drain {
            for node in &self.cluster.nodes {
                node.flush_replication();
            }
            self.cluster.run_for(Duration::from_millis(100));
        }
        let mount = &self.mount;
        let (acked, lost) = self.shadow.readback(|p| mount.read_file(p).ok());
        self.out.acked = acked;
        self.out.lost = lost;
        self.out
    }

    /// Records a client op whose answer disagrees with the shadow, or
    /// that failed: stale when faults are expected and the system
    /// answered from an older tree (a wrong result, or `NoEnt` for a path
    /// it had acked), failed otherwise. Outside the timed phase only
    /// failures count, and those make the run incorrect on their own.
    fn mismatch<T>(&mut self, r: &NfsResult<T>, what: impl FnOnce() -> String) {
        let answered = matches!(r, Ok(_) | Err(NfsError::Status(NfsStatus::NoEnt)));
        let timed = self.timed.is_some();
        if self.faults && answered {
            if timed {
                self.out.stale += 1;
            }
            return;
        }
        if timed {
            self.out.failed += 1;
        } else {
            self.out.other_failures += 1;
        }
        if self.out.first_failure.is_none() {
            self.out.first_failure = Some(what());
        }
    }

    fn op<T>(
        &mut self,
        class: Class,
        span: &'static str,
        f: impl FnOnce(&KoshaMount) -> NfsResult<T>,
    ) -> NfsResult<T> {
        let id = self.tracer.enter(span);
        let v0 = self.clock.now().0;
        let c0 = cpu_ns();
        let t0 = Instant::now();
        let r = f(&self.mount);
        let wall = t0.elapsed().as_nanos() as u64;
        let cpu = cpu_ns() - c0;
        let vlat = self.clock.now().0 - v0;
        self.tracer.exit(id);
        if self.timed.is_some() {
            self.out.attempted += 1;
            self.out.wall_ns.push(wall);
            self.out.cpu_ns.push(cpu);
            self.out.seg_ns.push(cpu);
            self.out.vlat[class as usize].push(vlat);
            if self.tracer.is_on() {
                self.queue_hwm = self
                    .queue_hwm
                    .max(layers::writeback_depth_max(&self.cluster));
            }
        }
        r
    }

    /// `mkdir -p`, checked by the shadow on success.
    pub fn mkdir_p(&mut self, path: &str) -> bool {
        let r = self.op(Class::Meta, "core.mount:mkdir_p", |m| m.mkdir_p(path));
        if r.is_ok() {
            self.shadow.mkdir_p(path);
        } else {
            self.mismatch(&r, || format!("mkdir_p {path}: {r:?}"));
        }
        r.is_ok()
    }

    /// Whole-file write; the content becomes the file's last acked one.
    pub fn write_file(&mut self, path: &str, data: &[u8]) -> bool {
        let r = self.op(Class::Write, "core.mount:write_file", |m| {
            m.write_file(path, data)
        });
        if r.is_ok() {
            self.shadow.write(path, data);
        } else {
            self.mismatch(&r, || format!("write_file {path}: {r:?}"));
        }
        r.is_ok()
    }

    /// In-place write at `offset` of an existing file.
    pub fn write_at(&mut self, path: &str, offset: usize, data: &[u8]) -> bool {
        let r = self.op(Class::Write, "core.mount:write_at", |m| {
            m.write_at(path, offset as u64, data)
        });
        if r.is_ok() {
            self.shadow.write_at(path, offset, data);
        } else {
            self.mismatch(&r, || format!("write_at {path}+{offset}: {r:?}"));
        }
        r.is_ok()
    }

    /// Whole-file read, compared with the last acked write.
    pub fn read_file(&mut self, path: &str) -> bool {
        let r = self.op(Class::Read, "core.mount:read_file", |m| m.read_file(path));
        let ok = matches!(&r, Ok(d) if self.shadow.check_read(path, d));
        if !ok {
            self.mismatch(&r, || match &r {
                Ok(d) => format!("read_file {path}: wrong content ({} bytes)", d.len()),
                Err(e) => format!("read_file {path}: {e:?}"),
            });
        }
        ok
    }

    /// Ranged read, compared with the same range of the last acked write.
    pub fn read_at(&mut self, path: &str, offset: usize, count: usize) -> bool {
        let r = self.op(Class::Read, "core.mount:read_at", |m| {
            m.read_at(path, offset as u64, count as u32)
        });
        let ok = matches!(&r, Ok(d) if self.shadow.check_read_at(path, offset, count, d));
        if !ok {
            self.mismatch(&r, || {
                format!("read_at {path}+{offset}: {:?}", r.as_ref().err())
            });
        }
        ok
    }

    /// `stat`, compared with the shadow's type and size (a path the
    /// shadow lacks must not exist).
    pub fn stat(&mut self, path: &str) -> bool {
        let r = self.op(Class::Meta, "core.mount:stat", |m| m.stat(path));
        let ok = match &r {
            Ok((_, a)) => self.shadow.check_stat(path, a),
            Err(NfsError::Status(NfsStatus::NoEnt)) => !self.shadow.exists(path),
            Err(_) => false,
        };
        if !ok {
            self.mismatch(&r, || format!("stat {path}: {r:?}"));
        }
        ok
    }

    /// Directory listing, compared with the shadow's children. Returns
    /// the listed `(name, is_dir)` entries (none on failure).
    pub fn readdir(&mut self, path: &str) -> Vec<(String, bool)> {
        let r = self.op(Class::Meta, "core.mount:readdir", |m| m.readdir(path));
        match r {
            Ok(entries) if self.shadow.check_readdir(path, &entries) => entries
                .into_iter()
                .map(|e| (e.name, e.ftype == FileType::Directory))
                .collect(),
            r => {
                self.mismatch(&r, || {
                    format!("readdir {path}: {:?}", r.as_ref().map(Vec::len))
                });
                Vec::new()
            }
        }
    }

    /// Starts one of the workload's steps: a span, and its CPU clock.
    fn enter_step(&mut self, span: &'static str) -> (SpanId, u64) {
        (self.tracer.enter(span), cpu_ns())
    }

    /// Ends a step; in the timed phase its CPU time joins `seg_ns`.
    fn exit_step(&mut self, (id, c0): (SpanId, u64)) {
        let cpu = cpu_ns() - c0;
        self.tracer.exit(id);
        if self.timed.is_some() {
            self.out.seg_ns.push(cpu);
        }
    }

    /// Lets `d` of virtual time pass, dispatching every due event.
    pub fn run_for(&mut self, d: Duration) {
        let id = self.enter_step("rpc.sched:run_for");
        self.cluster.run_for(d);
        self.exit_step(id);
    }

    /// Charges `d` of client CPU to the virtual clock (no events run).
    pub fn cpu(&mut self, d: Duration) {
        self.clock.advance(d);
    }

    /// Runs node `i`'s periodic maintenance.
    pub fn maintain(&mut self, i: usize) {
        let id = self.enter_step("core.maintain");
        self.cluster.nodes[i].maintain();
        self.exit_step(id);
    }

    /// Forces node `i`'s write-behind flush barrier.
    pub fn flush(&mut self, i: usize) {
        let id = self.enter_step("core.writeback:flush");
        self.cluster.nodes[i].flush_replication();
        self.exit_step(id);
    }

    /// Crashes node `i` (its disk survives).
    pub fn fail_node(&mut self, i: usize) {
        let id = self.enter_step("rpc.net:fail_node");
        self.cluster.net.fail_node(self.cluster.nodes[i].addr());
        self.exit_step(id);
    }

    /// Revives node `i`, wiping its disk first when `purge` is set.
    pub fn recover_node(&mut self, i: usize, purge: bool) {
        if purge {
            let id = self.enter_step("core.node:purge");
            self.cluster.nodes[i].purge();
            self.exit_step(id);
        }
        let id = self.enter_step("rpc.net:recover_node");
        self.cluster.net.recover_node(self.cluster.nodes[i].addr());
        self.exit_step(id);
    }

    /// One anti-entropy audit pass from node 0 over `peers`.
    pub fn audit(&mut self, peers: &[NodeAddr], replicas: usize) -> kosha::AuditReport {
        let id = self.enter_step("core.audit");
        let report = audit_cluster(
            self.cluster.net.as_ref(),
            self.cluster.nodes[0].addr(),
            peers,
            self.clock.now().0,
            &AuditOptions {
                replicas,
                max_examples: 4,
            },
        );
        self.exit_step(id);
        self.audit_peak = self.audit_peak.max(report.objects_divergent);
        report
    }
}
