//! `churn`: an availability-trace replay around the hour-600 failure
//! spike on a live cluster, with seeded write-behind mutations. Each hour
//! applies the trace's crashes, recoveries and disk purges, runs
//! maintenance, lets time pass, issues client ops, and audits on a fixed
//! cadence; a final repair brings every machine back before the
//! read-back. The loop is the same as `kosha_sim::run_churn`'s, driven
//! step by step here so each step can be timed and wrapped in a span;
//! [`cross_check`] keeps the two from drifting apart.

use crate::bench::{Ctx, RepResult};
use crate::cputime::Stopwatch;
use kosha::{KoshaConfig, ReplicationMode};
use kosha_rpc::{LatencyModel, NodeAddr};
use kosha_sim::experiments::mab_lan;
use kosha_sim::{run_churn, AvailabilityParams, AvailabilityTrace, ChurnParams, ClusterParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The replay the benchmark runs, beyond `ChurnParams`.
pub struct Spec {
    /// The library's own parameters (cluster, trace window, mutations).
    pub params: ChurnParams,
    /// Network cost model.
    pub latency: LatencyModel,
    /// Reads of already-written files per hour, checked against the
    /// last acked write.
    pub reads_per_hour: usize,
    /// `stat`/`readdir` ops per hour, checked against the tree.
    pub meta_per_hour: usize,
    /// Whether reads may be served by replicas (`run_churn` enables it).
    pub read_from_replicas: bool,
    /// Largest extra payload appended to a mutation's 64 fill bytes,
    /// drawn per write from the extra stream (0 keeps the library's
    /// fixed-size mutations).
    pub max_extra_payload: usize,
}

/// The benchmark's replay for `seed`.
pub fn spec(seed: u64) -> Spec {
    Spec {
        params: ChurnParams {
            nodes: 16,
            start_hour: 606,
            hours: 12,
            hour_virtual: Duration::from_millis(40),
            dirs: 32,
            files_per_dir: 2,
            writes_per_hour: 96,
            audit_every_hours: 4,
            purge_every_nth_recovery: 4,
            replicas: 2,
            seed,
        },
        // The LAN model, with hosts at seeded positions (5 us per unit
        // of distance) and a 10 ms call timeout: an 800 ms timeout
        // would let each call to a crashed node advance virtual time (and
        // with it every node's pump ticks) by more than an hour's worth.
        latency: LatencyModel {
            per_distance_unit: Duration::from_micros(5),
            timeout: Duration::from_millis(1),
            ..mab_lan()
        },
        reads_per_hour: 192,
        meta_per_hour: 96,
        // Replica reads would make read latency bimodal (primary or
        // replica path) with weights set by the placement, so the median
        // would swing between the modes from seed to seed; `zipf` covers
        // the replica-read path.
        read_from_replicas: false,
        max_extra_payload: 4096,
    }
}

/// A booted cluster with the workload's directories made.
pub struct Setup {
    ctx: Ctx,
    spec: Spec,
    trace: AvailabilityTrace,
    dirs: Vec<String>,
    paths: Vec<String>,
}

/// Boots the cluster on a LAN whose hosts sit at seeded positions and
/// makes the workload's directories.
pub fn setup(spec: Spec, traced: bool) -> Setup {
    let started = Stopwatch::start();
    let p = &spec.params;
    let mut kosha = KoshaConfig::for_tests();
    kosha.distribution_level = 1;
    kosha.replicas = p.replicas;
    kosha.read_from_replicas = spec.read_from_replicas;
    kosha.replication_mode = ReplicationMode::WriteBehind {
        queue_ops: 64,
        flush_interval: Duration::from_millis(5),
    };
    let mut ctx = Ctx::new(
        &ClusterParams {
            nodes: p.nodes,
            kosha,
            latency: spec.latency.clone(),
            seed: p.seed,
        },
        traced,
        started,
    );
    let trace = AvailabilityTrace::generate(&AvailabilityParams {
        machines: p.nodes,
        hours: p.start_hour + p.hours,
        seed: p.seed,
        ..AvailabilityParams::default()
    });
    let mut dirs = Vec::new();
    let mut paths = Vec::new();
    for d in 0..p.dirs {
        let dir = format!("/churn{d}");
        ctx.mkdir_p(&dir);
        for f in 0..p.files_per_dir {
            paths.push(format!("{dir}/f{f}"));
        }
        dirs.push(dir);
    }
    ctx.place_hosts(&mut StdRng::seed_from_u64(p.seed ^ 0x9057_5EED));
    ctx.expect_faults();
    ctx.run_for(p.hour_virtual);
    Setup {
        ctx,
        spec,
        trace,
        dirs,
        paths,
    }
}

impl Setup {
    /// The replay and final repair, then the read-back.
    pub fn run(self) -> RepResult {
        let Setup {
            mut ctx,
            spec,
            trace,
            dirs,
            paths,
        } = self;
        replay(&mut ctx, &spec, &trace, &dirs, &paths);
        ctx.end_timed();
        ctx.verify(false)
    }
}

fn replay(
    ctx: &mut Ctx,
    spec: &Spec,
    trace: &AvailabilityTrace,
    dirs: &[String],
    paths: &[String],
) {
    let p = &spec.params;
    // The mutation stream draws from the library's RNG stream; the extra
    // reads and metadata ops draw from their own so they never shift it.
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0xC0FF_EE00);
    let mut extra = StdRng::seed_from_u64(p.seed ^ 0x0BAD_CAFE);
    let mut written: Vec<&String> = Vec::new();
    let mut up = vec![true; p.nodes];
    let mut recoveries = 0u64;

    ctx.begin_timed();
    for h in 0..p.hours {
        let span = ctx.tracer.enter("bench.hour");
        let target = &trace.up[p.start_hour + h];
        let mut recovered = Vec::new();
        // Node 0 stays up: it bootstraps the overlay and fronts the mount.
        for i in 1..p.nodes {
            if up[i] && !target[i] {
                ctx.fail_node(i);
                up[i] = false;
            } else if !up[i] && target[i] {
                recoveries += 1;
                let purge = p.purge_every_nth_recovery != 0
                    && recoveries.is_multiple_of(p.purge_every_nth_recovery as u64);
                ctx.recover_node(i, purge);
                up[i] = true;
                recovered.push(i);
            }
        }
        for &i in &recovered {
            ctx.maintain(i);
        }
        for (i, &is_up) in up.iter().enumerate() {
            if is_up && !ctx.cluster.nodes[i].hosted_anchors().is_empty() {
                ctx.maintain(i);
            }
        }
        ctx.run_for(p.hour_virtual / 2);

        for _ in 0..p.writes_per_hour {
            let path = &paths[rng.random_range(0..paths.len())];
            let fill = rng.random::<u8>();
            let mut content = format!("h{h} {fill:03} ").into_bytes();
            content.extend(std::iter::repeat_n(fill, 64));
            if spec.max_extra_payload > 0 {
                let extra_len = extra.random_range(0..spec.max_extra_payload);
                content.extend(std::iter::repeat_n(fill, extra_len));
            }
            if ctx.write_file(path, &content) && !written.contains(&path) {
                written.push(path);
            }
        }
        if !written.is_empty() {
            for _ in 0..spec.reads_per_hour {
                ctx.read_file(written[extra.random_range(0..written.len())]);
            }
        }
        for _ in 0..spec.meta_per_hour {
            if written.is_empty() || extra.random_bool(0.5) {
                ctx.readdir(&dirs[extra.random_range(0..dirs.len())]);
            } else {
                ctx.stat(written[extra.random_range(0..written.len())]);
            }
        }
        ctx.run_for(p.hour_virtual / 2);

        if h % p.audit_every_hours == p.audit_every_hours - 1 || h == p.hours - 1 {
            audit(ctx, &up, p.replicas);
        }
        ctx.tracer.exit(span);
    }

    // Final repair: every machine back, maintenance to completion, flush
    // barriers, and time to settle.
    let span = ctx.tracer.enter("bench.repair");
    for (i, is_up) in up.iter_mut().enumerate() {
        if !*is_up {
            ctx.recover_node(i, false);
            *is_up = true;
        }
    }
    for _ in 0..2 {
        for i in 0..p.nodes {
            ctx.maintain(i);
        }
        for i in 0..p.nodes {
            ctx.flush(i);
        }
        ctx.run_for(p.hour_virtual);
    }
    audit(ctx, &up, p.replicas);
    ctx.tracer.exit(span);
}

fn audit(ctx: &mut Ctx, up: &[bool], replicas: usize) {
    let peers: Vec<NodeAddr> = ctx
        .cluster
        .nodes
        .iter()
        .zip(up)
        .filter(|(_, &u)| u)
        .map(|(n, _)| n.addr())
        .collect();
    ctx.audit(&peers, replicas);
}

/// Runs this driver and `kosha_sim::run_churn` at equal parameters (the
/// library's zero-cost network, no extra client ops) and returns
/// `(driver, library)` as `(acked, survived, lost)` mutation counts.
pub fn cross_check(seed: u64) -> ((u64, u64, u64), (u64, u64, u64)) {
    let params = ChurnParams {
        nodes: 16,
        start_hour: 610,
        hours: 8,
        hour_virtual: Duration::from_millis(30),
        dirs: 3,
        files_per_dir: 2,
        writes_per_hour: 6,
        audit_every_hours: 2,
        purge_every_nth_recovery: 2,
        replicas: 2,
        seed,
    };
    let lib = run_churn(&params);
    let ours = setup(
        Spec {
            params,
            latency: LatencyModel::zero(),
            reads_per_hour: 0,
            meta_per_hour: 0,
            read_from_replicas: true,
            max_extra_payload: 0,
        },
        false,
    )
    .run();
    (
        (ours.acked, ours.acked - ours.lost, ours.lost),
        (
            lib.mutations_acked,
            lib.mutations_survived,
            lib.mutations_lost,
        ),
    )
}
