//! `andrew`: the Modified Andrew Benchmark's five phases (mkdir, copy,
//! stat, grep, compile) over `MabParams`'s tree, repeated in rounds that
//! each work under a fresh subtree, so every round resolves directories
//! no cache has seen. Write- and metadata-heavy; loads resolution, the
//! NFS stores, the VFS, overlay routing and write-behind replication.

use crate::bench::{Ctx, RepResult};
use crate::cputime::Stopwatch;
use kosha::{KoshaConfig, ReplicationMode};
use kosha_rpc::LatencyModel;
use kosha_sim::experiments::mab_lan;
use kosha_sim::{ClusterParams, MabParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const NODES: usize = 32;
/// Rounds per repetition.
const ROUNDS: usize = 1;
/// Virtual time the workload lets pass after each phase, so write-behind
/// flushes and samplers run between phases as they would on a live
/// cluster.
const PHASE_GAP: Duration = Duration::from_millis(10);
/// Extra one-way latency per unit of distance between seeded host
/// positions, so each seed models a slightly different LAN.
const HOST_SPREAD: Duration = Duration::from_micros(5);

fn tree(round: usize) -> MabParams {
    MabParams {
        top_dirs: 2,
        branch: 2,
        depth: 4,
        files: 60,
        total_bytes: 360 * 1024,
        // A fifteenth of MabParams' default: modeled compile CPU would
        // otherwise dominate virtual time, and with it the pump ticks
        // every node runs while the clock moves.
        compile_cpu_per_kib: Duration::from_micros(100),
        root: format!("/r{round}"),
    }
}

/// A booted 32-node cluster, ready for the timed rounds.
pub struct Setup {
    ctx: Ctx,
    rng: StdRng,
}

/// Boots the cluster on a LAN whose hosts sit at seeded positions.
pub fn setup(seed: u64, traced: bool) -> Setup {
    let started = Stopwatch::start();
    let kosha = KoshaConfig {
        distribution_level: 2,
        replicas: 2,
        replication_mode: ReplicationMode::WriteBehind {
            queue_ops: 64,
            flush_interval: Duration::from_millis(5),
        },
        ..KoshaConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA4D2_E3F1);
    let mut ctx = Ctx::new(
        &ClusterParams {
            nodes: NODES,
            kosha,
            latency: LatencyModel {
                per_distance_unit: HOST_SPREAD,
                ..mab_lan()
            },
            seed,
        },
        traced,
        started,
    );
    ctx.place_hosts(&mut rng);
    ctx.run_for(PHASE_GAP);
    Setup { ctx, rng }
}

impl Setup {
    /// The timed rounds, then the read-back.
    pub fn run(mut self) -> RepResult {
        let ctx = &mut self.ctx;
        ctx.begin_timed();
        for round in 0..ROUNDS {
            let span = ctx.tracer.enter("bench.round");
            mab_round(ctx, &tree(round), &mut self.rng);
            ctx.tracer.exit(span);
        }
        ctx.end_timed();
        self.ctx.verify(true)
    }
}

fn mab_round(ctx: &mut Ctx, p: &MabParams, rng: &mut StdRng) {
    let dirs = p.dirs();
    // The tree's shape is MabParams'; the seed varies each file's size
    // around MabParams' pattern so seeds differ in transfer costs too.
    let files: Vec<(String, usize)> = p
        .files()
        .into_iter()
        .map(|(path, size)| {
            (
                path,
                (size as f64 * rng.random_range(0.5..1.5)) as usize + 1,
            )
        })
        .collect();

    for d in &dirs {
        ctx.mkdir_p(d);
    }
    ctx.run_for(PHASE_GAP);

    for (path, size) in &files {
        let fill = rng.random::<u8>();
        ctx.write_file(path, &vec![fill; *size]);
    }
    ctx.run_for(PHASE_GAP);

    // stat: `ls -lR` from each top-level directory.
    let mut stack: Vec<String> = dirs
        .iter()
        .filter(|d| d.matches('/').count() == 2)
        .cloned()
        .collect();
    while let Some(dir) = stack.pop() {
        for (name, is_dir) in ctx.readdir(&dir) {
            let path = format!("{dir}/{name}");
            ctx.stat(&path);
            if is_dir {
                stack.push(path);
            }
        }
    }
    ctx.run_for(PHASE_GAP);

    for (path, _) in &files {
        ctx.read_file(path);
    }
    ctx.run_for(PHASE_GAP);

    // compile: read each source, burn modeled CPU, emit its object; then
    // link every object into one binary.
    let mut bin_size = 0usize;
    for (path, size) in &files {
        ctx.read_file(path);
        ctx.cpu(p.compile_cpu_per_kib * size.div_ceil(1024) as u32);
        ctx.write_file(&format!("{path}.o"), &vec![b'o'; object_len(*size)]);
    }
    for (path, size) in &files {
        ctx.read_file(&format!("{path}.o"));
        bin_size += object_len(*size) / 2;
    }
    ctx.cpu(p.compile_cpu_per_kib * bin_size.div_ceil(1024) as u32);
    ctx.write_file(&format!("{}/a.out", dirs[1]), &vec![b'b'; bin_size]);
    ctx.run_for(PHASE_GAP);
}

/// An object file is half its source, as in `run_mab` (never empty).
fn object_len(source_len: usize) -> usize {
    source_len / 2 + 1
}
