//! `zipf`: a read-mostly Zipf(s=1) stream over a preloaded, fully
//! resolved file set spread across many directories, on a line of nodes
//! where latency grows with distance. The hot set moves every
//! `EPOCH_OPS` ops. Synchronous K=2 replication,
//! replica reads and heat-driven hot copies are on; about one op in 20
//! writes into the same set, so lease invalidation is exercised too.
//! Bypasses write-behind.

use crate::bench::{Ctx, RepResult};
use crate::cputime::Stopwatch;
use kosha::KoshaConfig;
use kosha_rpc::LatencyModel;
use kosha_sim::ClusterParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const NODES: usize = 16;
const DIRS: usize = 128;
const FILES_PER_DIR: usize = 2;
/// Client ops per repetition.
const OPS: usize = 5_000;
/// Virtual time allowed to pass every `TICK_EVERY` ops (pumps fire).
const TICK: Duration = Duration::from_millis(5);
const TICK_EVERY: usize = 50;
/// Maintenance cadence in ops (hot-copy leases renew and shed here).
const MAINTAIN_EVERY: usize = 2_000;
/// Ops between reshuffles of which files are popular: each epoch's hot
/// files sit at different distances from the client, so one repetition
/// averages over many placements instead of hinging on one.
const EPOCH_OPS: usize = 1_000;

/// Zipf(s=1) over ranks `0..n` by integer inverse CDF.
struct Zipf {
    cumulative: Vec<u64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut acc = 0u64;
        let cumulative = (1..=n as u64)
            .map(|rank| {
                acc += 1_000_000 / rank;
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.random_range(0..total);
        self.cumulative.partition_point(|&c| c <= x)
    }
}

/// A booted cluster with the file set written and resolved.
pub struct Setup {
    ctx: Ctx,
    rng: StdRng,
    paths: Vec<String>,
}

/// Boots the line of nodes and preloads the file set.
pub fn setup(seed: u64, traced: bool) -> Setup {
    let started = Stopwatch::start();
    let kosha = KoshaConfig {
        distribution_level: 2,
        replicas: 2,
        read_from_replicas: true,
        hot_replicas: 4,
        hot_threshold_milli: 6_000,
        hot_lease_nanos: 5_000_000_000,
        ..KoshaConfig::default()
    };
    let latency = LatencyModel {
        per_distance_unit: Duration::from_micros(10),
        ..LatencyModel::default()
    };
    let mut ctx = Ctx::new(
        &ClusterParams {
            nodes: NODES,
            kosha,
            latency,
            seed,
        },
        traced,
        started,
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x21BF_5EED);
    // Host i sits near position i on the line, jittered by the seed.
    for (i, node) in ctx.cluster.nodes.iter().enumerate() {
        let x = i as f64 + rng.random_range(-0.4..0.4);
        ctx.cluster.net.set_coord(node.addr(), x, 0.0);
    }

    let mut paths = Vec::with_capacity(DIRS * FILES_PER_DIR);
    for d in 0..DIRS {
        ctx.mkdir_p(&format!("/zipf/d{d}"));
        for f in 0..FILES_PER_DIR {
            paths.push(format!("/zipf/d{d}/f{f}"));
        }
    }
    for p in &paths {
        let size = rng.random_range(512..8192usize);
        ctx.write_file(p, &vec![rng.random::<u8>(); size]);
    }
    for p in &paths {
        ctx.stat(p);
    }
    ctx.run_for(TICK);
    Setup { ctx, rng, paths }
}

/// A seeded permutation: `by_rank[r]` is the file of popularity rank r.
fn shuffle(by_rank: &mut [usize], rng: &mut StdRng) {
    for i in (1..by_rank.len()).rev() {
        by_rank.swap(i, rng.random_range(0..=i));
    }
}

impl Setup {
    /// The timed op stream, then the read-back.
    pub fn run(self) -> RepResult {
        let Setup {
            mut ctx,
            mut rng,
            paths,
        } = self;
        let zipf = Zipf::new(paths.len());
        let mut by_rank: Vec<usize> = (0..paths.len()).collect();
        ctx.begin_timed();
        for i in 0..OPS {
            if i % EPOCH_OPS == 0 {
                shuffle(&mut by_rank, &mut rng);
            }
            let path = &paths[by_rank[zipf.sample(&mut rng)]];
            let len = ctx.shadow.len(path);
            match rng.random_range(0..100u32) {
                0..=2 => {
                    let size = rng.random_range(512..8192usize);
                    ctx.write_file(path, &vec![rng.random::<u8>(); size]);
                }
                3..=4 => {
                    let offset = rng.random_range(0..len);
                    ctx.write_at(path, offset, &[rng.random::<u8>(); 256]);
                }
                5..=8 => {
                    ctx.stat(path);
                }
                9 => {
                    let dir = &path[..path.rfind('/').expect("nested path")];
                    ctx.readdir(dir);
                }
                10..=19 => {
                    ctx.read_at(path, rng.random_range(0..len), 1024);
                }
                _ => {
                    ctx.read_file(path);
                }
            }
            if (i + 1) % TICK_EVERY == 0 {
                ctx.run_for(TICK);
            }
            if (i + 1) % MAINTAIN_EVERY == 0 {
                for n in 0..NODES {
                    ctx.maintain(n);
                }
            }
        }
        ctx.end_timed();
        ctx.verify(true)
    }
}
