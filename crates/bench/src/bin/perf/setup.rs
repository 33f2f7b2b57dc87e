//! Inputs made from the seed, and the system under test built from them.
//!
//! The program sees only the generated records and requests; the seed
//! never reaches a product code path.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use graphbi::disk::save_store;
use graphbi::{
    AggFn, GraphQuery, GraphStore, MvccStore, PathAggQuery, QueryExpr, QueryRequest, Session,
};
use graphbi_columnstore::{os_vfs, persist, Verify};
use graphbi_graph::GraphRecord;
use graphbi_serve::{Client, ServeConfig, ServeStore, Server};
use graphbi_workload::queries::{QueryDistribution, QueryShapeKind, QuerySpec};
use graphbi_workload::zipf::Zipf;
use graphbi_workload::{records, Dataset, DatasetSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{response_hash, Fnv};
use crate::Res;

/// Closed-loop client threads: analysts and dashboards wait for each
/// reply. Never more than the cores of the box (checked in `main`).
pub const CLIENTS: usize = 2;
/// Requests one `evaluate_many` call of `wide-batch` carries.
pub const BATCH: usize = 32;
/// Records one `ingest-mixed` commit inserts.
pub const COMMIT_RECORDS: usize = 16;
/// Pre-drawn pool indices per client; the loop wraps around them.
const DRAWS: usize = 1 << 14;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeCold,
    WideBatch,
    IngestMixed,
}

/// What distinguishes the four workloads; everything else is shared.
struct Shape {
    records: usize,
    edge_domain: usize,
    /// Distinct paths requests are drawn from.
    pool: usize,
    /// Zipf exponent of the draw; `None` draws uniformly.
    zipf: Option<f64>,
    /// Edges per request, inclusive.
    len: (usize, usize),
    shape: QueryShapeKind,
    /// Advise graph views at a budget of a quarter of the pool.
    views: bool,
    /// Column cache as a share of the on-disk bytes (≥ 1 holds it all).
    cache_share: f64,
    /// Records pre-generated for the insert stream.
    inserts: usize,
    /// Commits between two `compact()+gc()` cycles.
    compact_every: u64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::WideBatch,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
            Workload::WideBatch => "wide-batch",
            Workload::IngestMixed => "ingest-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self, smoke: bool) -> Shape {
        let path = Shape {
            records: 200_000,
            edge_domain: 1000,
            pool: 600,
            zipf: Some(1.0),
            len: (3, 6),
            shape: QueryShapeKind::SinglePath,
            views: true,
            cache_share: 4.0,
            inserts: 0,
            compact_every: 300,
        };
        let mut s = match self {
            Workload::ServeHot => path,
            Workload::ServeCold => Shape {
                pool: 2000,
                zipf: None,
                views: false,
                cache_share: 0.125,
                ..path
            },
            // Four vertical partitions (§4.1): long conjunctions that
            // cross them, tiny results.
            Workload::WideBatch => Shape {
                records: 300_000,
                edge_domain: 4000,
                pool: 1000,
                len: (8, 16),
                shape: QueryShapeKind::MultiPath,
                views: false,
                ..path
            },
            Workload::IngestMixed => Shape {
                records: 20_000,
                inserts: 4096 * COMMIT_RECORDS,
                ..path
            },
        };
        if smoke {
            s.records = 2_000;
            s.pool = s.pool.min(120);
            s.inserts = s.inserts.min(256 * COMMIT_RECORDS);
            s.compact_every = 60; // a one-second run still compacts
        }
        s
    }
}

/// SplitMix64 step: decorrelates the streams derived from one seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Wall-clock of each set-up phase, plus the sizes they produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub synth_s: f64,
    pub load_s: f64,
    pub advise_s: f64,
    pub save_s: f64,
    pub open_s: f64,
    /// `Server::start` up to the first answered request.
    pub start_s: f64,
    pub records: u64,
    pub total_measures: u64,
    pub bytes_on_disk: u64,
    pub views: usize,
}

impl SetupTimes {
    /// What a user waits for before the first answer. Computing the
    /// reference answers is the harness's own work and is left out.
    pub fn setup_s(&self) -> f64 {
        self.synth_s + self.load_s + self.advise_s + self.save_s + self.open_s + self.start_s
    }
}

/// The system under test.
pub enum System {
    /// v3 store on disk behind `MvccStore` and a TCP `Server`.
    Served {
        server: Server,
        store: Arc<MvccStore>,
        dir: PathBuf,
        cache_bytes: usize,
    },
    /// In-memory store driven in-process (`wide-batch`).
    Memory(GraphStore),
    /// Shut down: between the drop and the reopen of `ingest-mixed`.
    Stopped,
}

pub struct Stage {
    pub workload: Workload,
    /// The distinct requests; draws index into them.
    pub requests: Vec<QueryRequest>,
    /// `response_hash` of the reference answer per distinct request,
    /// from a plain in-memory store without views.
    pub expected: Vec<u64>,
    /// One pre-drawn index sequence per client.
    pub draws: Vec<Vec<u32>>,
    pub times: SetupTimes,
    pub system: System,
    /// `ingest-mixed`: the plain store the inserts are replayed into to
    /// check answers, and the insert stream itself.
    pub oracle: Option<GraphStore>,
    pub inserts: Vec<GraphRecord>,
    pub compact_every: u64,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot = t.elapsed().as_secs_f64();
    out
}

fn requests_from(pool: &[GraphQuery], workload: Workload) -> Vec<QueryRequest> {
    pool.iter()
        .enumerate()
        .map(|(j, q)| {
            if workload == Workload::WideBatch {
                return QueryRequest::new(q.clone()).shards(2);
            }
            // 2:1:1 graph / aggregate(SUM) / expression matches.
            match j % 4 {
                0 | 1 => QueryRequest::new(q.clone()),
                2 => QueryRequest::aggregate(PathAggQuery::new(q.clone(), AggFn::Sum)),
                _ => QueryRequest::expr(QueryExpr::and_not(
                    q.clone().into(),
                    pool[(j + 1) % pool.len()].clone().into(),
                )),
            }
        })
        .collect()
}

fn draw(shape: &Shape, seed: u64, client: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x100 + client as u64));
    let zipf = shape.zipf.map(|alpha| Zipf::new(shape.pool, alpha));
    (0..DRAWS)
        .map(|_| match &zipf {
            Some(z) => z.sample(&mut rng) as u32,
            None => rng.gen_range(0..shape.pool) as u32,
        })
        .collect()
}

pub fn open(dir: &Path, cache_bytes: usize) -> Res<MvccStore> {
    MvccStore::open_disk(dir, cache_bytes, os_vfs(), Verify::Checksums)
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// Builds the workload's inputs and system from `seed`. `with_expected`
/// is off for the repetitions that only time set-up.
pub fn build(
    workload: Workload,
    seed: u64,
    smoke: bool,
    dir: &Path,
    with_expected: bool,
) -> Res<Stage> {
    let shape = workload.shape(smoke);
    let mut times = SetupTimes::default();

    // The catalogue — base graph, path pool, Zipf ranks — is the same for
    // every seed: which paths land in the Zipf head moves latency by tens
    // of percent, far more than any bound. The seed varies what changes
    // from day to day: the records, the request order, the insert stream.
    let spec = DatasetSpec {
        edge_domain: shape.edge_domain,
        ..DatasetSpec::ny(0)
    };
    let started = Instant::now();
    let Dataset { universe, base, .. } = Dataset::synthesize(&spec);
    let starts = base.walkable();
    let walk = |count: usize, salt: u64| -> Vec<GraphRecord> {
        let mut rng = StdRng::seed_from_u64(mix(seed, salt));
        (0..count)
            .map(|_| {
                let target = rng.gen_range(spec.min_edges..=spec.max_edges);
                records::walk_record(&base, &starts, target, &mut rng)
            })
            .collect()
    };
    let records = walk(shape.records, 1);
    times.synth_s = started.elapsed().as_secs_f64();
    times.records = records.len() as u64;
    times.total_measures = records.iter().map(|r| r.edge_count() as u64).sum();
    let inserts = walk(shape.inserts, 2);

    let pool = graphbi_workload::queries::generate(
        &base,
        &QuerySpec {
            count: shape.pool,
            min_len: shape.len.0,
            max_len: shape.len.1,
            distribution: QueryDistribution::Uniform,
            shape: shape.shape,
            ..QuerySpec::uniform(shape.pool)
        },
    );
    let requests = requests_from(&pool, workload);
    let draws = (0..CLIENTS).map(|c| draw(&shape, seed, c)).collect();

    let mut store = timed(&mut times.load_s, || GraphStore::load(universe, &records));
    // The generator's vector is not part of the served system's footprint.
    drop(records);

    let expected = if with_expected {
        requests
            .iter()
            .map(|r| store.execute(r).map(|(resp, _)| response_hash(&resp)))
            .collect::<Result<Vec<u64>, _>>()
            .map_err(|e| format!("reference answer: {e}"))?
    } else {
        Vec::new()
    };

    let (system, oracle) = if workload == Workload::WideBatch {
        (System::Memory(store), None)
    } else {
        if shape.views {
            times.views = timed(&mut times.advise_s, || {
                store.advise_views(&pool, shape.pool / 4)
            });
        }
        timed(&mut times.save_s, || save_store(&store, dir)).map_err(|e| format!("save: {e}"))?;
        times.bytes_on_disk = persist::disk_size(dir).map_err(|e| format!("disk size: {e}"))?;
        let oracle = (workload == Workload::IngestMixed && with_expected).then(|| {
            store.clear_views();
            store
        });

        let cache_bytes = (times.bytes_on_disk as f64 * shape.cache_share) as usize;
        let mvcc = Arc::new(timed(&mut times.open_s, || open(dir, cache_bytes))?);
        let t = Instant::now();
        let server = Server::start(
            ServeStore::Mvcc(mvcc.clone()),
            "127.0.0.1:0",
            ServeConfig::default(),
        )
        .map_err(|e| format!("server start: {e}"))?;
        let mut first = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        first
            .query(&requests[0])
            .map_err(|e| format!("first request: {e}"))?;
        first.quit().map_err(|e| format!("quit: {e}"))?;
        times.start_s = t.elapsed().as_secs_f64();
        let system = System::Served {
            server,
            store: mvcc,
            dir: dir.to_path_buf(),
            cache_bytes,
        };
        (system, oracle)
    };

    Ok(Stage {
        workload,
        requests,
        expected,
        draws,
        times,
        system,
        oracle,
        inserts,
        compact_every: shape.compact_every,
    })
}

impl Stage {
    /// True when a column cache of `cache_bytes` never has to evict.
    pub fn cache_holds_store(&self, cache_bytes: usize) -> bool {
        cache_bytes as u64 >= self.times.bytes_on_disk
    }

    /// Fingerprint of everything the program will be asked: the distinct
    /// requests in wire text and every client's draw order.
    pub fn request_list_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for r in &self.requests {
            h.bytes(r.to_text().as_bytes());
        }
        for d in &self.draws {
            d.iter().for_each(|&i| h.u64(u64::from(i)));
        }
        for r in &self.inserts {
            for &(e, m) in r.edges() {
                h.u64(u64::from(e.0));
                h.u64(m.to_bits());
            }
        }
        h.finish()
    }

    /// Stops the server and removes the database directory.
    pub fn teardown(self) {
        if let System::Served {
            server, store, dir, ..
        } = self.system
        {
            drop(server);
            drop(store);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
