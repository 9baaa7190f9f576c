//! The traced run: per-layer metrics, measured from outside by timing calls into each
//! layer's public functions.
//!
//! The pipeline is re-composed from `coarsen_with_scratch`,
//! `initial_partition_with_scratch`, `Partition::project` and `refine_with_scratch`
//! inside a rayon pool, once at one thread and once at two, on the same graph
//! representation the end-to-end call partitions (the compressed input in memory, a
//! store session on `web-disk`). End-to-end reference calls at the same settings give
//! the denominators: the coverage of the layer times, the threads=1 cut the
//! re-composition should reproduce, the recording overhead and the memory figures.

use std::hint::black_box;
use std::time::Instant;

use graph::builder::compress_csr_parallel;
use graph::store::write_tpg_from_graph;
use graph::traits::Graph;
use graph::{CompressionConfig, CsrGraph, NodeId, OnDiskBackend, StoreHandle};
use memtrack::PhaseTracker;
use terapart::coarsening::{
    cluster_with_scratch, coarsen_with_scratch, contract_with_scratch, max_cluster_weight,
    two_hop_clustering,
};
use terapart::refinement::refine_with_scratch;
use terapart::{
    initial_partition_with_scratch, EngineConfig, HierarchyScratch, PartitionEngine,
    PartitionResult, PartitionerConfig,
};

use crate::{call_seed, heap, median, paged_options, secs, Checks, Instance, Metric, WorkDir};

/// Repetitions of the cheap timings (compression, decoding, store open) and of the
/// end-to-end reference call with and without recording; each reports its median.
const REPS: usize = 3;

/// Thread counts the pipeline is re-composed at.
const THREADS: [usize; 2] = [1, 2];

/// Timings and shape of one re-composed pipeline run.
struct LayerRun {
    coarsen_s: f64,
    ip_s: f64,
    refine_s: f64,
    depth: usize,
    coarsest_n: usize,
    coarsest_isolated: usize,
    ip_cut: u64,
    ip_imbalance: f64,
    moves: usize,
    rebalance_moves: usize,
    cut: u64,
}

fn isolated(g: &impl Graph) -> usize {
    (0..g.n() as NodeId).filter(|&u| g.degree(u) == 0).count()
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("building a rayon pool of a fixed size cannot fail")
}

/// Coarsening, initial partitioning and uncoarsening (projection and refinement per
/// level) as the partitioner composes them, each timed from outside.
fn recompose(graph: &impl Graph, config: &PartitionerConfig) -> LayerRun {
    pool(config.num_threads).install(|| {
        let mut scratch = HierarchyScratch::new();
        let tracker = PhaseTracker::new();
        let start = Instant::now();
        let hierarchy = coarsen_with_scratch(graph, config, &tracker, &mut scratch);
        let coarsen_s = secs(start.elapsed());
        let depth = hierarchy.depth();
        let coarsest = hierarchy
            .coarsest()
            .expect("every workload graph is larger than the contraction limit");

        let start = Instant::now();
        let mut partition = initial_partition_with_scratch(
            coarsest,
            config.k,
            config.epsilon,
            &config.initial,
            config.seed,
            &mut scratch,
        );
        let ip_s = secs(start.elapsed());
        let ip_cut = partition.edge_cut_on(coarsest);
        let ip_imbalance = partition.imbalance();

        let start = Instant::now();
        let mut stats = vec![refine_with_scratch(
            coarsest,
            &mut partition,
            &config.refinement,
            config.seed ^ 0xC0A53,
            &mut scratch,
        )];
        for i in (0..depth).rev() {
            let mapping = &hierarchy.levels[i].mapping;
            let seed = config.seed ^ i as u64;
            stats.push(if i == 0 {
                partition = partition.project(graph, mapping);
                refine_with_scratch(
                    graph,
                    &mut partition,
                    &config.refinement,
                    seed,
                    &mut scratch,
                )
            } else {
                let finer = &hierarchy.levels[i - 1].coarse;
                partition = partition.project(finer, mapping);
                refine_with_scratch(
                    finer,
                    &mut partition,
                    &config.refinement,
                    seed,
                    &mut scratch,
                )
            });
        }
        let refine_s = secs(start.elapsed());

        LayerRun {
            coarsen_s,
            ip_s,
            refine_s,
            depth,
            coarsest_n: coarsest.n(),
            coarsest_isolated: isolated(coarsest),
            ip_cut,
            ip_imbalance,
            moves: stats.iter().map(|s| s.lp_moves + s.fm_moves).sum(),
            rebalance_moves: stats.iter().map(|s| s.rebalance_moves).sum(),
            cut: partition.edge_cut_on(graph),
        }
    })
}

/// Level-0 clustering and contraction on a fresh arena, as the first coarsening
/// level runs them. Returns `(cluster_s, contract_s)`.
fn level0(graph: &impl Graph, config: &PartitionerConfig) -> (f64, f64) {
    pool(config.num_threads).install(|| {
        let coarsening = &config.coarsening;
        let mut scratch = HierarchyScratch::new();
        let limit = max_cluster_weight(
            graph.total_node_weight(),
            config.k,
            coarsening.contraction_limit,
            coarsening.max_cluster_weight_fraction,
        );
        let start = Instant::now();
        let mut clustering = cluster_with_scratch(
            graph,
            coarsening,
            limit,
            config.seed ^ (1 << 32),
            &mut scratch,
        );
        let cluster_s = secs(start.elapsed());
        if coarsening.two_hop_clustering
            && clustering.num_clusters as f64 > coarsening.min_shrink_factor * graph.n() as f64
        {
            two_hop_clustering(graph, &mut clustering, limit);
        }
        let start = Instant::now();
        black_box(contract_with_scratch(
            graph,
            &clustering,
            coarsening.contraction,
            coarsening.bump_threshold,
            &mut scratch,
        ));
        (cluster_s, secs(start.elapsed()))
    })
}

/// Median wall time of `REPS` runs of `f`, and its last result.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..REPS {
        let start = Instant::now();
        last = Some(black_box(f()));
        times.push(secs(start.elapsed()));
    }
    (median(&times), last.expect("REPS is at least one"))
}

/// Decodes every neighbourhood of `g` once and returns the half-edges seen.
fn sweep(g: &impl Graph) -> u64 {
    let mut edges = 0u64;
    for u in 0..g.n() as NodeId {
        g.for_each_neighbor(u, &mut |v, w| {
            black_box((v, w));
            edges += 1;
        });
    }
    edges
}

/// One checked end-to-end call with its wall time, live-heap peak and `memtrack`
/// accounted peak (both above the pre-call baseline).
#[derive(Clone, Copy)]
struct Call {
    secs: f64,
    heap: f64,
    accounted: f64,
    cut: u64,
}

/// One single-threaded request through `engine`: the store request on `web-disk`,
/// `partition_csr` in memory.
fn engine_call(
    instance: &Instance,
    engine: &PartitionEngine,
    seed: u64,
) -> Result<PartitionResult, String> {
    let request = instance.request(seed, 1, false);
    match &instance.disk {
        Some(disk) => engine
            .partition_store(&disk.store, &request)
            .map_err(|e| e.to_string()),
        None => Ok(engine.partition_csr(&instance.csr, &request)),
    }
}

/// Runs `call` as one checked call, measuring its wall time and its live-heap and
/// `memtrack` peaks above the pre-call baselines.
fn e2e(
    instance: &Instance,
    checks: &mut Checks,
    call: impl FnOnce() -> Result<PartitionResult, String>,
) -> Result<Call, String> {
    let accounting = memtrack::global();
    accounting.reset_peak();
    let accounted_base = accounting.current();
    let heap_base = heap::reset_peak();
    let start = Instant::now();
    let result = black_box(call());
    let secs = secs(start.elapsed());
    let heap = heap::peak_above(heap_base) as f64;
    let accounted = accounting.peak().saturating_sub(accounted_base) as f64;
    checks.record(instance, &result);
    let result = result?;
    Ok(Call {
        secs,
        heap,
        accounted,
        cut: result.edge_cut,
    })
}

/// Wall time of two concurrent clients at one thread each; their results are
/// checked afterwards.
fn two_clients(
    instance: &Instance,
    engine: &PartitionEngine,
    checks: &mut Checks,
    seeds: [u64; 2],
) -> f64 {
    let start = Instant::now();
    let results: Vec<Result<PartitionResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| s.spawn(move || engine_call(instance, engine, seed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = secs(start.elapsed());
    for result in &results {
        checks.record(instance, result);
    }
    wall
}

/// Page-cache counters of one paged sweep or request, per call.
struct StoreStats {
    open_s: f64,
    hit_rate: f64,
    misses_per_call: f64,
    bytes_read_per_miss: f64,
    evictions_per_call: f64,
    paged_over_mmap: f64,
}

fn cache_delta(
    before: &graph::store::CacheStatsSnapshot,
    after: &graph::store::CacheStatsSnapshot,
    calls: f64,
) -> (f64, f64, f64, f64) {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    let bytes = (after.bytes_read - before.bytes_read) as f64;
    let evictions = (after.evictions - before.evictions) as f64;
    (
        hits / (hits + misses),
        misses / calls,
        bytes / misses,
        evictions / calls,
    )
}

/// The store layer on an in-memory workload, whose calls read no store: the input is
/// written to a container and opened with the `web-disk` options, and one call is one
/// full neighbourhood sweep.
fn store_probe(csr: &CsrGraph, work: &WorkDir) -> Result<StoreStats, String> {
    let path = work.file("probe.tpg");
    let summary = write_tpg_from_graph(csr, &path, &CompressionConfig::default())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let options = paged_options(summary.data_bytes);
    let open = |options| StoreHandle::open(&path, options).map_err(|e| e.to_string());
    let (open_s, paged) = timed(|| open(&options));
    let paged = paged?;
    let mmap = open(&graph::PagedGraphOptions {
        backend: OnDiskBackend::Mmap,
        ..options.clone()
    })?;
    let before = paged
        .cache_stats()
        .ok_or("a paged handle has cache stats")?;
    let start = Instant::now();
    black_box(sweep(&paged));
    let paged_s = secs(start.elapsed());
    let after = paged
        .cache_stats()
        .ok_or("a paged handle has cache stats")?;
    let (mmap_s, _) = timed(|| sweep(&mmap));
    let (hit_rate, misses_per_call, bytes_read_per_miss, evictions_per_call) =
        cache_delta(&before, &after, 1.0);
    Ok(StoreStats {
        open_s,
        hit_rate,
        misses_per_call,
        bytes_read_per_miss,
        evictions_per_call,
        paged_over_mmap: paged_s / mmap_s,
    })
}

/// Runs the traced legs of the set-up workload and returns every per-layer metric.
pub fn trace(
    instance: &Instance,
    work: &WorkDir,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let workload = instance.workload;
    let call_threads = workload.call_threads();
    let seed = call_seed(instance.seed, 0);
    let config = |threads: usize| workload.config().with_threads(threads).with_seed(seed);
    let csr = &instance.csr;
    let mut out = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        println!("{name:<42} {value:>16.6} {unit}");
        out.push(Metric { name, value, unit });
    };

    // graph.compressed
    let compress =
        |threads| timed(|| compress_csr_parallel(csr, &CompressionConfig::default(), threads));
    let (compress_1, _) = compress(1);
    let (compress_2, compressed) = compress(2);
    let compress_call = if call_threads == 1 {
        compress_1
    } else {
        compress_2
    };
    let (decode_s, half_edges) = timed(|| sweep(&compressed));
    put("graph.compressed.compress_s", compress_call, "s");
    put(
        "graph.compressed.compress_parallel_speedup",
        compress_1 / compress_2,
        "ratio",
    );
    put(
        "graph.compressed.bytes_per_edge",
        compressed.size_in_bytes() as f64 / csr.m() as f64,
        "B/edge",
    );
    put(
        "graph.compressed.decode_edges_per_s",
        half_edges as f64 / decode_s,
        "edges/s",
    );

    // The re-composed pipeline at one and two threads, on the representation the
    // end-to-end call partitions.
    let (runs, l0) = match &instance.disk {
        Some(disk) => {
            let session = disk.store.session();
            let runs: Vec<LayerRun> = THREADS
                .iter()
                .map(|&t| recompose(&session, &config(t)))
                .collect();
            (runs, level0(&session, &config(call_threads)))
        }
        None => {
            let runs: Vec<LayerRun> = THREADS
                .iter()
                .map(|&t| recompose(&compressed, &config(t)))
                .collect();
            (runs, level0(&compressed, &config(call_threads)))
        }
    };
    let (one, two) = (&runs[0], &runs[1]);
    let at_call = if call_threads == 1 { one } else { two };

    // The end-to-end call itself, alternately without and with recording.
    let mut plain_runs = Vec::new();
    let mut recorded_runs = Vec::new();
    for _ in 0..REPS {
        plain_runs.push(e2e(instance, checks, || instance.call(seed, false))?);
        recorded_runs.push(e2e(instance, checks, || instance.call(seed, true))?);
    }
    let med = |runs: &[Call], f: fn(&Call) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let plain_s = med(&plain_runs, |c| c.secs);
    let recorded_s = med(&recorded_runs, |c| c.secs);
    let heap_peak = med(&plain_runs, |c| c.heap);
    let accounted_peak = med(&plain_runs, |c| c.accounted);

    // The engine leg: one client alone, then two concurrent clients, at one thread
    // each. On `web-disk` this is the workload's own engine and the solo request is
    // the end-to-end call; in memory a fresh engine serves both.
    let own_engine;
    let engine = match &instance.disk {
        Some(disk) => &disk.engine,
        None => {
            own_engine =
                PartitionEngine::with_config(EngineConfig::from_partitioner(&workload.config()));
            &own_engine
        }
    };
    let solo_1 = if call_threads == 1 {
        Call {
            secs: plain_s,
            ..plain_runs[0]
        }
    } else {
        e2e(instance, checks, || engine_call(instance, engine, seed))?
    };
    let cache_before = instance.disk.as_ref().and_then(|d| d.store.cache_stats());
    let pair_s = two_clients(
        instance,
        engine,
        checks,
        [seed, call_seed(instance.seed, 1)],
    );
    let cache_after = instance.disk.as_ref().and_then(|d| d.store.cache_stats());
    let store_stats = match (&instance.disk, cache_before, cache_after) {
        (Some(disk), Some(before), Some(after)) => {
            let (open_s, _) = timed(|| StoreHandle::open(&disk.path, &disk.options));
            let mmap = StoreHandle::open(
                &disk.path,
                &graph::PagedGraphOptions {
                    backend: OnDiskBackend::Mmap,
                    ..disk.options.clone()
                },
            )
            .map_err(|e| e.to_string())?;
            let start = Instant::now();
            let result = engine
                .partition_store(&mmap, &instance.request(seed, 1, false))
                .map_err(|e| e.to_string());
            let mmap_s = secs(start.elapsed());
            checks.record(instance, &result);
            let (hit_rate, misses_per_call, bytes_read_per_miss, evictions_per_call) =
                cache_delta(&before, &after, 2.0);
            StoreStats {
                open_s,
                hit_rate,
                misses_per_call,
                bytes_read_per_miss,
                evictions_per_call,
                paged_over_mmap: solo_1.secs / mmap_s,
            }
        }
        (Some(_), _, _) => return Err("web-disk opens a paged store".into()),
        (None, _, _) => store_probe(csr, work)?,
    };

    // graph.store
    put("graph.store.open_s", store_stats.open_s, "s");
    put("graph.store.hit_rate", store_stats.hit_rate, "ratio");
    put(
        "graph.store.misses_per_call",
        store_stats.misses_per_call,
        "count",
    );
    put(
        "graph.store.bytes_read_per_miss",
        store_stats.bytes_read_per_miss,
        "B",
    );
    put(
        "graph.store.evictions_per_call",
        store_stats.evictions_per_call,
        "count",
    );
    put(
        "graph.store.paged_over_mmap",
        store_stats.paged_over_mmap,
        "ratio",
    );

    // terapart.coarsening
    let limit = (workload.config().coarsening.contraction_limit * workload.k()) as f64;
    put("terapart.coarsening.coarsen_s", at_call.coarsen_s, "s");
    put("terapart.coarsening.cluster_l0_s", l0.0, "s");
    put("terapart.coarsening.contract_l0_s", l0.1, "s");
    put(
        "terapart.coarsening.parallel_speedup",
        one.coarsen_s / two.coarsen_s,
        "ratio",
    );
    put("terapart.coarsening.depth", at_call.depth as f64, "count");
    put(
        "terapart.coarsening.coarsest_n",
        at_call.coarsest_n as f64,
        "count",
    );
    put(
        "terapart.coarsening.coarsest_over_limit",
        at_call.coarsest_n as f64 / limit,
        "ratio",
    );
    put(
        "terapart.coarsening.coarsest_isolated_frac",
        at_call.coarsest_isolated as f64 / at_call.coarsest_n as f64,
        "ratio",
    );
    put(
        "terapart.coarsening.input_isolated_frac",
        isolated(csr) as f64 / csr.n() as f64,
        "ratio",
    );

    // terapart.initial
    put("terapart.initial.ip_s", at_call.ip_s, "s");
    put(
        "terapart.initial.parallel_speedup",
        one.ip_s / two.ip_s,
        "ratio",
    );
    put(
        "terapart.initial.ip_imbalance",
        at_call.ip_imbalance,
        "ratio",
    );

    // terapart.refinement
    put("terapart.refinement.refine_s", at_call.refine_s, "s");
    put("terapart.refinement.moves", at_call.moves as f64, "count");
    put(
        "terapart.refinement.rebalance_moves",
        at_call.rebalance_moves as f64,
        "count",
    );
    put(
        "terapart.refinement.parallel_speedup",
        one.refine_s / two.refine_s,
        "ratio",
    );
    put(
        "terapart.refinement.cut_over_initial",
        at_call.cut as f64 / at_call.ip_cut as f64,
        "ratio",
    );

    // terapart.engine
    let compress_in_call = if instance.disk.is_some() {
        0.0
    } else {
        compress_call
    };
    let layer_s = compress_in_call + at_call.coarsen_s + at_call.ip_s + at_call.refine_s;
    println!(
        "threads=1 cut: re-composed {} end-to-end {} ({})",
        one.cut,
        solo_1.cut,
        if one.cut == solo_1.cut {
            "equal"
        } else {
            "DIVERGED"
        }
    );
    let pool = engine.scratch_pool();
    put("terapart.engine.coverage", layer_s / plain_s, "ratio");
    put(
        "terapart.engine.t1_cut_divergence",
        (one.cut as f64 - solo_1.cut as f64).abs() / solo_1.cut as f64,
        "ratio",
    );
    put(
        "terapart.engine.pool_high_water",
        pool.high_water() as f64,
        "count",
    );
    put(
        "terapart.engine.parked_bytes",
        pool.parked_bytes() as f64,
        "B",
    );
    put(
        "terapart.engine.two_client_speedup",
        2.0 * solo_1.secs / pair_s,
        "ratio",
    );

    // memtrack and obs
    put("memtrack.accounted_peak_bytes", accounted_peak, "B");
    put(
        "memtrack.accounted_over_heap",
        accounted_peak / heap_peak,
        "ratio",
    );
    put("obs.record_overhead", recorded_s / plain_s, "ratio");
    Ok(out)
}
