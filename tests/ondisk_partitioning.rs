//! Integration tests of the external-memory graph store: the acceptance criteria of the
//! on-disk subsystem exercised through the public APIs of graph, terapart and memtrack.

use graph::store::{
    read_tpg_compressed, read_tpg_meta, stream_rgg2d_to_tpg, write_tpg_from_graph_plain,
    OnDiskBackend,
};
use graph::traits::Graph;
use graph::{MmapGraph, PagedGraph, PagedGraphOptions};
use terapart::{partition, partition_ondisk, PartitionerConfig};

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "terapart_ondisk_it_{}_{}",
        std::process::id(),
        name
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The tentpole acceptance test: a generated instance whose uncompressed CSR exceeds
/// the configured page budget partitions on disk with (a) peak accounted memory below
/// the CSR byte size and (b) a partition bit-identical (fixed seed, single thread) to
/// the in-memory `CompressedGraph` path.
#[test]
fn ondisk_run_is_bit_identical_and_stays_below_csr_memory() {
    let dir = scratch_dir("acceptance");
    let path = dir.join("instance.tpg");
    // Streamed geometric instance: never materialised during generation either.
    stream_rgg2d_to_tpg(30_000, 18, 77, &path, &dir, 8, &Default::default()).unwrap();
    let meta = read_tpg_meta(&path).unwrap();
    let csr_bytes = meta.csr_size_in_bytes();

    let page_budget = 128 * 1024;
    assert!(
        csr_bytes > 8 * page_budget,
        "instance CSR ({} B) must far exceed the page budget ({} B)",
        csr_bytes,
        page_budget
    );

    let config = PartitionerConfig::terapart(8)
        .with_threads(1)
        .with_seed(5)
        .with_page_budget(page_budget);

    // In-memory reference: the compressed graph loaded from the very same container.
    let reference = partition(&read_tpg_compressed(&path).unwrap(), &config);

    memtrack::global().reset_peak();
    let ondisk = partition_ondisk(&path, &config).unwrap();

    assert_eq!(ondisk.edge_cut, reference.edge_cut);
    assert_eq!(
        ondisk.partition.assignment(),
        reference.partition.assignment(),
        "on-disk partition must be bit-identical to the in-memory compressed path"
    );
    assert!(ondisk.partition.is_balanced());
    assert!(
        ondisk.peak_memory_bytes < csr_bytes,
        "peak accounted memory {} B not below the uncompressed CSR size {} B",
        ondisk.peak_memory_bytes,
        csr_bytes
    );
    std::fs::remove_dir_all(dir).ok();
}

/// Tiny-page-budget stress: a budget far below the container size forces continuous
/// eviction, yet the fixed-seed result stays bit-identical to the in-memory path.
#[test]
fn starved_page_cache_still_partitions_identically() {
    let dir = scratch_dir("starved");
    let path = dir.join("instance.tpg");
    stream_rgg2d_to_tpg(12_000, 16, 13, &path, &dir, 4, &Default::default()).unwrap();
    let meta = read_tpg_meta(&path).unwrap();

    // A cache of a few 4 KiB pages against a data section dozens of times larger.
    let budget = 16 * 1024;
    assert!(meta.data_len as usize > 8 * budget);
    let mut config = PartitionerConfig::terapart(4).with_threads(1).with_seed(9);
    config.ondisk.page_size = 4 * 1024;
    config.ondisk.budget_bytes = budget;

    let reference = partition(&read_tpg_compressed(&path).unwrap(), &config);
    let starved = partition_ondisk(&path, &config).unwrap();
    assert_eq!(starved.edge_cut, reference.edge_cut);
    assert_eq!(
        starved.partition.assignment(),
        reference.partition.assignment()
    );

    // Confirm the budget actually starved the cache (evictions happened) by replaying
    // the access pattern's first sweep on a directly opened PagedGraph.
    let paged = PagedGraph::open_with_options(
        &path,
        &PagedGraphOptions {
            page_size: 4 * 1024,
            budget_bytes: budget,
            shards: 8,
            ..PagedGraphOptions::default()
        },
    )
    .unwrap();
    for u in 0..paged.n() as graph::NodeId {
        paged.for_each_neighbor(u, &mut |_, _| {});
    }
    let stats = paged.cache_stats();
    assert!(
        stats.evictions > 0,
        "budget {} did not force eviction: {:?}",
        budget,
        stats
    );
    std::fs::remove_dir_all(dir).ok();
}

/// The mmap fast path is a pure representation change: fixed-seed runs through the
/// `Mmap` backend produce partitions bit-identical to the paged backend and the
/// in-memory compressed path — on an Elias-Fano container (the writer default) and on
/// a plain-offset one (the `with_plain_offsets` opt-out).
#[test]
fn mmap_backend_runs_are_bit_identical_across_backends_and_encodings() {
    let dir = scratch_dir("mmap_identity");
    let path = dir.join("instance.tpg");
    // Streamed containers use the default writer path, i.e. Elias-Fano offsets.
    stream_rgg2d_to_tpg(15_000, 14, 51, &path, &dir, 4, &Default::default()).unwrap();

    let base = PartitionerConfig::terapart(8)
        .with_threads(1)
        .with_seed(11)
        .with_page_budget(96 * 1024);
    let reference = partition(&read_tpg_compressed(&path).unwrap(), &base);
    let paged = partition_ondisk(&path, &base).unwrap();
    let mmap =
        partition_ondisk(&path, &base.clone().with_store_backend(OnDiskBackend::Mmap)).unwrap();
    assert_eq!(mmap.edge_cut, reference.edge_cut);
    assert_eq!(paged.edge_cut, reference.edge_cut);
    assert_eq!(
        mmap.partition.assignment(),
        reference.partition.assignment(),
        "mmap-backend partition must be bit-identical to the in-memory compressed path"
    );
    assert_eq!(
        paged.partition.assignment(),
        reference.partition.assignment()
    );

    // Re-encode the same graph with plain u64 offsets: the data section is identical,
    // so every backend must still reach the identical partition — and the default
    // (Elias-Fano) container must carry the smaller offset index.
    let plain_path = dir.join("instance_plain.tpg");
    write_tpg_from_graph_plain(
        &read_tpg_compressed(&path).unwrap(),
        &plain_path,
        &Default::default(),
    )
    .unwrap();
    let ef_meta = read_tpg_meta(&path).unwrap();
    let plain_meta = read_tpg_meta(&plain_path).unwrap();
    assert!(
        ef_meta.offsets_len_bytes() < plain_meta.offsets_len_bytes(),
        "Elias-Fano offsets ({} B) not smaller than plain ({} B)",
        ef_meta.offsets_len_bytes(),
        plain_meta.offsets_len_bytes()
    );
    let paged_plain = partition_ondisk(&plain_path, &base).unwrap();
    let mmap_plain =
        partition_ondisk(&plain_path, &base.with_store_backend(OnDiskBackend::Mmap)).unwrap();
    assert_eq!(
        paged_plain.partition.assignment(),
        reference.partition.assignment()
    );
    assert_eq!(
        mmap_plain.partition.assignment(),
        reference.partition.assignment()
    );
    std::fs::remove_dir_all(dir).ok();
}

/// The mmap view charges its full mapping to the memory accounting and releases it
/// on drop; the zero-copy decode agrees with the materialised view.
#[test]
fn mmap_view_accounts_its_mapping_and_agrees_with_materialized() {
    let dir = scratch_dir("mmap_views");
    let path = dir.join("instance.tpg");
    let g = graph::gen::weblike(11, 10, 3);
    graph::store::write_tpg_from_graph(&g, &path, &Default::default()).unwrap();
    let materialized = graph::store::read_tpg(&path).unwrap();
    let before = memtrack::global().current();
    {
        let mmap = MmapGraph::open(&path).unwrap();
        assert!(
            memtrack::global().current() >= before + mmap.accounted_bytes(),
            "mapping not charged to the global memory accounting"
        );
        assert_eq!(mmap.n(), materialized.n());
        assert_eq!(mmap.m(), materialized.m());
        assert_eq!(mmap.total_edge_weight(), materialized.total_edge_weight());
        assert_eq!(mmap.max_degree(), materialized.max_degree());
        for u in (0..mmap.n() as graph::NodeId).step_by(37) {
            let mut a = mmap.neighbors_vec(u);
            a.sort_unstable();
            assert_eq!(a, materialized.neighbors_vec(u));
        }
    }
    assert!(
        memtrack::global().current() <= before,
        "mapping charge not released on drop"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// The paged view and the materialised view of the same container expose the same
/// graph to the partitioner-facing accessors.
#[test]
fn paged_and_materialized_views_agree() {
    let dir = scratch_dir("views");
    let path = dir.join("instance.tpg");
    let g = graph::gen::weblike(11, 10, 3);
    graph::store::write_tpg_from_graph(&g, &path, &Default::default()).unwrap();
    let paged =
        PagedGraph::open_with_options(&path, &PagedGraphOptions::with_budget(64 * 1024)).unwrap();
    let materialized = graph::store::read_tpg(&path).unwrap();
    assert_eq!(paged.n(), materialized.n());
    assert_eq!(paged.m(), materialized.m());
    assert_eq!(paged.total_edge_weight(), materialized.total_edge_weight());
    assert_eq!(paged.max_degree(), materialized.max_degree());
    assert_eq!(
        paged.total_capped_degree(8),
        materialized.total_capped_degree(8)
    );
    for u in (0..paged.n() as graph::NodeId).step_by(37) {
        let mut a = paged.neighbors_vec(u);
        a.sort_unstable();
        assert_eq!(a, materialized.neighbors_vec(u));
    }
    std::fs::remove_dir_all(dir).ok();
}
