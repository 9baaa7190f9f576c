//! End-to-end and per-layer benchmark of the TeraPart reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <web-mem|mesh-mem|web-disk> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up several times, then calls the partitioner in a
//! closed loop for `--seconds` and prints the end-to-end metrics. `--trace 1` sets it
//! up once and re-composes the pipeline from the layers' public functions
//! ([`layers`]), printing the per-layer metrics. Every partition either run returns
//! is checked outside the timed region. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod heap;
mod layers;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graph::store::write_tpg_from_graph;
use graph::traits::Graph;
use graph::{CompressionConfig, CsrGraph, NodeId, PagedGraphOptions, StoreHandle};
use terapart::{
    EngineConfig, OnDiskConfig, Partition, PartitionEngine, PartitionRequest, PartitionResult,
    PartitionerConfig,
};

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// Set-up repetitions of a `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The benchmark's workloads (see `BENCHMARK.json` for why each was chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// R-MAT web-like graph, one-shot in-memory calls.
    WebMem,
    /// 2D random geometric graph, one-shot in-memory calls.
    MeshMem,
    /// Small web-like graph in a `.tpg` container behind a paged store, two clients.
    WebDisk,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::WebMem, Workload::MeshMem, Workload::WebDisk];

    fn name(self) -> &'static str {
        match self {
            Workload::WebMem => "web-mem",
            Workload::MeshMem => "mesh-mem",
            Workload::WebDisk => "web-disk",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of blocks.
    pub fn k(self) -> usize {
        match self {
            Workload::MeshMem => 64,
            Workload::WebMem | Workload::WebDisk => 16,
        }
    }

    /// Threads of one partition call.
    pub fn call_threads(self) -> usize {
        match self {
            Workload::WebDisk => 1,
            Workload::WebMem | Workload::MeshMem => 2,
        }
    }

    /// Concurrent closed-loop clients.
    fn clients(self) -> usize {
        match self {
            Workload::WebDisk => 2,
            Workload::WebMem | Workload::MeshMem => 1,
        }
    }

    /// The generated input graph.
    fn generate(self, seed: u64) -> CsrGraph {
        match self {
            Workload::WebMem => graph::gen::weblike(17, 12, seed),
            Workload::MeshMem => graph::gen::rgg2d(1 << 18, 8, seed),
            // Scale 14, not 15: a scale-15 session takes ~10 s here with two
            // clients, so a run would hold only two rounds.
            Workload::WebDisk => graph::gen::weblike(14, 12, seed),
        }
    }

    /// Configuration of one call, before its per-call seed.
    pub fn config(self) -> PartitionerConfig {
        PartitionerConfig::terapart(self.k()).with_threads(self.call_threads())
    }
}

/// Seed of the `stream`-th partition call of a run with workload seed `seed`.
pub fn call_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scratch directory for containers, inside the build directory of the benchmark
/// (so inside the checkout); removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("the binary is not inside a cargo target directory")?;
        let dir = target
            .join("perfbench-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The on-disk half of `web-disk`: one container, one engine, one open store.
pub struct Disk {
    pub path: PathBuf,
    pub options: OnDiskConfig,
    pub engine: PartitionEngine,
    pub store: Arc<StoreHandle>,
}

/// A set-up workload: the generated graph (kept for the output checks) and, for
/// `web-disk`, the store every request reads.
pub struct Instance {
    pub workload: Workload,
    pub seed: u64,
    pub csr: CsrGraph,
    pub disk: Option<Disk>,
}

/// Paged-store options of `web-disk`: 8 KiB pages and a budget of half the
/// container's data bytes; everything else at its default.
pub fn paged_options(data_bytes: u64) -> OnDiskConfig {
    PagedGraphOptions {
        page_size: 8 * 1024,
        budget_bytes: (data_bytes / 2) as usize,
        ..PagedGraphOptions::default()
    }
}

/// One set-up and what it cost.
struct Setup {
    instance: Instance,
    secs: f64,
    /// `VmHWM` of the warm-up round.
    rss: f64,
}

impl Instance {
    /// Generates the input, writes and opens the container (`web-disk`) and makes one
    /// untimed warm-up round: one call per client. The round starts from a trimmed
    /// heap, and its RSS peak is the set-up's `peak_rss_bytes` sample. Its calls are
    /// checked after the set-up time is taken.
    fn setup(
        workload: Workload,
        seed: u64,
        work: &WorkDir,
        checks: &mut Checks,
    ) -> Result<Setup, String> {
        let start = Instant::now();
        let csr = workload.generate(seed);
        let disk = match workload {
            Workload::WebDisk => {
                let path = work.file("web-disk.tpg");
                let summary = write_tpg_from_graph(&csr, &path, &CompressionConfig::default())
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                let options = paged_options(summary.data_bytes);
                let engine = PartitionEngine::with_config(EngineConfig {
                    ondisk: options.clone(),
                    num_threads: workload.call_threads(),
                    use_compression: true,
                });
                let store = engine
                    .open_store(&path)
                    .map_err(|e| format!("opening {}: {e}", path.display()))?;
                Some(Disk {
                    path,
                    options,
                    engine,
                    store,
                })
            }
            Workload::WebMem | Workload::MeshMem => None,
        };
        let instance = Self {
            workload,
            seed,
            csr,
            disk,
        };
        let seeds: Vec<u64> = (0..workload.clients() as u64)
            .map(|c| call_seed(seed, u64::MAX - c))
            .collect();
        rss::trim();
        let warm_up = run_round(&instance, &seeds)?;
        let secs = secs(start.elapsed());
        for call in &warm_up.calls {
            checks.record(&instance, &call.result);
        }
        Ok(Setup {
            instance,
            secs,
            rss: warm_up.rss,
        })
    }

    /// The request of one call with the given seed.
    pub fn request(&self, seed: u64, threads: usize, record: bool) -> PartitionRequest {
        PartitionRequest::from_config(
            &self
                .workload
                .config()
                .with_threads(threads)
                .with_seed(seed)
                .with_run_report(record),
        )
    }

    /// One end-to-end partition call at the workload's thread count: one-shot
    /// `partition_csr` in memory, one `partition_store` request on `web-disk`.
    pub fn call(&self, seed: u64, record: bool) -> Result<PartitionResult, String> {
        let threads = self.workload.call_threads();
        match &self.disk {
            Some(disk) => disk
                .engine
                .partition_store(&disk.store, &self.request(seed, threads, record))
                .map_err(|e| e.to_string()),
            None => Ok(terapart::partition_csr(
                &self.csr,
                &self
                    .workload
                    .config()
                    .with_seed(seed)
                    .with_run_report(record),
            )),
        }
    }
}

/// Output checks: every call's partition is checked outside the timed region against
/// the input CSR, and every violation counts as a failed call.
#[derive(Default)]
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
    notes: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, instance: &Instance, result: &Result<PartitionResult, String>) {
        self.attempted += 1;
        let verdict = match result {
            Ok(r) => check_partition(&instance.csr, &instance.workload.config(), r),
            Err(e) => Err(format!("call failed: {e}")),
        };
        if let Err(note) = verdict {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// The assignment covers the `n` vertices with block ids below `k`, every block
/// weight is within the balance bound, and the benchmark's own cut recount over
/// `csr` equals the reported cut.
fn check_partition(
    csr: &CsrGraph,
    config: &PartitionerConfig,
    result: &PartitionResult,
) -> Result<(), String> {
    let k = config.k;
    let assignment = result.partition.assignment();
    if assignment.len() != csr.n() {
        return Err(format!(
            "assignment has length {}, graph has {} vertices",
            assignment.len(),
            csr.n()
        ));
    }
    if let Some(&b) = assignment.iter().find(|&&b| b as usize >= k) {
        return Err(format!("block id {b} is not below k={k}"));
    }
    let mut weights = vec![0u64; k];
    for (u, &b) in assignment.iter().enumerate() {
        weights[b as usize] += csr.node_weight(u as NodeId);
    }
    let max = Partition::compute_max_block_weight(csr.total_node_weight(), k, config.epsilon);
    if let Some((b, w)) = weights.iter().enumerate().find(|(_, &w)| w > max) {
        return Err(format!("block {b} weighs {w} > max block weight {max}"));
    }
    let mut cut = 0u64;
    for u in 0..csr.n() as NodeId {
        let bu = assignment[u as usize];
        csr.for_each_neighbor(u, &mut |v, w| {
            if u < v && assignment[v as usize] != bu {
                cut += w;
            }
        });
    }
    if cut != result.edge_cut {
        return Err(format!(
            "recounted cut {cut} != reported cut {}",
            result.edge_cut
        ));
    }
    Ok(())
}

/// Peak resident set size of the process (`VmHWM`), reset by `clear_refs`.
pub mod rss {
    #[cfg(target_env = "gnu")]
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }

    /// Returns the allocator's free heap memory to the OS. Without it, the resident
    /// baseline of a call would carry whatever earlier calls left behind.
    pub fn trim() {
        // SAFETY: `malloc_trim` takes a plain integer, and glibc makes it safe to
        // call at any time from any thread.
        #[cfg(target_env = "gnu")]
        unsafe {
            malloc_trim(0);
        }
    }

    /// Resets `VmHWM` to the current resident set size.
    pub fn reset_peak() -> Result<(), String> {
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("resetting the RSS high-water mark: {e}"))
    }

    /// `VmHWM` in bytes.
    pub fn peak_bytes() -> Result<u64, String> {
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("reading /proc/self/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(|kib| kib * 1024)
            .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.is_empty() {
        f64::NAN
    } else if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of `samples`, printed with its sample count and range.
fn summarize(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    let value = median(samples);
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "{name:<18} median {value:>14.6} {unit:<6} n={:<4} min {min:.6} max {max:.6}",
        samples.len()
    );
    Metric { name, value, unit }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One call of a round: its result, wall time and the net heap growth of its
/// thread.
struct Call {
    result: Result<PartitionResult, String>,
    secs: f64,
    thread_heap: f64,
}

fn timed_call(instance: &Instance, seed: u64) -> Call {
    let baseline = heap::thread_reset_peak();
    let start = Instant::now();
    let result = black_box(instance.call(seed, false));
    Call {
        secs: secs(start.elapsed()),
        thread_heap: heap::thread_peak_above(baseline) as f64,
        result,
    }
}

/// One round of the closed loop: every client sends one call, and the round ends
/// when all have returned.
struct Round {
    calls: Vec<Call>,
    wall: f64,
    /// Process heap peak above the pre-round baseline.
    heap: f64,
    /// `VmHWM` reset before the round.
    rss: f64,
}

fn run_round(instance: &Instance, seeds: &[u64]) -> Result<Round, String> {
    let baseline = heap::reset_peak();
    rss::reset_peak()?;
    let start = Instant::now();
    let calls = match seeds {
        [seed] => vec![timed_call(instance, *seed)],
        _ => std::thread::scope(|s| {
            let handles: Vec<_> = seeds
                .iter()
                .map(|&seed| s.spawn(move || timed_call(instance, seed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        }),
    };
    Ok(Round {
        calls,
        wall: secs(start.elapsed()),
        heap: heap::peak_above(baseline) as f64,
        rss: rss::peak_bytes()? as f64,
    })
}

/// The timed phase of `--trace 0`: the workload's clients call the partitioner in a
/// closed loop of rounds, each client sending its next call when the round ends. A
/// new round starts while it is expected to end within `seconds`. Checks run between
/// rounds, outside the timed region. Returns the end-to-end metrics measured on the
/// timed calls.
fn end_to_end(
    instance: &Instance,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let clients = instance.workload.clients() as u64;
    let mut times = Vec::new();
    let mut cuts = Vec::new();
    let mut heaps = Vec::new();
    let mut throughputs = Vec::new();
    let attempted_before = checks.attempted;
    let failed_before = checks.failed;
    let start = Instant::now();
    for round_no in 0u64.. {
        let seeds: Vec<u64> = (0..clients)
            .map(|c| call_seed(instance.seed, round_no * clients + c))
            .collect();
        let round = run_round(instance, &seeds)?;
        throughputs.push(round.calls.len() as f64 / round.wall);
        for call in round.calls {
            // One client: the process counter holds the call's peak, whatever threads
            // it used. Several: each single-threaded call's own thread counter does.
            heaps.push(if clients == 1 {
                round.heap
            } else {
                call.thread_heap
            });
            checks.record(instance, &call.result);
            if let Ok(r) = &call.result {
                times.push(call.secs);
                cuts.push(r.edge_cut as f64);
            }
        }
        if secs(start.elapsed()) + round.wall > seconds {
            break;
        }
    }
    let attempted = (checks.attempted - attempted_before) as f64;
    let failed = (checks.failed - failed_before) as f64;
    println!(
        "failed_frac        {:.6} ({failed} of {attempted} calls)",
        failed / attempted
    );
    Ok(vec![
        summarize("partition_s", "s", &times),
        summarize("sessions_per_s", "1/s", &throughputs),
        summarize("edge_cut", "count", &cuts),
        Metric {
            name: "success_frac",
            value: 1.0 - failed / attempted,
            unit: "ratio",
        },
        summarize("peak_heap_bytes", "B", &heaps),
    ])
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or(format!("--seconds: {value} is not a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: {value} is not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The host the numbers come from, as one JSON object.
fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let threads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "\"{}\":{{\"clients\":{},\"threads_per_call\":{}}}",
                w.name(),
                w.clients(),
                w.call_threads()
            )
        })
        .collect();
    format!(
        "{{\"cores\":{cores},\"os\":\"{} {}\",\"id_bits\":{},\"threads\":{{{}}}}}",
        std::env::consts::OS,
        kernel.trim(),
        NodeId::BITS,
        threads.join(",")
    )
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`: on a virtual
/// machine, steal is time the hypervisor gave to other guests, which slows every
/// timed call without showing in the program.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("host {}", host_json());
    let work = WorkDir::create()?;
    let ticks_before = cpu_ticks();
    let mut checks = Checks::default();
    let metrics = if args.trace {
        let setup = Instance::setup(args.workload, args.seed, &work, &mut checks)?;
        layers::trace(&setup.instance, &work, &mut checks)?
    } else {
        let mut setup_times = Vec::new();
        let mut rss_peaks = Vec::new();
        let mut instance = None;
        for _ in 0..SETUP_REPS {
            // Drop the previous instance first, so two never coexist.
            drop(instance.take());
            let setup = Instance::setup(args.workload, args.seed, &work, &mut checks)?;
            setup_times.push(setup.secs);
            rss_peaks.push(setup.rss);
            instance = Some(setup.instance);
        }
        let instance = instance.expect("SETUP_REPS is at least one");
        let mut metrics = end_to_end(&instance, args.seconds, &mut checks)?;
        // The lowest of the set-ups' peaks, not their median: on mesh-mem about one
        // set-up in four of the same seed peaks ~16 MB higher, which comes and goes
        // between identical set-ups (likely the allocator arenas the short-lived
        // worker threads land in), so a median of three flips between two modes.
        let lowest = rss_peaks.iter().copied().fold(f64::INFINITY, f64::min);
        summarize("peak_rss_bytes", "B", &rss_peaks);
        metrics.push(Metric {
            name: "peak_rss_bytes",
            value: lowest,
            unit: "B",
        });
        metrics.push(summarize("setup_s", "s", &setup_times));
        metrics
    };
    if let (Some((steal_0, total_0)), Some((steal_1, total_1))) = (ticks_before, cpu_ticks()) {
        println!(
            "host steal {:.4} of CPU time during the run",
            steal_1.saturating_sub(steal_0) as f64 / total_1.saturating_sub(total_0).max(1) as f64
        );
    }
    for note in &checks.notes {
        println!("check failed: {note}");
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    println!("{}", result_json(&checks, &metrics));
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <web-mem|mesh-mem|web-disk> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
