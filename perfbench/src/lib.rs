//! The end-to-end characterization benchmark: four workloads driven
//! through the library's public API, each cell checked against an
//! expected output digest. See `README.md` for the workloads, metrics and
//! what each layer metric is expected to move.
//!
//! A *cell* acquires one application, characterizes it and renders its
//! report. A *pass* runs every cell of a workload once. Passes run with
//! an optional [`Tracer`]: without one nothing is timed below the pass;
//! with one, every call into a layer is a span and the *probes* re-drive
//! each layer's public functions on the cell's own data to count and time
//! what the pipeline call hides (network sends, gap extraction, fits).

pub mod spans;

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use commchar_apps::{AppClass, AppId, Scale};
use commchar_core::analyze::{try_analyze_blocks, try_analyze_trace};
use commchar_core::report::{analysis_report, signature_report};
use commchar_core::{run_workload, synthesize, try_characterize_jobs, Workload};
use commchar_des::SimTime;
use commchar_mesh::{
    EngineError, EngineKind, IncrementalFlit, MeshConfig, MsgRecord, NetEngine, NetLog, NetMessage,
    OnlineWormhole, Routing, Topology,
};
use commchar_serve::{ServeClient, ServeConfig, ServeError, Server, ServerHandle};
use commchar_stats::fit::FitContext;
use commchar_trace::profile::{SegmentExtract, StreamAccum, StreamExtract};
use commchar_trace::replay::CausalReplayer;
use commchar_trace::{CommEvent, CommTrace};
use commchar_tracestore::{
    fnv1a, BlockSource, FileReader, StreamBlockReader, TraceStoreError, TraceWriter,
};

use spans::{SpanId, Tracer};

/// Expected output digests, one line per `(size, workload, cell)`.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// Minimum per-source gap count before the pipeline fits a source; the
/// fit probe mirrors the library's own threshold.
const MIN_FIT_SAMPLES: u64 = 8;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Dynamic strategy, flit engine in the closed loop.
    SmFlit,
    /// Dynamic strategy, recurrence engine, spasm machine sharded.
    SmSharded,
    /// Static strategy: sp2 traces causally replayed through flit.
    MpFlit,
    /// No simulator: synthetic trace through tracestore, analysis, serve.
    TraceStream,
}

impl WorkloadKind {
    /// Every workload, in README order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::SmFlit,
        WorkloadKind::SmSharded,
        WorkloadKind::MpFlit,
        WorkloadKind::TraceStream,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::SmFlit => "sm_flit",
            WorkloadKind::SmSharded => "sm_sharded",
            WorkloadKind::MpFlit => "mp_flit",
            WorkloadKind::TraceStream => "trace_stream",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem size: `Full` is what the benchmark measures; `Tiny` runs the
/// same cells at `Scale::Tiny` (and a small synthetic trace) for warm-up
/// and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Warm-up and test sizes.
    Tiny,
}

impl Size {
    /// Lowercase label, as in `expected_digests.txt`.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// One characterization: acquire an application under a stated
/// configuration, characterize it and render its report.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Application.
    pub app: AppId,
    /// Processor count.
    pub procs: usize,
    /// Problem scale.
    pub scale: Scale,
    /// Closed-loop network engine (acquisition or replay).
    pub engine: EngineKind,
    /// Shards of the execution-driven machine.
    pub sim_jobs: usize,
    /// Network topology.
    pub topology: Topology,
    /// Routing policy.
    pub routing: Routing,
    /// Worker threads for the distribution fits.
    pub jobs: usize,
}

impl Cell {
    /// Digest key: everything that can change the output, and no thread
    /// count, since none may.
    pub fn key(&self) -> String {
        format!(
            "{}.p{}.{}.{}.{}.{}",
            self.app,
            self.procs,
            self.scale.name(),
            self.engine.name(),
            self.topology,
            self.routing
        )
    }

    /// The same cell with other thread counts: `jobs` fit workers and
    /// `sim_jobs` shards for both the machine and a flit engine.
    pub fn with_threads(self, jobs: usize, sim_jobs: usize) -> Cell {
        Cell { jobs, sim_jobs, engine: self.engine.with_sim_jobs(sim_jobs), ..self }
    }

    fn mesh(&self) -> MeshConfig {
        MeshConfig::for_nodes_net(self.procs, self.topology, self.routing)
    }

    fn is_mp(&self) -> bool {
        self.app.class() == AppClass::MessagePassing
    }
}

/// The cells of a simulator workload (none for `trace_stream`).
pub fn cells(w: WorkloadKind, size: Size) -> Vec<Cell> {
    let scale = |s: Scale| if size == Size::Tiny { Scale::Tiny } else { s };
    let (mesh, dim) = (Topology::Mesh, Routing::Dimension);
    let cell = |app, procs, s, engine, sim_jobs, topology, routing, jobs| Cell {
        app,
        procs,
        scale: scale(s),
        engine,
        sim_jobs,
        topology,
        routing,
        jobs,
    };
    let flit1 = EngineKind::FlitLevel { sim_jobs: 1 };
    let flit2 = EngineKind::FlitLevel { sim_jobs: 2 };
    let rec = EngineKind::Recurrence;
    // 3D-FFT needs the rank count to divide its z-planes (8 at tiny scale).
    let mp_procs = if size == Size::Tiny { 8 } else { 16 };
    match w {
        WorkloadKind::SmFlit => vec![
            cell(AppId::Is, 16, Scale::Small, flit1, 1, mesh, dim, 1),
            cell(AppId::Nbody, 16, Scale::Small, flit1, 1, mesh, dim, 1),
        ],
        WorkloadKind::SmSharded => vec![
            cell(AppId::Maxflow, 64, Scale::Small, rec, 2, mesh, dim, 2),
            cell(AppId::Fft1d, 64, Scale::Full, rec, 2, mesh, dim, 2),
        ],
        WorkloadKind::MpFlit => vec![
            cell(AppId::Mg, mp_procs, Scale::Full, flit2, 1, mesh, dim, 1),
            cell(AppId::Fft3d, mp_procs, Scale::Full, flit2, 1, mesh, dim, 1),
            cell(
                AppId::Allreduce,
                mp_procs,
                Scale::Full,
                flit2,
                1,
                Topology::Torus,
                Routing::Adaptive,
                1,
            ),
        ],
        WorkloadKind::TraceStream => Vec::new(),
    }
}

/// Expected digests keyed by `"<size> <workload> <cell>"`.
pub fn expected_digests() -> BTreeMap<String, u32> {
    EXPECTED_DIGESTS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 4, "malformed digest line: {l}");
            let d = u32::from_str_radix(f[3].trim_start_matches("0x"), 16)
                .unwrap_or_else(|_| panic!("malformed digest in line: {l}"));
            (format!("{} {} {}", f[0], f[1], f[2]), d)
        })
        .collect()
}

/// Checks `digest` against the expected entry for `key`.
///
/// # Errors
///
/// Names the key, the expected and the actual digest, so a deliberate
/// output change can be recorded by copying the actual value.
pub fn check_digest(
    expected: &BTreeMap<String, u32>,
    key: &str,
    digest: u32,
) -> Result<(), String> {
    match expected.get(key) {
        Some(&d) if d == digest => Ok(()),
        Some(&d) => {
            Err(format!("digest mismatch for {key}: expected {d:#010x}, got {digest:#010x}"))
        }
        None => Err(format!("no expected digest for {key} (got {digest:#010x})")),
    }
}

/// What one cell produced.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Digest key.
    pub key: String,
    /// Communication events carried through the whole pipeline.
    pub msgs: u64,
    /// FNV-1a over the rendered report and the simulated statistics.
    pub digest: u32,
}

/// Times `f` as a span when tracing; otherwise just calls it.
fn timed<R>(
    tr: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> R,
) -> (R, f64) {
    match tr {
        Some(t) => t.span(name, parent, |id| f(Some(id))),
        None => (f(None), 0.0),
    }
}

/// Digest of a cell's report and simulated statistics (message count,
/// simulated execution ticks, mean network latency bit pattern).
pub fn cell_digest(report: &str, msgs: u64, exec_ticks: u64, mean_latency: f64) -> u32 {
    let stats = format!("\n{msgs} {exec_ticks} {:016x}\n", mean_latency.to_bits());
    fnv1a(format!("{report}{stats}").as_bytes())
}

/// Runs one cell. With a tracer, each layer call is a span under
/// `parent` and the cell's probes run afterwards.
///
/// # Errors
///
/// Typed library errors (replay, characterization, engine) as text.
pub fn run_cell(
    cell: &Cell,
    tr: Option<&Tracer>,
    parent: Option<SpanId>,
) -> Result<CellOutcome, String> {
    let mesh = cell.mesh();
    let acquire_span = if cell.is_mp() { "sp2.acquire" } else { "apps.acquire" };
    let (out, acquire_s) = timed(tr, acquire_span, parent, |_| {
        cell.app.run_net(cell.procs, cell.scale, cell.engine, cell.sim_jobs, mesh)
    });
    let netlog = match out.netlog {
        Some(log) => log,
        None => timed(tr, "trace.replay", parent, |_| {
            CausalReplayer::new(mesh).try_replay(&out.trace, cell.engine)
        })
        .0
        .map_err(|e| format!("replay: {e}"))?,
    };
    let w = Workload {
        name: out.name.to_string(),
        class: out.class,
        nprocs: cell.procs,
        mesh,
        trace: out.trace,
        netlog,
        exec_ticks: out.exec_ticks,
    };
    let sig = timed(tr, "core.analyze", parent, |_| try_characterize_jobs(&w, cell.jobs))
        .0
        .map_err(|e| format!("characterize: {e}"))?;
    let report = timed(tr, "core.report", parent, |_| signature_report(&sig)).0;
    let outcome = CellOutcome {
        key: cell.key(),
        msgs: w.netlog.records().len() as u64,
        digest: cell_digest(
            &report,
            sig.network.messages,
            sig.exec_ticks,
            sig.network.mean_latency,
        ),
    };
    if let Some(tr) = tr {
        if cell.is_mp() {
            tr.add("apps.acquire_s", acquire_s);
        }
        tr.add("apps.acquire_msgs", outcome.msgs as f64);
        tr.span("probe", parent, |p| probe_cell(cell, &w, acquire_s, tr, p)).0?;
    }
    Ok(outcome)
}

/// The traced run's per-cell probes: re-drive the logged messages
/// through a fresh engine, re-extract the trace's gaps and re-fit them,
/// and for a sharded machine acquire once more serially.
fn probe_cell(
    cell: &Cell,
    w: &Workload,
    acquire_s: f64,
    tr: &Tracer,
    probe: SpanId,
) -> Result<(), String> {
    let records = w.netlog.records();
    let (redriven, busy_s) =
        tr.span("mesh.busy", Some(probe), |_| redrive(cell.engine, w.mesh, records));
    if redriven.map_err(|e| format!("mesh re-drive: {e}"))? != records {
        return Err(format!("{}: mesh re-drive disagrees with the logged deliveries", cell.key()));
    }
    tr.add("mesh.sends", records.len() as f64);
    if !cell.is_mp() {
        tr.add("spasm.self_s", acquire_s - busy_s);
    }
    let x = extract_probe(&w.trace, tr, probe)?;
    fit_probe(&x, tr, probe);
    if !cell.is_mp() && cell.sim_jobs > 1 {
        let (serial, _) = tr.span("spasm.serial_acquire", Some(probe), |_| {
            cell.app.run_net(cell.procs, cell.scale, cell.engine, 1, w.mesh)
        });
        if serial.exec_ticks != w.exec_ticks || serial.trace.len() != w.trace.len() {
            return Err(format!("{}: serial acquisition differs from sharded", cell.key()));
        }
        tr.add("spasm.sharded_acquire_s", acquire_s);
    }
    Ok(())
}

/// Sends `records` in logged order through a fresh engine of `kind` via
/// the public `NetEngine::send`, and returns the engine's final records.
fn redrive(
    kind: EngineKind,
    mesh: MeshConfig,
    records: &[MsgRecord],
) -> Result<Vec<MsgRecord>, EngineError> {
    fn drive<E: NetEngine<Sink = NetLog>>(
        mut engine: E,
        records: &[MsgRecord],
    ) -> Result<Vec<MsgRecord>, EngineError> {
        for r in records {
            engine.send(NetMessage {
                id: r.id,
                src: r.src,
                dst: r.dst,
                bytes: r.bytes,
                inject: SimTime::from_ticks(r.inject),
            })?;
        }
        Ok(engine.finish().into_records())
    }
    match kind {
        EngineKind::Recurrence => drive(OnlineWormhole::new(mesh), records),
        EngineKind::FlitLevel { sim_jobs } => {
            drive(IncrementalFlit::try_new(mesh)?.with_sim_jobs(sim_jobs), records)
        }
    }
}

/// Gap extraction as the pipeline calls it: one time-sorted segment
/// folded into a stream accumulator.
fn extract_probe(trace: &CommTrace, tr: &Tracer, probe: SpanId) -> Result<StreamExtract, String> {
    let mut events = trace.events().to_vec();
    events.sort_by_key(|e| e.t);
    tr.span("trace.extract", Some(probe), |_| {
        let seg = SegmentExtract::from_events(trace.nodes(), &events).map_err(|e| e.to_string())?;
        let mut accum = StreamAccum::new(trace.nodes());
        accum.absorb(&seg).map_err(|e| e.to_string())?;
        Ok(accum.finish())
    })
    .0
}

/// `FitContext::fit_best` for the aggregate and for every source with
/// enough gaps, one span per fit.
fn fit_probe(x: &StreamExtract, tr: &Tracer, probe: SpanId) {
    let fitted = x.per_source.iter().filter(|g| g.total() >= MIN_FIT_SAMPLES);
    for g in std::iter::once(&x.aggregate).chain(fitted) {
        tr.span("stats.fit", Some(probe), |_| {
            let ctx = FitContext::from_grouped(g);
            tr.add("stats.fit_unique_values", ctx.unique_len() as f64);
            std::hint::black_box(ctx.fit_best());
        });
        tr.add("stats.fits", 1.0);
    }
}

/// Messages re-driven per node count for the `mesh.send_us.n*` curve.
const CURVE_MSGS: usize = 1500;

/// Node counts of the closed-loop send-cost curve.
const CURVE_NODES: [usize; 3] = [16, 64, 256];

/// Application-shaped send schedules for the curve: the first
/// `CURVE_MSGS` messages 1-D FFT sends at each node count, in send
/// order, as the recurrence engine scheduled them.
pub fn curve_schedules(size: Size) -> Vec<(usize, Vec<MsgRecord>)> {
    let msgs = if size == Size::Tiny { 100 } else { CURVE_MSGS };
    CURVE_NODES
        .iter()
        .map(|&n| {
            let w = run_workload(AppId::Fft1d, n, Scale::Small);
            (n, w.netlog.records().iter().take(msgs).copied().collect())
        })
        .collect()
}

/// Re-drives each curve schedule through a fresh closed-loop flit engine
/// and records microseconds per send as `mesh.send_us.n<nodes>`.
///
/// # Errors
///
/// An engine error from any send.
pub fn curve_probe(schedules: &[(usize, Vec<MsgRecord>)], tr: &Tracer) -> Result<(), String> {
    tr.span("curve", None, |p| {
        for (n, records) in schedules {
            let flit = EngineKind::FlitLevel { sim_jobs: 1 };
            let (r, secs) = tr
                .span("mesh.curve", Some(p), |_| redrive(flit, MeshConfig::for_nodes(*n), records));
            r.map_err(|e| format!("curve at {n} nodes: {e}"))?;
            tr.add(&format!("mesh.send_us.n{n}"), secs * 1e6 / records.len() as f64);
        }
        Ok(())
    })
    .0
}

/// Synthetic events generated for `trace_stream`.
fn stream_events(size: Size) -> u64 {
    match size {
        Size::Full => 2_000_000,
        Size::Tiny => 20_000,
    }
}

/// Blocks fed per mid-stream poll of the served session.
const POLL_EVERY_BLOCKS: usize = 100;

/// Set-up state of `trace_stream`: the seeded synthetic trace, its
/// in-memory reference report, and a running loopback server.
#[derive(Debug)]
pub struct StreamInput {
    trace: CommTrace,
    mesh: MeshConfig,
    reference: String,
    path: PathBuf,
    server: Option<ServerHandle>,
}

impl StreamInput {
    /// Fits a signature to a small IS run, generates about
    /// `stream_events` events from it with `seed`, computes the
    /// in-memory reference report and starts a one-worker server.
    ///
    /// # Errors
    ///
    /// A fitted-signature digest mismatch, an analysis error or a bind
    /// failure.
    pub fn setup(
        size: Size,
        seed: u64,
        work_dir: &Path,
        expected: &BTreeMap<String, u32>,
    ) -> Result<StreamInput, String> {
        let source = run_workload(AppId::Is, 16, Scale::Tiny);
        let sig = try_characterize_jobs(&source, 1).map_err(|e| format!("fit source: {e}"))?;
        let report = signature_report(&sig);
        check_digest(
            expected,
            &format!("{} trace_stream signature", size.name()),
            cell_digest(&report, sig.network.messages, sig.exec_ticks, sig.network.mean_latency),
        )?;
        let model = synthesize(&sig, source.mesh);
        let span = source.netlog.summary().span as f64 * stream_events(size) as f64
            / source.trace.len() as f64;
        let trace = model.generate(span as u64, seed);
        let mesh = MeshConfig::for_nodes(trace.nodes());
        let a = try_analyze_trace(&trace, mesh.shape, 1).map_err(|e| format!("reference: {e}"))?;
        std::fs::create_dir_all(work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
        let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
        let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("serve bind: {e}"))?;
        Ok(StreamInput {
            trace,
            mesh,
            reference: analysis_report(&a, "trace"),
            path: work_dir.join(format!("trace_stream-{}.cctrace", std::process::id())),
            server: Some(server.spawn()),
        })
    }

    /// The synthetic trace.
    pub fn trace(&self) -> &CommTrace {
        &self.trace
    }

    /// Events in the synthetic trace.
    pub fn events(&self) -> u64 {
        self.trace.len() as u64
    }

    /// One pass: pack the trace to a CCTRACE1 file, characterize it block
    /// by block, and feed the same blocks through one served session.
    /// Both reports must equal the in-memory reference byte for byte.
    ///
    /// # Errors
    ///
    /// Any store, analysis or serve error, or a report mismatch.
    pub fn pass(&self, tr: Option<&Tracer>, parent: Option<SpanId>) -> Result<CellOutcome, String> {
        let nodes = self.trace.nodes();
        timed(tr, "tracestore.pack", parent, |_| pack(&self.trace, &self.path))
            .0
            .map_err(|e| format!("pack: {e}"))?;
        let reader = FileReader::open(&self.path).map_err(|e| format!("open: {e}"))?;
        let (analysis, _) = timed(tr, "core.analyze", parent, |id| match tr {
            Some(tr) => {
                let timed_reader = TimedSource { inner: &reader, tr, parent: id };
                try_analyze_blocks(&timed_reader, self.mesh.shape, 1, 2)
            }
            None => try_analyze_blocks(&reader, self.mesh.shape, 1, 2),
        });
        let analysis = analysis.map_err(|e| format!("analyze blocks: {e}"))?;
        let report = timed(tr, "core.report", parent, |_| analysis_report(&analysis, "trace")).0;
        if report != self.reference {
            return Err("block-streamed report differs from the in-memory reference".into());
        }
        let addr = self.server.as_ref().expect("server runs until drop").addr().to_string();
        let served = timed(tr, "serve.session", parent, |id| self.feed(&addr, nodes, tr, id)).0;
        if served? != report {
            return Err("served report differs from the offline report".into());
        }
        if let Some(tr) = tr {
            let bytes = std::fs::metadata(&self.path).map_err(|e| e.to_string())?.len();
            tr.add("tracestore.bytes", bytes as f64);
            tr.add("tracestore.events", self.events() as f64);
            tr.add("tracestore.blocks", reader.block_count() as f64);
            tr.add("serve.events", self.events() as f64);
            tr.span("probe", parent, |p| -> Result<(), String> {
                let mut accum = StreamAccum::new(nodes);
                for b in 0..reader.block_count() {
                    let events = reader.decode_events(b).map_err(|e| e.to_string())?;
                    tr.span("trace.extract", Some(p), |_| -> Result<(), String> {
                        let seg = SegmentExtract::from_events(nodes, &events)
                            .map_err(|e| e.to_string())?;
                        accum.absorb(&seg).map_err(|e| e.to_string())
                    })
                    .0?;
                }
                fit_probe(&accum.finish(), tr, p);
                Ok(())
            })
            .0?;
        }
        Ok(CellOutcome {
            key: "synthetic".into(),
            msgs: self.events(),
            digest: fnv1a(report.as_bytes()),
        })
    }

    /// Feeds the packed file's raw blocks through one session, polling
    /// every [`POLL_EVERY_BLOCKS`] blocks, and returns the final report.
    fn feed(
        &self,
        addr: &str,
        nodes: usize,
        tr: Option<&Tracer>,
        parent: Option<SpanId>,
    ) -> Result<String, String> {
        let serve_err = |e: ServeError| format!("serve: {e}");
        let mut client = ServeClient::connect(addr).map_err(serve_err)?;
        let session = client.open_session(nodes as u32).map_err(serve_err)?;
        let file = File::open(&self.path).map_err(|e| e.to_string())?;
        let mut blocks = StreamBlockReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
        let mut sent = 0usize;
        while let Some(payload) = blocks.next_block().map_err(|e| e.to_string())? {
            loop {
                match client.send_blocks(session, vec![payload.clone()]) {
                    Ok(_) => break,
                    Err(ServeError::Backpressure { .. }) => {
                        if let Some(tr) = tr {
                            tr.add("serve.refusals", 1.0);
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    Err(e) => return Err(serve_err(e)),
                }
            }
            sent += 1;
            if sent.is_multiple_of(POLL_EVERY_BLOCKS) {
                timed(tr, "serve.poll", parent, |_| client.poll(session)).0.map_err(serve_err)?;
            }
        }
        let (seen, report) = client.close_session(session).map_err(serve_err)?;
        if seen != self.events() {
            return Err(format!("server absorbed {seen} of {} events", self.events()));
        }
        Ok(report)
    }
}

impl Drop for StreamInput {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

fn pack(trace: &CommTrace, path: &Path) -> Result<(), TraceStoreError> {
    let mut writer = TraceWriter::new(BufWriter::new(File::create(path)?), trace.nodes())?;
    for e in trace.events() {
        writer.push(*e)?;
    }
    writer.finish()?.flush()?;
    Ok(())
}

/// A block source whose every `decode_events` call is a span.
struct TimedSource<'a, R> {
    inner: &'a R,
    tr: &'a Tracer,
    parent: Option<SpanId>,
}

impl<R: BlockSource> BlockSource for TimedSource<'_, R> {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }
    fn block_count(&self) -> usize {
        self.inner.block_count()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn block_records(&self, block: usize) -> usize {
        self.inner.block_records(block)
    }
    fn decode_events(&self, block: usize) -> Result<Vec<CommEvent>, TraceStoreError> {
        self.tr.span("tracestore.decode", self.parent, |_| self.inner.decode_events(block)).0
    }
}

/// Everything a workload needs before its first timed pass.
#[derive(Debug)]
pub enum Prepared {
    /// Simulator workloads: cells to run.
    Cells(Vec<Cell>),
    /// `trace_stream`: the generated input and a running server.
    Stream(Box<StreamInput>),
}

/// Set-up: parse the expected digests, warm every cell up at tiny scale
/// (checking its tiny digest), and for `trace_stream` generate the seeded
/// input and start the server.
///
/// # Errors
///
/// A failed or mismatching warm-up cell, or a `trace_stream` set-up error.
pub fn setup(w: WorkloadKind, size: Size, seed: u64, work_dir: &Path) -> Result<Prepared, String> {
    let expected = expected_digests();
    if w == WorkloadKind::TraceStream {
        return StreamInput::setup(size, seed, work_dir, &expected)
            .map(|s| Prepared::Stream(Box::new(s)));
    }
    for cell in cells(w, Size::Tiny) {
        let out = run_cell(&cell, None, None)?;
        check_digest(&expected, &format!("tiny {} {}", w.name(), out.key), out.digest)?;
    }
    Ok(Prepared::Cells(cells(w, size)))
}

/// Outcome of one pass.
#[derive(Clone, Debug, Default)]
pub struct PassResult {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Sum of cell host seconds.
    pub cell_s: f64,
    /// Messages carried by successful cells.
    pub msgs: u64,
    /// Cells attempted.
    pub attempted: u64,
    /// Failure descriptions, one per failed cell.
    pub failures: Vec<String>,
}

/// SplitMix64, for the seeded cell order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one pass: every cell once, in an order drawn from `seed` and
/// `pass`, each failure (typed error, panic, digest mismatch) recorded
/// against its cell.
pub fn run_pass(
    w: WorkloadKind,
    size: Size,
    prepared: &Prepared,
    seed: u64,
    pass: u64,
    tr: Option<&Tracer>,
) -> PassResult {
    let expected = expected_digests();
    let mut res = PassResult::default();
    let start = Instant::now();
    let mut run_one = |key: &str, f: &dyn Fn(Option<SpanId>) -> Result<CellOutcome, String>| {
        res.attempted += 1;
        let t = Instant::now();
        let out = timed(tr, "cell", None, |id| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(id)))
        })
        .0;
        res.cell_s += t.elapsed().as_secs_f64();
        let checked = match out {
            Ok(Ok(o)) if w == WorkloadKind::TraceStream => Ok(o),
            Ok(Ok(o)) => check_digest(
                &expected,
                &format!("{} {} {}", size.name(), w.name(), o.key),
                o.digest,
            )
            .map(|()| o),
            Ok(Err(e)) => Err(e),
            Err(p) => Err(format!(
                "panic: {}",
                p.downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| p.downcast_ref::<&str>().copied())
                    .unwrap_or("(non-string payload)")
            )),
        };
        match checked {
            Ok(o) => res.msgs += o.msgs,
            Err(e) => res.failures.push(format!("{key}: {e}")),
        }
    };
    match prepared {
        Prepared::Cells(cells) => {
            let mut order: Vec<usize> = (0..cells.len()).collect();
            let mut state = seed ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03);
            for i in (1..order.len()).rev() {
                order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
            }
            for i in order {
                let cell = cells[i];
                run_one(&cell.key(), &|id| run_cell(&cell, tr, id));
            }
        }
        Prepared::Stream(input) => run_one("synthetic", &|id| input.pass(tr, id)),
    }
    res.wall_s = start.elapsed().as_secs_f64();
    res
}

/// Per-layer metrics of one traced pass, derived from its tracer.
pub fn layer_metrics(tr: &Tracer) -> BTreeMap<&'static str, f64> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = BTreeMap::new();
    for name in [
        "apps.acquire_s",
        "apps.acquire_msgs",
        "mesh.sends",
        "mesh.busy_s",
        "mesh.send_us.n16",
        "mesh.send_us.n64",
        "mesh.send_us.n256",
        "spasm.self_s",
        "sp2.acquire_s",
        "trace.replay_s",
        "trace.extract_s",
        "stats.fit_s",
        "stats.fits",
        "stats.fit_unique_values",
        "core.analyze_s",
        "core.report_s",
        "tracestore.pack_s",
        "tracestore.decode_s",
        "tracestore.blocks",
        "serve.session_s",
        "serve.poll_s",
        "serve.refusals",
    ] {
        m.insert(name, tr.get(name));
    }
    m.insert("mesh.send_us", ratio(tr.get("mesh.busy_s") * 1e6, tr.get("mesh.sends")));
    m.insert(
        "spasm.shard_speedup",
        ratio(tr.get("spasm.serial_acquire_s"), tr.get("spasm.sharded_acquire_s")),
    );
    m.insert(
        "trace.replay_msgs_per_s",
        ratio(tr.get("apps.acquire_msgs"), tr.get("trace.replay_s")),
    );
    m.insert(
        "tracestore.bytes_per_event",
        ratio(tr.get("tracestore.bytes"), tr.get("tracestore.events")),
    );
    m.insert("serve.events_per_s", ratio(tr.get("serve.events"), tr.get("serve.session_s")));
    m
}

/// Units of the per-layer metrics.
pub fn layer_unit(name: &str) -> &'static str {
    match name {
        "apps.acquire_msgs" => "msg",
        "mesh.sends" | "stats.fits" | "stats.fit_unique_values" | "tracestore.blocks" => "count",
        "serve.refusals" => "count",
        "spasm.shard_speedup" => "x",
        "trace.replay_msgs_per_s" => "msg/s",
        "serve.events_per_s" => "event/s",
        "tracestore.bytes_per_event" => "B/event",
        n if n.starts_with("mesh.send_us") => "us",
        _ => "s",
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}
