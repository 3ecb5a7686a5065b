//! The `serve-hot` and `serve-cold` workloads: open-loop TCP traffic
//! against the server library, on two connections (line-JSON and `bin1`).
//!
//! * `serve-hot`: Zipf-skewed keys over a few hundred small instances, all
//!   solved during set-up, so every timed request is a cache hit; half the
//!   elements travel singly and half in batch envelopes.
//! * `serve-cold`: every request is a fresh instance — a seeded stream of
//!   S±1 edits of a few base views — with a small share of exact
//!   duplicates sent while the original is in flight. The server runs the
//!   warm-started ILP solver with persistence on and a cache smaller than
//!   the key stream, so evictions, segment appends and compaction happen.
//!
//! Each workload runs three phases: a fixed offered rate (`p50_ms`,
//! `p99_ms`), a fixed ladder of rates (`max_rate_rps`), and a fixed window
//! of requests in flight per connection (`saturated_rps`). Every answer is
//! checked against the in-process engine.

use std::collections::HashMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use strudel_core::engine::{
    hint_from_refinement, IlpEngine, IlpEngineConfig, RefineOutcome, RefinementEngine,
};
use strudel_core::metrics::HistogramSnapshot;
use strudel_core::sigma::SigmaSpec;
use strudel_core::wire::WireOutcome;
use strudel_rdf::rng::StdRng;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;
use strudel_server::hints::{view_identities, HintIndex, SolvedHint, SolverMode};
use strudel_server::json::{self, Json};
use strudel_server::pool::WorkerPool;
use strudel_server::prelude::{
    CacheKey, Client, EngineKind, FsyncPolicy, ServerConfig, ServerHandle, SolveOp, SolveRequest,
    Source, StatusSnapshot,
};
use strudel_server::protocol;
use strudel_server::server;

use crate::loadgen::{self, Lane, Pace, Send, Timing, Wire};
use crate::replay;
use crate::report::{Report, Tally};
use crate::spans::Tracer;
use crate::stats;

/// Which serve workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
}

/// The two connections: one per framing.
pub const WIRES: [Wire; 2] = [Wire::Json, Wire::Bin1];

/// A workload's fixed parameters.
struct Params {
    name: &'static str,
    /// Offered rate of the fixed-rate phase, elements/s.
    fixed_rate: f64,
    /// The rate ladder, elements/s, ascending.
    ladder: &'static [f64],
    /// The tail-latency limit a ladder rung must meet, ms.
    p99_limit_ms: f64,
    /// Requests in flight per connection in the saturated phase.
    window: usize,
    /// Rate (elements/s) the saturated phase's request list is sized for.
    /// The window cycles through the list: harmless on cache hits, so
    /// `serve-cold` sizes it beyond any rate its window reaches, keeping
    /// every request fresh.
    saturated_list_rate: f64,
    /// Result-cache capacity, entries.
    cache_capacity: usize,
    solver: SolverMode,
}

const HOT: Params = Params {
    name: "serve-hot",
    fixed_rate: 10000.0,
    ladder: &[
        6000.0, 9000.0, 13500.0, 20000.0, 30000.0, 45000.0, 67000.0, 100000.0,
    ],
    p99_limit_ms: 5.0,
    window: 128,
    saturated_list_rate: 10000.0,
    cache_capacity: 1024,
    solver: SolverMode::Request,
};

const COLD: Params = Params {
    name: "serve-cold",
    fixed_rate: 300.0,
    ladder: &[300.0, 450.0, 650.0, 900.0, 1200.0, 1600.0, 2100.0, 2800.0],
    p99_limit_ms: 25.0,
    window: 16,
    saturated_list_rate: 6000.0,
    cache_capacity: 256,
    solver: SolverMode::Ilp,
};

/// Distinct instances of `serve-hot`.
const HOT_INSTANCES: usize = 300;
/// Zipf exponent of `serve-hot` key popularity.
const HOT_ZIPF: f64 = 1.0;
/// Elements per batch envelope; one send in `BATCH + 1` is a batch, so
/// half the elements travel in envelopes.
const BATCH: usize = 8;
/// Share of `serve-cold` requests repeated on the other connection while
/// the original is in flight, and how long after it.
const DUPLICATE_SHARE: f64 = 0.05;
const DUPLICATE_LAG: Duration = Duration::from_micros(500);
/// Base views the `serve-cold` stream edits.
const COLD_BASES: usize = 3;

/// One instance: the request and its encodings.
pub struct Instance {
    pub req: SolveRequest,
    pub key: CacheKey,
    pub json: Json,
    pub bin: Vec<u8>,
}

impl Instance {
    fn new(req: SolveRequest) -> Self {
        Instance {
            key: req.cache_key(),
            json: req.to_json(),
            bin: protocol::encode_solve_bin(&req),
            req,
        }
    }
}

fn refine_request(view: SignatureView, k: usize, theta: Ratio) -> SolveRequest {
    SolveRequest {
        op: SolveOp::Refine,
        view,
        spec: SigmaSpec::Coverage,
        engine: EngineKind::Ilp,
        k: Some(k),
        theta: Some(theta),
        step: None,
        max_k: None,
        time_limit: None,
        routing: None,
        tenant: None,
    }
}

fn view_of(prefix: &str, properties: usize, signatures: &[(u32, usize)]) -> SignatureView {
    let props: Vec<String> = (0..properties)
        .map(|i| format!("http://bench.example/{prefix}/p{i}"))
        .collect();
    let sigs = signatures
        .iter()
        .map(|&(mask, count)| {
            (
                (0..properties).filter(|b| mask >> b & 1 == 1).collect(),
                count,
            )
        })
        .collect();
    SignatureView::from_counts(props, sigs).expect("generated views are valid")
}

/// `serve-hot`'s instances: small random views with distinct keys.
pub fn hot_instances(seed: u64) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x686f_7421);
    let thetas = [(1, 2), (3, 5)];
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    while out.len() < HOT_INSTANCES {
        let mut sigs: Vec<(u32, usize)> = Vec::new();
        while sigs.len() < 7 {
            let mask = rng.gen_range(1u32..256);
            if !sigs.iter().any(|s| s.0 == mask) {
                sigs.push((mask, rng.gen_range(1usize..60)));
            }
        }
        let (num, den) = thetas[rng.gen_range(0usize..thetas.len())];
        let req = refine_request(view_of("hot", 8, &sigs), 2, Ratio::new(num, den));
        if seen.insert(req.cache_key()) {
            out.push(Instance::new(req));
        }
    }
    out
}

/// `serve-cold`'s instance stream: each request is a fresh S±1 edit (one
/// signature added or removed) of the current state of one of a few base
/// views.
pub struct ColdStream {
    rng: StdRng,
    walks: Vec<Vec<(u32, usize)>>,
    seen: std::collections::HashSet<CacheKey>,
    turn: usize,
}

const COLD_PROPERTIES: usize = 10;
const COLD_SIGNATURES: usize = 10;
const COLD_K: usize = 2;
const COLD_THETA: (i128, i128) = (1, 2);

impl ColdStream {
    pub fn new(seed: u64) -> Self {
        // The base views are the same for every seed, so every seed's
        // stream edits instances of one difficulty; the seed drives the
        // edits.
        let mut rng = StdRng::seed_from_u64(0x636f_6c64);
        let walks = (0..COLD_BASES)
            .map(|_| {
                let mut sigs: Vec<(u32, usize)> = Vec::new();
                while sigs.len() < COLD_SIGNATURES {
                    let mask = rng.gen_range(1u32..(1 << COLD_PROPERTIES));
                    if !sigs.iter().any(|s| s.0 == mask) {
                        sigs.push((mask, rng.gen_range(1usize..80)));
                    }
                }
                sigs
            })
            .collect();
        ColdStream {
            rng: StdRng::seed_from_u64(seed ^ 0x636f_6c64),
            walks,
            seen: Default::default(),
            turn: 0,
        }
    }

    fn request(sigs: &[(u32, usize)]) -> SolveRequest {
        refine_request(
            view_of("cold", COLD_PROPERTIES, sigs),
            COLD_K,
            Ratio::new(COLD_THETA.0, COLD_THETA.1),
        )
    }

    /// The base views themselves (solved during set-up).
    pub fn bases(&self) -> Vec<Instance> {
        self.walks
            .iter()
            .map(|w| Instance::new(Self::request(w)))
            .collect()
    }

    /// The next fresh instance.
    pub fn next_instance(&mut self) -> Instance {
        let walk = self.turn % self.walks.len();
        self.turn += 1;
        loop {
            let mut sigs = self.walks[walk].clone();
            if sigs.len() > COLD_SIGNATURES - 3 && self.rng.gen_bool(0.5) {
                let at = self.rng.gen_range(0..sigs.len());
                sigs.remove(at);
            } else {
                let mask = self.rng.gen_range(1u32..(1 << COLD_PROPERTIES));
                if sigs.iter().any(|s| s.0 == mask) || sigs.len() >= COLD_SIGNATURES + 3 {
                    continue;
                }
                sigs.push((mask, self.rng.gen_range(1usize..80)));
            }
            let req = Self::request(&sigs);
            if self.seen.insert(req.cache_key()) {
                self.walks[walk] = sigs;
                return Instance::new(req);
            }
        }
    }
}

/// A Zipf sampler over `n` ranks.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(exponent);
                total
            })
            .collect::<Vec<_>>();
        Zipf {
            cumulative: cumulative.iter().map(|c| c / total).collect(),
        }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// Encodes a send of `elements` for a connection.
fn encode_send(wire: Wire, instances: &[Instance], elements: Vec<usize>, due: Duration) -> Send {
    let batch = elements.len() > 1;
    let bytes = loadgen::frame(
        wire,
        || {
            if batch {
                let values: Vec<Json> = elements
                    .iter()
                    .map(|&i| instances[i].json.clone())
                    .collect();
                protocol::encode_batch_request(&values)
            } else {
                instances[elements[0]].json.to_text()
            }
        },
        || {
            if batch {
                let payloads: Vec<Vec<u8>> =
                    elements.iter().map(|&i| instances[i].bin.clone()).collect();
                protocol::encode_batch_bin(&payloads)
            } else {
                instances[elements[0]].bin.clone()
            }
        },
    );
    Send {
        due,
        bytes,
        elements,
        batch,
    }
}

/// One phase's sends, per connection.
struct Plan {
    lanes: [Vec<Send>; 2],
}

/// The traffic of one phase at `rate` elements/s for `seconds`. The
/// windowed phase ignores the due times.
fn plan(kind: Kind, rng: &mut StdRng, rate: f64, seconds: f64, pool: &mut Pool) -> Plan {
    let mut lanes: [Vec<Send>; 2] = [Vec::new(), Vec::new()];
    match kind {
        Kind::Hot => {
            let zipf = Zipf::new(pool.instances.len(), HOT_ZIPF);
            let per_send = 2.0 * BATCH as f64 / (BATCH as f64 + 1.0);
            let lane_rate = rate / per_send / 2.0;
            for (lane, wire) in WIRES.iter().enumerate() {
                let count = (lane_rate * seconds).ceil() as usize;
                for due in loadgen::poisson_schedule(rng, lane_rate, count) {
                    let size = if rng.gen_range(0..BATCH + 1) == 0 {
                        BATCH
                    } else {
                        1
                    };
                    let elements = (0..size).map(|_| zipf.sample(rng)).collect();
                    lanes[lane].push(encode_send(*wire, &pool.instances, elements, due));
                }
            }
        }
        Kind::Cold => {
            let count = (rate * seconds).ceil() as usize;
            for due in loadgen::poisson_schedule(rng, rate, count) {
                let idx = pool.fresh();
                let lane = rng.gen_range(0..2usize);
                lanes[lane].push(encode_send(WIRES[lane], &pool.instances, vec![idx], due));
                if rng.gen_bool(DUPLICATE_SHARE) {
                    let other = 1 - lane;
                    lanes[other].push(encode_send(
                        WIRES[other],
                        &pool.instances,
                        vec![idx],
                        due + DUPLICATE_LAG,
                    ));
                }
            }
            for lane in &mut lanes {
                lane.sort_by_key(|s| s.due);
            }
        }
    }
    Plan { lanes }
}

/// The instances a run has generated; `serve-cold` appends fresh ones.
struct Pool {
    instances: Vec<Instance>,
    stream: Option<ColdStream>,
}

impl Pool {
    fn fresh(&mut self) -> usize {
        let stream = self.stream.as_mut().expect("cold workloads have a stream");
        self.instances.push(stream.next_instance());
        self.instances.len() - 1
    }
}

/// A running server with its two connections.
struct Rig {
    handle: ServerHandle,
    streams: Vec<TcpStream>,
    segment: PathBuf,
}

impl Rig {
    fn stop(self) -> StatusSnapshot {
        drop(self.streams);
        self.handle.shutdown();
        let status = self.handle.wait();
        let _ = std::fs::remove_file(&self.segment);
        status
    }
}

/// Starts a server, connects both lanes, and warms it: `serve-hot` solves
/// every instance (returning each one's served response line), `serve-cold`
/// solves its base views.
fn start_rig(
    kind: Kind,
    params: &Params,
    traced: bool,
    pool: &Pool,
    tag: &str,
) -> Result<(Rig, Vec<String>), String> {
    let segment = crate::out_dir().join(format!("{}-{tag}.segment", params.name));
    let _ = std::fs::remove_file(&segment);
    let handle = server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: params.cache_capacity,
        persist_path: Some(segment.clone()),
        fsync: FsyncPolicy::default(),
        solver: params.solver,
        trace_sample: Some(u64::from(traced)),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = handle.addr();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut served = Vec::new();
    let warm: Vec<&SolveRequest> = match kind {
        Kind::Hot => pool.instances.iter().map(|i| &i.req).collect(),
        Kind::Cold => Vec::new(),
    };
    for chunk in warm.chunks(50) {
        let owned: Vec<SolveRequest> = chunk.iter().map(|r| (*r).clone()).collect();
        for outcome in client
            .solve_batch(&owned)
            .map_err(|e| format!("warm-up: {e}"))?
        {
            let response = outcome.map_err(|e| format!("warm-up element: {e}"))?;
            let text = response
                .result_text()
                .ok_or("warm-up response without a result")?;
            served.push(protocol::encode_success("refine", Source::Cache, text));
        }
    }
    if kind == Kind::Cold {
        for base in pool.stream.as_ref().expect("cold stream").bases() {
            client
                .solve(&base.req)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    drop(client);
    let streams = WIRES
        .iter()
        .map(|w| loadgen::connect(addr, *w))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect lanes: {e}"))?;
    Ok((
        Rig {
            handle,
            streams,
            segment,
        },
        served,
    ))
}

/// A phase's outcome.
struct PhaseRun {
    timings: [Vec<Timing>; 2],
    /// Element latencies from the due time, ms (failed elements excluded).
    latencies: Vec<f64>,
    elements: usize,
    answered: usize,
    failed: usize,
    /// Generator lag: how late each send was written, ms.
    lag_ms: Vec<f64>,
    span_s: f64,
    origin: Instant,
}

impl PhaseRun {
    /// The tail latency by the percentile rule.
    fn tail(&self) -> stats::Tail {
        stats::tail(&stats::sorted(&self.latencies))
    }

    /// How late the generator wrote its sends: the tail lag, ms.
    fn lag(&self) -> f64 {
        stats::tail(&stats::sorted(&self.lag_ms)).value
    }
}

/// The median of per-round values over the half of the rounds in which
/// the generator kept its schedule best (least tail lag). A round whose
/// generator was descheduled measures the host's stall, not the server:
/// such rounds are void.
fn steady_median(rounds: &[(f64, f64)]) -> f64 {
    let mut by_lag = rounds.to_vec();
    by_lag.sort_by(|a, b| a.0.total_cmp(&b.0));
    by_lag.truncate(rounds.len().div_ceil(2));
    stats::median(&by_lag.iter().map(|r| r.1).collect::<Vec<_>>())
}

/// Runs one phase of `plan` on the rig and checks every response:
/// `serve-hot` against the expected bytes as each response arrives,
/// `serve-cold` by collecting each instance's answer into `answers`, where
/// every copy of an instance must be byte-identical.
fn run_phase(
    rig: &mut Rig,
    kind: Kind,
    plan: &Plan,
    pace: Pace,
    expected: &[String],
    answers: &mut HashMap<usize, String>,
    tally: &mut Tally,
) -> Result<PhaseRun, String> {
    let mut bad: [Vec<bool>; 2] = [Vec::new(), Vec::new()];
    let mut on_response = |lane: usize, send: usize, payload: &[u8]| {
        let s = &plan.lanes[lane][send % plan.lanes[lane].len()];
        let wrong = match kind {
            Kind::Hot if s.batch => {
                let mut want = String::from(protocol::BATCH_ENVELOPE_PREFIX);
                for (i, &e) in s.elements.iter().enumerate() {
                    if i > 0 {
                        want.push(',');
                    }
                    want.push_str(&expected[e]);
                }
                want.push_str(protocol::BATCH_ENVELOPE_SUFFIX);
                payload != want.as_bytes()
            }
            Kind::Hot => payload != expected[s.elements[0]].as_bytes(),
            Kind::Cold => match result_text(payload) {
                None => true,
                Some(text) => match answers.get(&s.elements[0]) {
                    Some(first) => *first != text,
                    None => {
                        answers.insert(s.elements[0], text);
                        false
                    }
                },
            },
        };
        let bad = &mut bad[lane];
        bad.resize(bad.len().max(send + 1), false);
        bad[send] = wrong;
    };
    let origin = Instant::now();
    let (first, second) = rig.streams.split_at_mut(1);
    let mut lanes = [
        Lane {
            stream: &mut first[0],
            wire: WIRES[0],
            sends: &plan.lanes[0],
        },
        Lane {
            stream: &mut second[0],
            wire: WIRES[1],
            sends: &plan.lanes[1],
        },
    ];
    let timings = loadgen::drive(origin, &mut lanes, pace, DRAIN, &mut on_response)
        .map_err(|e| format!("traffic: {e}"))?;
    let mut run = PhaseRun {
        timings: [Vec::new(), Vec::new()],
        latencies: Vec::new(),
        elements: 0,
        answered: 0,
        failed: 0,
        lag_ms: Vec::new(),
        span_s: origin.elapsed().as_secs_f64(),
        origin,
    };
    for (lane, lane_timings) in timings.into_iter().enumerate() {
        for (send, t) in lane_timings.iter().enumerate() {
            let Some(sent) = t.sent else { continue };
            let n = plan.lanes[lane][send % plan.lanes[lane].len()]
                .elements
                .len();
            run.elements += n;
            run.lag_ms
                .push(sent.saturating_sub(t.due).as_secs_f64() * 1e3);
            match t.done {
                Some(done) if !bad[lane].get(send).copied().unwrap_or(true) => {
                    run.answered += n;
                    let ms = (done - t.due).as_secs_f64() * 1e3;
                    run.latencies.extend(std::iter::repeat_n(ms, n));
                }
                _ => {
                    run.failed += n;
                    tally.note_failure(format!(
                        "lane {lane} send {send}: no response, or a wrong one"
                    ));
                }
            }
        }
        run.timings[lane] = lane_timings;
    }
    tally.attempted += run.elements as u64;
    tally.failed += run.failed as u64;
    Ok(run)
}

/// The verbatim `result` text of a successful response line.
fn result_text(payload: &[u8]) -> Option<String> {
    let line = std::str::from_utf8(payload).ok()?;
    let value = json::parse(line).ok()?;
    (value.get("ok").and_then(Json::as_bool) == Some(true)).then_some(())?;
    let start = line.find("\"result\":")? + "\"result\":".len();
    Some(line.get(start..line.len() - 1)?.to_owned())
}

/// The engine of `--solver ilp` without restarts, as the server builds it.
fn server_ilp() -> IlpEngine {
    IlpEngine::with_config(IlpEngineConfig::default())
}

/// Checks a served `refine` answer. A served refinement must partition
/// the view's signatures into at most k sorts, each with σ ≥ θ when
/// re-evaluated here — which proves the instance feasible, as the
/// in-process engine must agree. A served "infeasible" must match the
/// in-process engine's verdict, `local`.
fn check_answer(
    inst: &Instance,
    served: &str,
    local: Option<&RefineOutcome>,
) -> Result<(), String> {
    let value = json::parse(served).map_err(|e| format!("unparseable result: {e}"))?;
    match value.get("outcome").and_then(Json::as_str).unwrap_or("") {
        "refinement" => {
            if let Some(RefineOutcome::Infeasible) = local {
                return Err("served a refinement of an infeasible instance".to_owned());
            }
            let wire =
                protocol::refinement_from_json(value.get("refinement").ok_or("no refinement")?)
                    .map_err(|e| e.message)?;
            let req = &inst.req;
            let sorts = wire.sorts.iter().map(|s| s.signatures.as_slice());
            let (k, theta) = (req.k.expect("k"), req.theta.expect("θ"));
            crate::pipeline::check_sorts(&req.view, &req.spec, sorts, k, theta)
        }
        "infeasible" => match local {
            Some(RefineOutcome::Infeasible) => Ok(()),
            Some(_) => {
                Err("served infeasible, but the in-process engine finds a refinement".to_owned())
            }
            None => Err("no in-process verdict".to_owned()),
        },
        other => Err(format!("served outcome '{other}'")),
    }
}

/// One in-process pass over `order` (instance indices), each solved
/// serially as the server would, hint-seeded under `--solver ilp`.
struct Reference {
    outcomes: HashMap<usize, RefineOutcome>,
    solve_ms: Vec<f64>,
    nodes: u64,
    propagations: u64,
    conflicts: u64,
    wall_s: f64,
    /// Thread CPU time of the pass, in seconds.
    cpu_s: f64,
}

fn reference(
    instances: &[Instance],
    order: &[usize],
    hinted: bool,
    tracer: &mut Tracer,
) -> Result<Reference, String> {
    let engine = server_ilp();
    let mut hints = HintIndex::new();
    let mut out = Reference {
        outcomes: HashMap::new(),
        solve_ms: Vec::new(),
        nodes: 0,
        propagations: 0,
        conflicts: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
    };
    let begin = Instant::now();
    let cpu = stats::thread_cpu_s();
    for (n, &idx) in order.iter().enumerate() {
        let inst = &instances[idx];
        let req = &inst.req;
        let (k, theta) = (req.k.expect("k"), req.theta.expect("θ"));
        let hint = if hinted {
            tracer.span("hints.lookup", n as u64, |_| {
                hints.lookup(&inst.key.params, &view_identities(&req.view))
            })
        } else {
            None
        };
        let at = Instant::now();
        let solved = tracer.span("core.engine.refine_with_hint", n as u64, |_| {
            engine.refine_with_hint(&req.view, &req.spec, k, theta, hint.as_ref())
        });
        out.solve_ms.push(at.elapsed().as_secs_f64() * 1e3);
        let (outcome, solve_stats) = solved.map_err(|e| format!("in-process solve: {e}"))?;
        out.nodes += solve_stats.nodes;
        out.propagations += solve_stats.propagations;
        out.conflicts += solve_stats.conflicts;
        if let (true, Some(r)) = (hinted, outcome.refinement()) {
            let solved = SolvedHint {
                identities: view_identities(&req.view),
                assignments: hint_from_refinement(&req.view, r).assignments,
            };
            hints.remember(&inst.key.params, inst.key.view, solved);
        }
        out.outcomes.insert(idx, outcome);
    }
    out.wall_s = begin.elapsed().as_secs_f64();
    out.cpu_s = stats::thread_cpu_s() - cpu;
    Ok(out)
}

/// In-process verdicts for `todo`, solved cold on a two-worker pool
/// (untimed).
fn verdicts(instances: &Arc<Vec<Instance>>, todo: Vec<usize>) -> HashMap<usize, RefineOutcome> {
    if todo.is_empty() {
        return HashMap::new();
    }
    let pool = WorkerPool::new(2);
    let (tx, rx) = mpsc::channel();
    let n = todo.len();
    for idx in todo {
        let (tx, instances) = (tx.clone(), Arc::clone(instances));
        pool.submit(move || {
            let req = &instances[idx].req;
            let outcome = server_ilp()
                .refine(
                    &req.view,
                    &req.spec,
                    req.k.expect("k"),
                    req.theta.expect("θ"),
                )
                .unwrap_or(RefineOutcome::Unknown);
            let _ = tx.send((idx, outcome));
        });
    }
    drop(tx);
    rx.iter().take(n).collect()
}

/// The highest rate the ladder supports. `rungs` holds each rate's tail
/// latency (ms); a rung passes when its tail meets the limit. The tail
/// curve is made monotone (a rung is at least as slow as any slower rate),
/// then the rate is interpolated in log space between the last passing
/// rung and the first failing one.
pub fn max_rate(rungs: &[(f64, f64)], limit_ms: f64) -> f64 {
    let mut curve: Vec<(f64, f64)> = Vec::new();
    for &(rate, tail) in rungs {
        let floor = curve.last().map_or(0.0, |c: &(f64, f64)| c.1);
        curve.push((rate, tail.max(floor)));
    }
    match curve.iter().position(|&(_, tail)| tail > limit_ms) {
        None => curve.last().map_or(0.0, |c| c.0),
        Some(0) => curve[0].0 * limit_ms / curve[0].1,
        Some(i) => {
            let ((r0, t0), (r1, t1)) = (curve[i - 1], curve[i]);
            let f = ((limit_ms.ln() - t0.ln()) / (t1.ln() - t0.ln())).clamp(0.0, 1.0);
            r0 * (r1 / r0).powf(f)
        }
    }
}

/// Histogram delta between two snapshots of one stage.
fn stage_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let old: HashMap<usize, u64> = before.sparse().into_iter().collect();
    let pairs: Vec<(usize, u64)> = after
        .sparse()
        .into_iter()
        .map(|(i, c)| (i, c - old.get(&i).copied().unwrap_or(0)))
        .filter(|&(_, c)| c > 0)
        .collect();
    let count = pairs.iter().map(|p| p.1).sum();
    HistogramSnapshot::from_sparse(&pairs, count, after.sum - before.sum, after.max)
}

/// Measurement rounds per run: each round runs every phase once, and each
/// metric is the median over rounds.
const ROUNDS: usize = 20;
/// Shares of a round's time. An untraced run spends it on the fixed rate
/// and the saturated window. A traced run gives the untraced server the
/// fixed rate, the saturated window and the ladder, and its traced twin
/// the fixed rate.
const UNTRACED_FIXED_SHARE: f64 = 0.7;
const UNTRACED_SATURATED_SHARE: f64 = 0.3;
const TRACED_FIXED_SHARE: f64 = 0.3;
const TRACED_SATURATED_SHARE: f64 = 0.15;
const LADDER_SHARE: f64 = 0.25;
/// How long a phase may take to answer after its last send was due.
const DRAIN: Duration = Duration::from_secs(10);
/// Instances of the in-process pass on `serve-cold`: the first of the
/// instance stream of seed 0.
const REFERENCE_INSTANCES: usize = 300;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The instances one set-up builds: every `serve-hot` instance, or the
/// `serve-cold` instance stream (drawn from round by round).
fn new_pool(kind: Kind, seed: u64) -> Pool {
    match kind {
        Kind::Hot => Pool {
            instances: hot_instances(seed),
            stream: None,
        },
        Kind::Cold => Pool {
            instances: Vec::new(),
            stream: Some(ColdStream::new(seed)),
        },
    }
}

/// One round's traffic. It is planned just before its round and dropped
/// after it, so the benchmark holds one round's requests at a time.
struct Round {
    /// The fixed rate against the untraced server.
    fixed: Plan,
    /// The saturated window's request list, against the untraced server.
    saturated: Plan,
    /// Traced runs: one plan per ladder rate, against the untraced server.
    ladder: Vec<Plan>,
    /// Traced runs: the fixed rate against the traced server.
    traced: Option<Plan>,
}

/// What a traced run keeps of its first round, for the request spans and
/// the replays.
struct FirstRound {
    traffic: Round,
    /// The traced server's fixed-rate phase.
    run: PhaseRun,
    /// `serve-cold`: the round's instances and answers.
    instances: Arc<Vec<Instance>>,
    answers: HashMap<usize, String>,
}

fn plan_round(
    kind: Kind,
    params: &Params,
    rng: &mut StdRng,
    round_s: f64,
    traced: bool,
    pool: &mut Pool,
) -> Round {
    let (fixed_share, saturated_share) = if traced {
        (TRACED_FIXED_SHARE, TRACED_SATURATED_SHARE)
    } else {
        (UNTRACED_FIXED_SHARE, UNTRACED_SATURATED_SHARE)
    };
    let rate = params.fixed_rate;
    let fixed = plan(kind, rng, rate, fixed_share * round_s, pool);
    let list_rate = params.saturated_list_rate;
    let saturated = plan(kind, rng, list_rate, saturated_share * round_s, pool);
    if !traced {
        return Round {
            fixed,
            saturated,
            ladder: Vec::new(),
            traced: None,
        };
    }
    let rung_s = LADDER_SHARE * round_s / params.ladder.len() as f64;
    let ladder = params
        .ladder
        .iter()
        .map(|&r| plan(kind, rng, r, rung_s, pool))
        .collect();
    Round {
        fixed,
        saturated,
        ladder,
        traced: Some(plan(kind, rng, rate, TRACED_FIXED_SHARE * round_s, pool)),
    }
}

/// Checks one round of `serve-cold` answers: every served refinement is
/// re-checked here, every served "infeasible" against the in-process
/// engine (solved untimed, between rounds).
fn check_cold(instances: &Arc<Vec<Instance>>, answers: &HashMap<usize, String>, tally: &mut Tally) {
    let todo: Vec<usize> = answers
        .iter()
        .filter(|(_, text)| text.contains("\"infeasible\""))
        .map(|(idx, _)| *idx)
        .collect();
    let solved = verdicts(instances, todo);
    for (idx, text) in answers {
        tally.result(
            check_answer(&instances[*idx], text, solved.get(idx)),
            "cold",
        );
    }
}

/// Runs a serve workload: set-up, the measured rounds each followed by an
/// in-process pass, then the checks and, when traced, the layer replays.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    let params = match kind {
        Kind::Hot => &HOT,
        Kind::Cold => &COLD,
    };
    report.note("framing.lane0", WIRES[0].name());
    report.note("framing.lane1", WIRES[1].name());
    let mut tracer = Tracer::new(traced);

    // The in-process pass, run once after each round while the servers
    // idle, so its repeats sample the host across the whole run. It is one
    // fixed amount of work for every seed: the hot instances of seed 0, or
    // the first cold instances of seed 0 hint-seeded in order as the server
    // seeds them.
    let fixed_work = match kind {
        Kind::Hot => hot_instances(0),
        Kind::Cold => {
            let mut stream = ColdStream::new(0);
            (0..REFERENCE_INSTANCES)
                .map(|_| stream.next_instance())
                .collect()
        }
    };
    let order: Vec<usize> = (0..fixed_work.len()).collect();
    let (mut passes, mut pass_times) = (Vec::new(), Vec::new());
    let mut quiet = Tracer::new(false);

    // Set-up, several times: everything up to the first timed operation —
    // the instances, the first round's traffic, a server, a warm cache.
    // Later rounds' traffic is planned between rounds. A traced run keeps
    // the last two servers: the untraced one and its traced twin.
    let round_s = seconds / ROUNDS as f64;
    let (mut setups, mut setup_walls) = (Vec::new(), Vec::new());
    let mut kept = Vec::new();
    for n in 0..SETUPS {
        let before = stats::calibrate();
        let begin = Instant::now();
        let cpu = stats::process_cpu_s();
        let mut pool = new_pool(kind, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let traffic = plan_round(kind, params, &mut rng, round_s, traced, &mut pool);
        let last = n + 1 == SETUPS;
        let (rig, served) = start_rig(kind, params, traced && last, &pool, &format!("setup{n}"))?;
        let cpu = stats::process_cpu_s() - cpu;
        setup_walls.push(begin.elapsed().as_secs_f64());
        setups.push(stats::at_reference_speed(cpu, before, stats::calibrate()));
        if last || (traced && n + 2 == SETUPS) {
            kept.push((rig, served, pool, rng, traffic));
        } else {
            rig.stop();
        }
    }
    report.setup_s = stats::median(&setups);
    report.note("setup_s.wall", format!("{setup_walls:.4?}"));
    let mut twin = traced.then(|| {
        let (rig, served, ..) = kept.pop().expect("the traced set-up is kept");
        (rig, served)
    });
    let (mut rig, served, mut pool, mut rng, traffic) =
        kept.pop().expect("the untraced set-up is kept");
    let mut next = Some(traffic);
    report.note("poller.backend", rig.handle.status().poller.backend);

    let mut tally = Tally::default();
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut traced_p50s = Vec::new();
    let mut rung_tails: Vec<Vec<(f64, f64)>> = vec![Vec::new(); params.ladder.len()];
    let mut saturated = Vec::new();
    let mut lags = Vec::new();
    let (mut sent, mut succeeded) = (0usize, 0usize);
    let mut phase_counts: HashMap<&'static str, (usize, usize, usize)> = HashMap::new();
    let mut first: Option<FirstRound> = None;
    let before = twin.as_ref().map(|t| t.0.handle.status());
    for round in 0..ROUNDS {
        let traffic = match next.take() {
            Some(traffic) => traffic,
            None => plan_round(kind, params, &mut rng, round_s, traced, &mut pool),
        };
        let mut answers: HashMap<usize, String> = HashMap::new();
        let mut phase = |rig: &mut Rig, plan: &Plan, pace: Pace, expected: &[String]| {
            run_phase(rig, kind, plan, pace, expected, &mut answers, &mut tally)
        };
        let run = phase(&mut rig, &traffic.fixed, Pace::Open, &served)?;
        count(&mut phase_counts, "fixed", &run);
        p50s.push((run.lag(), stats::median(&run.latencies)));
        tails.push((run.lag(), run.tail()));
        lags.extend_from_slice(&run.lag_ms);
        let stop = Duration::from_secs_f64(match traced {
            true => TRACED_SATURATED_SHARE * round_s,
            false => UNTRACED_SATURATED_SHARE * round_s,
        });
        let window = Pace::Window(params.window, stop);
        let run = phase(&mut rig, &traffic.saturated, window, &served)?;
        count(&mut phase_counts, "saturated", &run);
        saturated.push(run.answered as f64 / run.span_s);
        for (i, rung) in traffic.ladder.iter().enumerate() {
            let run = phase(&mut rig, rung, Pace::Open, &served)?;
            count(&mut phase_counts, "ladder", &run);
            let tail = if run.failed > 0 {
                f64::INFINITY
            } else {
                run.tail().value
            };
            rung_tails[i].push((run.lag(), tail));
        }
        let traced_run = match (twin.as_mut(), &traffic.traced) {
            (Some((twin_rig, twin_served, ..)), Some(plan)) => {
                let run = phase(twin_rig, plan, Pace::Open, twin_served)?;
                count(&mut phase_counts, "fixed-traced", &run);
                traced_p50s.push((run.lag(), stats::median(&run.latencies)));
                sent += run.elements;
                succeeded += run.answered;
                Some(run)
            }
            _ => None,
        };
        // `serve-cold` checks each round's answers and then drops the
        // round's instances.
        let instances = match kind {
            Kind::Hot => Arc::new(Vec::new()),
            Kind::Cold => {
                let instances = Arc::new(std::mem::take(&mut pool.instances));
                check_cold(&instances, &answers, &mut tally);
                instances
            }
        };
        if let (0, Some(run)) = (round, traced_run) {
            first = Some(FirstRound {
                traffic,
                run,
                instances,
                answers,
            });
        }
        let pass_tracer = if round == 0 { &mut tracer } else { &mut quiet };
        let before = stats::calibrate();
        let pass = reference(&fixed_work, &order, kind == Kind::Cold, pass_tracer)?;
        pass_times.push(stats::at_reference_speed(
            pass.cpu_s,
            before,
            stats::calibrate(),
        ));
        passes.push(pass);
    }
    reference_metrics(&passes, &pass_times, report);

    report.set("p50_ms", steady_median(&p50s));
    let tail_values: Vec<(f64, f64)> = tails.iter().map(|(lag, t)| (*lag, t.value)).collect();
    report.set("p99_ms", steady_median(&tail_values));
    report.set("saturated_rps", stats::median(&saturated));
    report.note(
        "p99_ms.rule",
        format!(
            "untraced server; median over the {} of {ROUNDS} rounds with the least generator lag, of p{} of ~{} samples",
            ROUNDS.div_ceil(2),
            tails[0].1.percentile,
            tails[0].1.count
        ),
    );
    report.note(
        "rounds.lag_p99_ms",
        format!("{:?}", tails.iter().map(|t| t.0).collect::<Vec<_>>()),
    );
    for (phase, (sent, ok, failed)) in &phase_counts {
        report.note(
            &format!("phase.{phase}"),
            format!("sent {sent} succeeded {ok} failed {failed}"),
        );
    }
    let lag = stats::tail(&stats::sorted(&lags));
    report.note(
        "loadgen.lag",
        format!(
            "p{} {:.3} ms over {} sends",
            lag.percentile, lag.value, lag.count
        ),
    );
    if let (Some((twin_rig, ..)), Some(before), Some(FirstRound { run, .. })) =
        (twin.as_ref(), &before, &first)
    {
        let after = twin_rig.handle.status();
        let curve: Vec<(f64, f64)> = params
            .ladder
            .iter()
            .zip(&rung_tails)
            .map(|(&r, t)| (r, steady_median(t)))
            .collect();
        report.note(
            "ladder.tails_ms",
            format!("{curve:?} (limit {} ms)", params.p99_limit_ms),
        );
        report.set("max_rate_rps", max_rate(&curve, params.p99_limit_ms));
        report.set(
            "trace.overhead_share",
            steady_median(&traced_p50s) / steady_median(&p50s) - 1.0,
        );
        layer_counters(report, before, &after, sent, succeeded, lag.value);
        tracer.span("trace.status", 0, |_| twin_rig.handle.status());
        let addr = twin_rig.handle.addr();
        tracer
            .span("trace.dump", 0, |_| {
                Client::connect(addr)
                    .and_then(|mut c| c.trace(false, None))
                    .map(|_| ())
            })
            .map_err(|e| format!("trace dump: {e}"))?;
        // The request spans of the first round.
        for (lane, timings) in run.timings.iter().enumerate() {
            for (send, t) in timings.iter().enumerate() {
                let (Some(sent), Some(done)) = (t.sent, t.done) else {
                    continue;
                };
                let req = (lane as u64) << 32 | send as u64;
                let at = |d: Duration| run.origin + d;
                let id = tracer.record("loadgen.request", req, None, at(t.due), at(done));
                tracer.record("loadgen.write", req, id, at(t.due), at(sent));
                tracer.record("server.round_trip", req, id, at(sent), at(done));
            }
        }
    }
    if let Some((twin_rig, ..)) = twin.take() {
        twin_rig.stop();
    }
    let status = rig.stop();
    report.note("persist.final", format!("{:?}", status.persist));

    // `serve-hot`: every cached line must be the in-process engine's answer.
    let hot_texts = (kind == Kind::Hot)
        .then(|| check_hot(&pool.instances, &served, &mut tally))
        .transpose()?;

    if let Some(round) = &first {
        let (instances, texts) = match &hot_texts {
            Some(texts) => (pool.instances.as_slice(), texts),
            None => (round.instances.as_slice(), &round.answers),
        };
        let lanes = &round.traffic.traced.as_ref().expect("a traced round").lanes;
        let segment = crate::out_dir().join(format!("{}-replay.segment", params.name));
        let inputs = replay::ServeInputs {
            instances,
            lanes,
            texts,
            capacity: params.cache_capacity,
            warm: kind == Kind::Hot,
            seed,
            segment: &segment,
        };
        replay::serve_layers(&inputs, &mut tracer, report)?;
        replay::finish_trace(&tracer, params.name, 1, report);
    }
    report.tally.absorb(tally);
    Ok(())
}

/// Checks each served `serve-hot` line against the in-process engine's
/// answer for its instance; returns each instance's result text.
fn check_hot(
    instances: &[Instance],
    served: &[String],
    tally: &mut Tally,
) -> Result<HashMap<usize, String>, String> {
    let order: Vec<usize> = (0..instances.len()).collect();
    let reference = reference(instances, &order, false, &mut Tracer::new(false))?;
    for idx in order {
        let text = protocol::outcome_to_json(&WireOutcome::from_outcome(&reference.outcomes[&idx]))
            .to_text();
        let want = protocol::encode_success("refine", Source::Cache, &text);
        tally.check(served[idx] == want, || {
            format!(
                "hot: instance {idx} served {} but in-process gives {want}",
                served[idx]
            )
        });
    }
    Ok(order_texts(&reference.outcomes))
}

/// The in-process pass metrics. `pipeline_s` is the median of the
/// passes' CPU times at the reference host speed (`pass_times`); the
/// engine metrics come from every solve.
fn reference_metrics(passes: &[Reference], pass_times: &[f64], report: &mut Report) {
    report.set("pipeline_s", stats::median(pass_times));
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    report.note("pipeline_s.cpu_passes", format!("{cpus:.4?}"));
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    report.note("pipeline_s.wall_passes", format!("{walls:.4?}"));
    let solve_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.solve_ms.iter().copied())
        .collect();
    let sorted = stats::sorted(&solve_ms);
    report.set(
        "engine.solve_ms_p50",
        stats::percentile(&sorted, 50.0).unwrap_or(0.0),
    );
    report.set("engine.solve_ms_p99", stats::tail(&sorted).value);
    let first = &passes[0];
    report.set("ilp.nodes", first.nodes as f64);
    report.set("ilp.propagations", first.propagations as f64);
    report.set("ilp.conflicts", first.conflicts as f64);
    let per_node: Vec<f64> = passes
        .iter()
        .map(|p| p.solve_ms.iter().sum::<f64>() * 1e3 / p.nodes.max(1) as f64)
        .collect();
    report.set("ilp.us_per_node", stats::median(&per_node));
}

fn order_texts(outcomes: &HashMap<usize, RefineOutcome>) -> HashMap<usize, String> {
    outcomes
        .iter()
        .map(|(idx, o)| {
            (
                *idx,
                protocol::outcome_to_json(&WireOutcome::from_outcome(o)).to_text(),
            )
        })
        .collect()
}

fn count(
    counts: &mut HashMap<&'static str, (usize, usize, usize)>,
    phase: &'static str,
    run: &PhaseRun,
) {
    let entry = counts.entry(phase).or_default();
    entry.0 += run.elements;
    entry.1 += run.answered;
    entry.2 += run.failed;
}

/// Status counters over the traced fixed-rate rounds.
fn layer_counters(
    report: &mut Report,
    before: &StatusSnapshot,
    after: &StatusSnapshot,
    sent: usize,
    answered: usize,
    lag_ms: f64,
) {
    report.set("loadgen.lag_p99_ms", lag_ms);
    report.set("loadgen.sent", sent as f64);
    report.set("loadgen.succeeded", answered as f64);
    report.set("loadgen.failed", (sent - answered) as f64);
    let answered = answered.max(1) as f64;
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    report.set(
        "poller.syscalls_per_req",
        d(after.poller.syscalls, before.poller.syscalls) / answered,
    );
    report.set(
        "poller.wakeups_per_req",
        d(after.poller.wakeups, before.poller.wakeups) / answered,
    );
    report.set(
        "cache.hit_share",
        d(after.cache.hits, before.cache.hits) / answered,
    );
    report.set(
        "cache.evictions",
        d(after.cache.evictions, before.cache.evictions),
    );
    if let (Some(a), Some(b)) = (&after.persist, &before.persist) {
        report.set(
            "persist.appends",
            d(a.puts + a.tombstones, b.puts + b.tombstones),
        );
        report.set("persist.bytes", d(a.file_bytes, 0));
        report.set("persist.compactions", d(a.compactions, b.compactions));
    }
    let shared = d(after.flight.shared, before.flight.shared);
    let led = d(after.flight.leaders, before.flight.leaders) + shared;
    report.set("flight.shared_share", shared / led.max(1.0));
    let lookups = d(after.solver.seed_lookups, before.solver.seed_lookups);
    report.set(
        "hints.hit_share",
        d(after.solver.seed_hits, before.solver.seed_hits) / lookups.max(1.0),
    );
    for ((name, a), (_, b)) in after.observe.stages.iter().zip(&before.observe.stages) {
        let delta = stage_delta(a, b);
        let (p50, p99): (&'static str, &'static str) = match *name {
            "decode" => ("stage.decode_p50_us", "stage.decode_p99_us"),
            "admission" => ("stage.admission_p50_us", "stage.admission_p99_us"),
            "cache" => ("stage.cache_p50_us", "stage.cache_p99_us"),
            "solve" => ("stage.solve_p50_us", "stage.solve_p99_us"),
            "flush" => ("stage.flush_p50_us", "stage.flush_p99_us"),
            _ => ("stage.total_p50_us", "stage.total_p99_us"),
        };
        report.set(p50, delta.p50() as f64);
        report.set(p99, delta.p99() as f64);
    }
    report.note(
        "server.solver",
        format!(
            "nodes {} propagations {} conflicts {} seed hits {}/{}",
            d(after.solver.nodes, before.solver.nodes),
            d(after.solver.propagations, before.solver.propagations),
            d(after.solver.conflicts, before.solver.conflicts),
            d(after.solver.seed_hits, before.solver.seed_hits),
            lookups
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_planted_wrong_answer_is_counted_failed() {
        let pool = Pool {
            instances: hot_instances(7),
            stream: None,
        };
        let (mut rig, mut expected) =
            start_rig(Kind::Hot, &HOT, false, &pool, "test-planted").expect("server");
        let mut rng = StdRng::seed_from_u64(7);
        let mut pool = pool;
        let traffic = plan(Kind::Hot, &mut rng, 2000.0, 0.1, &mut pool);
        let mut tally = Tally::default();
        let mut answers = HashMap::new();
        let run = run_phase(
            &mut rig,
            Kind::Hot,
            &traffic,
            Pace::Open,
            &expected,
            &mut answers,
            &mut tally,
        )
        .expect("traffic");
        assert_eq!((run.failed, tally.failed), (0, 0), "{:?}", tally.messages);
        assert!(run.answered > 0 && tally.attempted == run.elements as u64);

        // Plant a wrong answer for the first element sent: every element
        // sharing its send now counts as failed, and nothing else does.
        let planted = traffic.lanes[0][0].elements[0];
        expected[planted] = expected[planted].replace("\"ok\":true", "\"ok\":false");
        let mut tally = Tally::default();
        let run = run_phase(
            &mut rig,
            Kind::Hot,
            &traffic,
            Pace::Open,
            &expected,
            &mut answers,
            &mut tally,
        )
        .expect("traffic");
        let sends_with_planted: usize = traffic
            .lanes
            .iter()
            .flatten()
            .filter(|s| s.elements.contains(&planted))
            .map(|s| s.elements.len())
            .sum();
        assert_eq!(run.failed, sends_with_planted);
        assert_eq!(tally.failed, sends_with_planted as u64);
        rig.stop();
    }

    #[test]
    fn a_served_refinement_must_partition_and_meet_theta() {
        let mut stream = ColdStream::new(3);
        let (inst, outcome) = loop {
            let inst = stream.next_instance();
            let req = &inst.req;
            let outcome = server_ilp()
                .refine(
                    &req.view,
                    &req.spec,
                    req.k.expect("k"),
                    req.theta.expect("θ"),
                )
                .expect("solves");
            if outcome.refinement().is_some() {
                break (inst, outcome);
            }
        };
        let good = protocol::outcome_to_json(&WireOutcome::from_outcome(&outcome)).to_text();
        assert_eq!(check_answer(&inst, &good, None), Ok(()));
        // Drop the last signature of the first sort: no longer a partition.
        let first_sort = good.find("\"signatures\":[").expect("a sort") + "\"signatures\":[".len();
        let end = first_sort + good[first_sort..].find(']').expect("closing bracket");
        let kept = good[first_sort..end]
            .rsplit_once(',')
            .map_or("", |(head, _)| head);
        let planted = format!("{}{}{}", &good[..first_sort], kept, &good[end..]);
        assert!(check_answer(&inst, &planted, None).is_err());
        // A served "infeasible" is checked against the in-process verdict.
        let infeasible = r#"{"outcome":"infeasible"}"#;
        assert!(check_answer(&inst, infeasible, Some(&outcome)).is_err());
        let mut tally = Tally::default();
        tally.result(check_answer(&inst, infeasible, Some(&outcome)), "cold");
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }

    #[test]
    fn max_rate_interpolates_between_rungs() {
        // Passing up to 200/s, failing at 400/s: interpolated in log space.
        let rungs = [(100.0, 1.0), (200.0, 2.0), (400.0, 8.0)];
        let rate = max_rate(&rungs, 4.0);
        assert!((rate - 200.0 * 2f64.powf(0.5)).abs() < 1e-9, "{rate}");
        // A noisy dip after a failing rung does not count as passing.
        assert_eq!(
            max_rate(&[(100.0, 9.0), (200.0, 1.0)], 4.0),
            100.0 * 4.0 / 9.0
        );
        assert_eq!(max_rate(&[(100.0, 1.0), (200.0, 2.0)], 4.0), 200.0);
    }
}
