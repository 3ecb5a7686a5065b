//! Per-layer replays of the traced runs: each layer's public functions are
//! called from here on the workload's own inputs, one span per call, and
//! timed from outside the program.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use strudel_server::flight::{BoardJoin, FlightBoard};
use strudel_server::hints::{view_identities, HintIndex};
use strudel_server::poller::{self, Event, PollerCounters, PollerKind};
use strudel_server::pool::WorkerPool;
use strudel_server::prelude::{CacheKey, FsyncPolicy, LruCache, SegmentStore, Source};
use strudel_server::protocol::{self, Decoded};
use strudel_server::tenant::TenantRegistry;

use crate::loadgen::{self, Send};
use crate::report::Report;
use crate::serve::{Instance, WIRES};
use crate::spans::{SelfTime, Tracer};
use crate::stats;

/// Replay passes over the decode inputs, so each call is timed several
/// times; only the first pass records spans, so self times cover one pass.
const DECODE_PASSES: usize = 3;
/// Calls of the pool and poller micro-replays.
const HANDOFFS: usize = 200;

/// Times one call inside a span, pushing its micros per `per` items.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    req: u64,
    per: usize,
    out: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> T {
    let begin = Instant::now();
    let value = tracer.span(name, req, |_| f());
    out.push(begin.elapsed().as_secs_f64() * 1e6 / per.max(1) as f64);
    value
}

/// A serve workload's inputs to the replays.
pub struct ServeInputs<'a> {
    pub instances: &'a [Instance],
    /// One round of fixed-rate traffic, per connection.
    pub lanes: &'a [Vec<Send>; 2],
    /// The result text served for each instance.
    pub texts: &'a HashMap<usize, String>,
    /// The server's cache capacity.
    pub capacity: usize,
    /// Whether set-up warms the cache with every instance.
    pub warm: bool,
    pub seed: u64,
    /// A scratch segment file.
    pub segment: &'a std::path::Path,
}

/// Replays the service layers on a serve workload's fixed-rate traffic.
pub fn serve_layers(
    inputs: &ServeInputs<'_>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let ServeInputs {
        instances,
        lanes,
        texts,
        capacity,
        warm,
        seed,
        segment,
    } = *inputs;
    // protocol: decode the workload's own request bytes, per element.
    let mut decode = [Vec::new(), Vec::new()];
    let mut bad_decodes = 0usize;
    let mut quiet = Tracer::new(false);
    for pass in 0..DECODE_PASSES {
        let tracer: &mut Tracer = if pass == 0 { tracer } else { &mut quiet };
        for (lane, sends) in lanes.iter().enumerate() {
            let name = if lane == 0 {
                "protocol.decode_line"
            } else {
                "protocol.decode_payload"
            };
            for (n, send) in sends.iter().enumerate() {
                let payload = loadgen::payload(WIRES[lane], &send.bytes);
                let decoded = timed(
                    tracer,
                    name,
                    n as u64,
                    send.elements.len(),
                    &mut decode[lane],
                    || match WIRES[lane] {
                        loadgen::Wire::Json => {
                            protocol::decode_line(std::str::from_utf8(payload).unwrap_or(""))
                        }
                        loadgen::Wire::Bin1 => protocol::decode_payload(payload),
                    },
                );
                let elements = match decoded {
                    Decoded::Single(r) => usize::from(r.is_ok()),
                    Decoded::Batch(v) => v.iter().filter(|r| r.is_ok()).count(),
                };
                bad_decodes += send.elements.len() - elements;
            }
        }
    }
    if bad_decodes > 0 {
        return Err(format!(
            "{bad_decodes} replayed request elements failed to decode"
        ));
    }
    report.set("protocol.decode_json_us", stats::median(&decode[0]));
    report.set("protocol.decode_bin1_us", stats::median(&decode[1]));
    let elements: usize = lanes.iter().flatten().map(|s| s.elements.len()).sum();
    let bytes: usize = lanes.iter().flatten().map(|s| s.bytes.len()).sum();
    report.set("protocol.req_bytes", bytes as f64 / elements.max(1) as f64);

    // The element stream in due order.
    let mut stream: Vec<(Duration, usize)> = lanes
        .iter()
        .flatten()
        .flat_map(|s| s.elements.iter().map(move |&e| (s.due, e)))
        .collect();
    stream.sort();
    let stream: Vec<usize> = stream
        .into_iter()
        .map(|(_, e)| e)
        .filter(|e| texts.contains_key(e))
        .collect();

    // protocol: encode each element's response.
    let mut encode = Vec::new();
    for (n, &e) in stream.iter().enumerate() {
        let line = timed(
            tracer,
            "protocol.encode_success",
            n as u64,
            1,
            &mut encode,
            || protocol::encode_success("refine", Source::Cache, &texts[&e]),
        );
        std::hint::black_box(line);
    }
    report.set("protocol.encode_us", stats::median(&encode));

    // cache + persist: the key stream against an LRU at the server's
    // capacity, pre-warmed with every instance a set-up warms, writing
    // through to a scratch segment under the server's fsync policy.
    let _ = std::fs::remove_file(segment);
    let (mut store, _) = SegmentStore::open(segment, 1024, FsyncPolicy::default())
        .map_err(|e| format!("segment: {e}"))?;
    let mut cache: LruCache<CacheKey, Arc<String>> = LruCache::new(capacity);
    if warm {
        for (&e, text) in texts {
            cache.insert_for("default", instances[e].key.clone(), Arc::new(text.clone()));
        }
    }
    let (mut gets, mut inserts, mut puts) = (Vec::new(), Vec::new(), Vec::new());
    for (n, &e) in stream.iter().enumerate() {
        let key = &instances[e].key;
        let req = n as u64;
        let hit = timed(tracer, "cache.get", req, 1, &mut gets, || cache.get(key));
        if hit.is_none() {
            let value = Arc::new(texts[&e].clone());
            let evicted = timed(tracer, "cache.insert_for", req, 1, &mut inserts, || {
                cache.insert_for("default", key.clone(), value)
            });
            timed(tracer, "persist.record_put", req, 1, &mut puts, || {
                store.record_put(key, &texts[&e])
            })
            .map_err(|err| format!("segment put: {err}"))?;
            if let Some(gone) = evicted {
                tracer
                    .span("persist.record_evict", req, |_| {
                        store.record_evict(&gone.key)
                    })
                    .map_err(|err| format!("segment evict: {err}"))?;
            }
        }
    }
    tracer
        .span("persist.flush", 0, |_| store.flush())
        .map_err(|e| format!("segment flush: {e}"))?;
    drop(store);
    let _ = std::fs::remove_file(segment);
    report.set("cache.get_us", stats::median(&gets));
    report.set("cache.insert_us", stats::median(&inserts));
    report.set("persist.put_us", stats::median(&puts));

    // hints: the neighbor index, remembering each instance after its
    // lookup as the event loop does after a solve.
    let mut hints = HintIndex::new();
    let mut lookups = Vec::new();
    for (n, &e) in stream.iter().enumerate() {
        let inst = &instances[e];
        let identities = view_identities(&inst.req.view);
        let hint = timed(tracer, "hints.lookup", n as u64, 1, &mut lookups, || {
            hints.lookup(&inst.key.params, &identities)
        });
        std::hint::black_box(hint);
        let assignments = identities.iter().map(|&id| (id, 0)).collect();
        hints.remember(
            &inst.key.params,
            inst.key.view,
            strudel_server::hints::SolvedHint {
                identities,
                assignments,
            },
        );
    }
    report.set("hints.lookup_us", stats::median(&lookups));

    // flight: single-flight joins with a bounded set of keys in flight.
    let mut board: FlightBoard<CacheKey, usize> = FlightBoard::new();
    let mut open: VecDeque<CacheKey> = VecDeque::new();
    for (n, &e) in stream.iter().enumerate() {
        let key = instances[e].key.clone();
        if tracer.span("flight.join", n as u64, |_| board.join(key.clone(), n)) == BoardJoin::Lead {
            open.push_back(key);
        }
        if open.len() > 4 {
            let done = open.pop_front().expect("non-empty");
            tracer.span("flight.complete", n as u64, |_| board.complete(&done));
        }
    }

    // tenant: admission of every element for the default tenant.
    let registry = TenantRegistry::new(None, seed);
    for n in 0..stream.len() {
        let admitted = tracer.span("tenant.admit", n as u64, |_| registry.admit("default"));
        if admitted.is_err() {
            return Err("the unlimited default tenant refused an element".to_owned());
        }
    }

    handoffs(tracer)
}

/// The pool and poller hand-offs: a job's round trip through a one-worker
/// pool, and a wake/wait cycle on the backend `auto` resolves to.
fn handoffs(tracer: &mut Tracer) -> Result<(), String> {
    let pool = WorkerPool::new(1);
    let (tx, rx) = mpsc::channel();
    for n in 0..HANDOFFS {
        let tx = tx.clone();
        tracer
            .span("pool.submit", n as u64, |_| {
                pool.submit(move || {
                    let _ = tx.send(());
                });
                rx.recv()
            })
            .map_err(|_| "pool job lost".to_owned())?;
    }
    let kind = PollerKind::resolve(None).map_err(|e| format!("poller: {e}"))?;
    let mut poll = poller::open(kind, Arc::new(PollerCounters::default()))
        .map_err(|e| format!("poller: {e}"))?;
    let waker = poll.waker();
    let mut events: Vec<Event> = Vec::new();
    for n in 0..HANDOFFS {
        tracer
            .span("poller.wake_wait", n as u64, |_| {
                waker.wake();
                poll.wait(&mut events, Some(Duration::from_millis(100)))
            })
            .map_err(|e| format!("poller wait: {e}"))?;
    }
    Ok(())
}

/// The layer a span name belongs to, and its self-time metric.
fn layer_metric(name: &str) -> Option<&'static str> {
    const LAYERS: [(&str, &str); 18] = [
        ("loadgen.", "self.loadgen_ms"),
        ("server.", "self.server_ms"),
        ("protocol.", "self.protocol_ms"),
        ("poller.", "self.poller_ms"),
        ("tenant.", "self.tenant_ms"),
        ("cache.", "self.cache_ms"),
        ("persist.", "self.persist_ms"),
        ("flight.", "self.flight_ms"),
        ("hints.", "self.hints_ms"),
        ("pool.", "self.pool_ms"),
        ("trace.", "self.trace_ms"),
        ("core.engine", "self.engine_ms"),
        ("ilp.", "self.ilp_ms"),
        ("core.encode", "self.encode_ms"),
        ("core.search", "self.search_ms"),
        ("core.sigma", "self.sigma_ms"),
        ("rdf.", "self.rdf_ms"),
        ("pipeline.", "self.pipeline_ms"),
    ];
    LAYERS
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map(|l| l.1)
}

/// Self time per layer and per pass, ms: the spans' self times summed by
/// layer and divided by the `passes` the spans cover, so a metric tracks
/// the layer's cost on a fixed amount of work, whatever the time budget.
pub fn layer_self_ms(
    self_times: &BTreeMap<&'static str, SelfTime>,
    passes: usize,
) -> BTreeMap<&'static str, f64> {
    let mut per_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, t) in self_times {
        if let Some(metric) = layer_metric(name) {
            *per_layer.entry(metric).or_default() += t.self_ns as f64 / 1e6 / passes.max(1) as f64;
        }
    }
    per_layer
}

/// Reports self time per layer and per pass (see [`layer_self_ms`]) and
/// writes the spans out.
pub fn finish_trace(tracer: &Tracer, workload: &str, passes: usize, report: &mut Report) {
    let self_times = tracer.self_times();
    for (name, t) in &self_times {
        report.note(
            &format!("span.{name}"),
            format!(
                "{} calls, self {:.3} ms, total {:.3} ms",
                t.count,
                t.self_ns as f64 / 1e6,
                t.total_ns as f64 / 1e6
            ),
        );
    }
    report.note("spans.passes", passes);
    for (metric, ms) in layer_self_ms(&self_times, passes) {
        report.set(metric, ms);
    }
    let path = crate::out_dir().join(format!("spans-{workload}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note(
            "spans",
            format!("{} spans in {}", tracer.spans().len(), path.display()),
        ),
        Err(err) => report.note(
            "spans",
            format!("could not write {}: {err}", path.display()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;

    /// `passes` identical passes: a parse, and a solve containing an
    /// encode, each pass 100 ns long.
    fn passes(passes: usize) -> Vec<Span> {
        let mut spans = Vec::new();
        for n in 0..passes as u64 {
            let at = n * 100;
            let id = spans.len();
            let mut push = |parent: Option<usize>, name: &'static str, start: u64, end: u64| {
                spans.push(Span {
                    id: spans.len(),
                    parent,
                    req: n,
                    name,
                    start: at + start,
                    end: at + end,
                })
            };
            push(None, "pipeline.pass", 0, 100);
            push(Some(id), "rdf.ntriples.parse", 0, 40);
            push(Some(id), "ilp.solver.refine_with_hint", 40, 90);
            push(Some(id + 2), "core.encode", 40, 60);
        }
        spans
    }

    #[test]
    fn self_time_per_pass_does_not_grow_with_the_budget() {
        let once = layer_self_ms(&crate::spans::self_times(&passes(3)), 3);
        let twice = layer_self_ms(&crate::spans::self_times(&passes(6)), 6);
        assert_eq!(once, twice);
        assert_eq!(once["self.rdf_ms"], 40e-6);
        assert_eq!(once["self.ilp_ms"], 30e-6);
        assert_eq!(once["self.encode_ms"], 20e-6);
        assert_eq!(once["self.pipeline_ms"], 10e-6);
    }
}
