//! The `paper-pipeline` workload: the paper's Section 7 experiment run
//! in-process and single-threaded, with no server.
//!
//! Set-up materialises seeded N-Triples text for scaled DBpedia Persons and
//! WordNet Nouns. One timed pass then runs, per dataset,
//! `parse_ntriples` → `PropertyStructureView::from_sort` →
//! `SignatureView::from_matrix` → σ for Cov/Sim/Dep/SymDep plus the Table-1
//! `dependency_matrix` → Cov `lowest_k` (upward, θ = 9/10, bounded k) and
//! Cov `highest_theta` at k = 2, both with the ILP engine and no limits.
//! Every probe of that grid decides, so every answer is exact and is
//! checked against the value stored below.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use strudel_core::dependency::dependency_matrix;
use strudel_core::encode::{encode, EncodingConfig};
use strudel_core::engine::{IlpEngine, RefineOutcome, RefinementEngine};
use strudel_core::error::RefineError;
use strudel_core::refinement::SortRefinement;
use strudel_core::search::{highest_theta, lowest_k, HighestThetaOptions, SweepDirection};
use strudel_core::sigma::SigmaSpec;
use strudel_datagen::materialize::materialize_graph;
use strudel_datagen::{dbpedia, wordnet};
use strudel_rdf::matrix::PropertyStructureView;
use strudel_rdf::ntriples::{parse_ntriples, write_ntriples};
use strudel_rdf::rng::StdRng;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;

use crate::report::{Report, Tally};
use crate::spans::Tracer;
use crate::stats;

/// θ of the lowest-k sweep.
const LOWEST_K_THETA: (i128, i128) = (9, 10);
/// k of the highest-θ search.
const HIGHEST_THETA_K: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// One dataset of the pass, with the answers every pass must reproduce.
struct DatasetSpec {
    name: &'static str,
    sort: &'static str,
    /// Signature counts are divided by this (rounded up).
    scale: u64,
    build: fn(u64) -> SignatureView,
    /// The Dep/SymDep property pair.
    dep: (&'static str, &'static str),
    /// Columns of the Table-1 dependency matrix.
    dep_columns: &'static [&'static str],
    /// Upper end of the lowest-k sweep; every probe up to it decides.
    max_k: usize,
    /// θ grid step of the highest-θ search; every probe on it decides.
    theta_step: (i128, i128),
    /// Exact answers: lowest k (None = no refinement with k ≤ max_k) and
    /// highest θ at k = 2, as `numerator/denominator`.
    lowest_k: Option<usize>,
    highest_theta: &'static str,
}

const DATASETS: [DatasetSpec; 2] = [
    DatasetSpec {
        name: "dbpedia_persons",
        sort: dbpedia::PERSON_SORT,
        scale: 128,
        build: dbpedia::dbpedia_persons_scaled,
        dep: (
            dbpedia::properties::DEATH_PLACE,
            dbpedia::properties::DEATH_DATE,
        ),
        dep_columns: &[
            dbpedia::properties::DEATH_PLACE,
            dbpedia::properties::BIRTH_PLACE,
            dbpedia::properties::DEATH_DATE,
            dbpedia::properties::BIRTH_DATE,
        ],
        max_k: 4,
        theta_step: (1, 20),
        lowest_k: None,
        highest_theta: "13/20",
    },
    DatasetSpec {
        name: "wordnet_nouns",
        sort: wordnet::NOUN_SORT,
        scale: 16,
        build: wordnet::wordnet_nouns_scaled,
        dep: (wordnet::properties::HYPONYM_OF, wordnet::properties::GLOSS),
        dep_columns: &[
            wordnet::properties::GLOSS,
            wordnet::properties::LABEL,
            wordnet::properties::HYPONYM_OF,
            wordnet::properties::MEMBER_MERONYM_OF,
        ],
        max_k: 5,
        theta_step: (1, 10),
        lowest_k: None,
        highest_theta: "3/5",
    },
];

/// A dataset materialised for the pass.
pub struct Dataset {
    spec: &'static DatasetSpec,
    /// The generator's view: the parsed view must equal it.
    view: SignatureView,
    /// Seeded N-Triples text.
    text: String,
    triples: usize,
}

/// Builds the pass inputs: each dataset's view materialised as N-Triples
/// with seeded literal values and a seeded line order.
pub fn setup(seed: u64) -> Vec<Dataset> {
    DATASETS
        .iter()
        .enumerate()
        .map(|(idx, spec)| {
            let view = (spec.build)(spec.scale);
            let graph =
                materialize_graph(&view, spec.sort, "http://bench.example/", seed ^ idx as u64);
            let text = write_ntriples(&graph);
            let mut lines: Vec<&str> = text.lines().collect();
            StdRng::seed_from_u64(seed.wrapping_add(idx as u64)).shuffle(&mut lines);
            let mut shuffled = lines.join("\n");
            shuffled.push('\n');
            Dataset {
                spec,
                view,
                triples: lines.len(),
                text: shuffled,
            }
        })
        .collect()
}

/// A view as a sorted list of (property names, subject count): equal for
/// two views of one dataset whatever their column and entry order.
fn canonical(view: &SignatureView) -> Vec<(Vec<&str>, usize)> {
    let mut entries: Vec<(Vec<&str>, usize)> = view
        .entries()
        .iter()
        .map(|e| {
            let mut names: Vec<&str> = e
                .signature
                .iter()
                .map(|c| view.properties()[c].as_str())
                .collect();
            names.sort_unstable();
            (names, e.count)
        })
        .collect();
    entries.sort_unstable();
    entries
}

/// One probe of a search, timed by the engine wrapper.
#[derive(Clone, Debug)]
pub struct Probe {
    pub start: Instant,
    pub end: Instant,
    /// The probe's instance: its dataset (index in the pass), rule, k, θ.
    pub dataset: usize,
    pub spec: SigmaSpec,
    pub k: usize,
    pub theta: Ratio,
    /// Encoding replayed on the probe's instance after a traced pass (see
    /// [`replay_encodes`]): start, end, variables, rows.
    pub encode: Option<(Instant, Instant, usize, usize)>,
    pub solve: (Instant, Instant),
    pub feasible: Option<bool>,
    pub nodes: u64,
    pub propagations: u64,
    pub conflicts: u64,
}

/// The ILP engine behind a timing wrapper: each `refine` the search layer
/// makes is recorded as a probe with the solver's statistics. The wrapper
/// adds only the clock reads.
pub struct ProbeEngine {
    engine: IlpEngine,
    dataset: usize,
    probes: RefCell<Vec<Probe>>,
}

impl ProbeEngine {
    pub fn new(dataset: usize) -> Self {
        ProbeEngine {
            engine: IlpEngine::new(),
            dataset,
            probes: RefCell::new(Vec::new()),
        }
    }

    pub fn take(&self) -> Vec<Probe> {
        std::mem::take(&mut self.probes.borrow_mut())
    }
}

impl RefinementEngine for ProbeEngine {
    fn name(&self) -> &'static str {
        "ilp"
    }

    fn refine(
        &self,
        view: &SignatureView,
        spec: &SigmaSpec,
        k: usize,
        theta: Ratio,
    ) -> Result<RefineOutcome, RefineError> {
        let start = Instant::now();
        let solve_start = Instant::now();
        let (outcome, solve_stats) = self.engine.refine_with_hint(view, spec, k, theta, None)?;
        let end = Instant::now();
        self.probes.borrow_mut().push(Probe {
            start,
            end,
            dataset: self.dataset,
            spec: spec.clone(),
            k,
            theta,
            encode: None,
            solve: (solve_start, end),
            feasible: match &outcome {
                RefineOutcome::Refinement(_) => Some(true),
                RefineOutcome::Infeasible => Some(false),
                RefineOutcome::Unknown => None,
            },
            nodes: solve_stats.nodes,
            propagations: solve_stats.propagations,
            conflicts: solve_stats.conflicts,
        });
        Ok(outcome)
    }
}

/// Checks a refinement independently of the engine that found it: its
/// sorts (lists of signature indexes) partition the view's signatures,
/// there are at most `k`, and σ re-evaluated on each sort's subset meets θ.
pub fn check_sorts<'a>(
    view: &SignatureView,
    spec: &SigmaSpec,
    sorts: impl ExactSizeIterator<Item = &'a [usize]>,
    k: usize,
    theta: Ratio,
) -> Result<(), String> {
    if sorts.len() > k {
        return Err(format!("{} sorts exceed k = {k}", sorts.len()));
    }
    let mut seen = vec![false; view.signature_count()];
    for signatures in sorts {
        if signatures.is_empty() {
            return Err("an empty sort".to_owned());
        }
        for &sig in signatures {
            if sig >= seen.len() || std::mem::replace(&mut seen[sig], true) {
                return Err(format!("signature {sig} is unknown or assigned twice"));
            }
        }
        let sigma = spec
            .evaluate(&view.subset(signatures))
            .map_err(|err| err.to_string())?;
        if sigma < theta {
            return Err(format!("a sort has σ = {sigma} < θ = {theta}"));
        }
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        return Err(format!("signature {missing} is in no sort"));
    }
    Ok(())
}

/// [`check_sorts`] on a refinement.
fn check_refinement(
    view: &SignatureView,
    spec: &SigmaSpec,
    refinement: &SortRefinement,
    k: usize,
    theta: Ratio,
) -> Result<(), String> {
    let sorts = refinement.sorts.iter().map(|s| s.signatures.as_slice());
    check_sorts(view, spec, sorts, k, theta)
}

/// Per-layer timings of one pass.
#[derive(Clone, Debug, Default)]
pub struct PassTimes {
    pub total: Duration,
    /// Thread CPU time of the pass, in seconds.
    pub cpu_s: f64,
    pub parse: Duration,
    pub matrix: Duration,
    pub view: Duration,
    pub sigma: Duration,
    pub triples: usize,
    pub probes: Vec<Probe>,
    /// Each dataset's parsed view, by dataset index (traced passes only),
    /// for [`replay_encodes`].
    pub views: Vec<(usize, SignatureView)>,
}

/// Runs one pass over every dataset, checking every answer into `tally`.
pub fn pass(datasets: &[Dataset], tracer: &mut Tracer, req: u64, tally: &mut Tally) -> PassTimes {
    let mut times = PassTimes::default();
    let begin = Instant::now();
    let cpu = stats::thread_cpu_s();
    tracer.span("pipeline.pass", req, |t| {
        for (idx, data) in datasets.iter().enumerate() {
            dataset_pass(idx, data, t, req, tally, &mut times);
        }
    });
    times.cpu_s = stats::thread_cpu_s() - cpu;
    times.total = begin.elapsed();
    times
}

/// Replays `encode` on every probe's instance of a traced pass, after the
/// pass has been timed: the pass itself does no extra work, and the
/// encodings are timed on their own.
pub fn replay_encodes(times: &mut PassTimes, tracer: &mut Tracer, req: u64) {
    let views = std::mem::take(&mut times.views);
    for p in &mut times.probes {
        let Some((_, view)) = views.iter().find(|v| v.0 == p.dataset) else {
            continue;
        };
        let begin = Instant::now();
        let encoding = tracer.span("core.encode", req, |_| {
            encode(
                view,
                &p.spec.rule(),
                p.k,
                p.theta,
                &EncodingConfig::default(),
            )
        });
        let end = Instant::now();
        if let Ok(encoding) = encoding {
            let size = (encoding.model.num_vars(), encoding.model.num_constraints());
            p.encode = Some((begin, end, size.0, size.1));
        }
    }
}

fn timed<T>(
    t: &mut Tracer,
    name: &'static str,
    req: u64,
    total: &mut Duration,
    f: impl FnOnce() -> T,
) -> T {
    let begin = Instant::now();
    let out = t.span(name, req, |_| f());
    *total += begin.elapsed();
    out
}

fn dataset_pass(
    idx: usize,
    data: &Dataset,
    t: &mut Tracer,
    req: u64,
    tally: &mut Tally,
    times: &mut PassTimes,
) {
    let spec = data.spec;
    let graph = timed(t, "rdf.ntriples.parse", req, &mut times.parse, || {
        parse_ntriples(&data.text)
    });
    let graph = match graph {
        Ok(graph) => graph,
        Err(err) => return tally.fail(format!("{}: parse failed: {err}", spec.name)),
    };
    times.triples += graph.len();
    tally.check(graph.len() == data.triples, || {
        format!(
            "{}: parsed {} of {} triples",
            spec.name,
            graph.len(),
            data.triples
        )
    });
    let matrix = timed(t, "rdf.matrix.from_sort", req, &mut times.matrix, || {
        PropertyStructureView::from_sort(&graph, spec.sort, true)
    });
    drop(graph);
    let matrix = match matrix {
        Ok(matrix) => matrix,
        Err(err) => return tally.fail(format!("{}: M(D) failed: {err}", spec.name)),
    };
    let view = timed(t, "rdf.signature.from_matrix", req, &mut times.view, || {
        SignatureView::from_matrix(&matrix)
    });
    drop(matrix);
    tally.check(canonical(&view) == canonical(&data.view), || {
        format!(
            "{}: parsed signature view differs from the generated one",
            spec.name
        )
    });

    let (p1, p2) = (spec.dep.0.to_owned(), spec.dep.1.to_owned());
    let specs = [
        SigmaSpec::Coverage,
        SigmaSpec::Similarity,
        SigmaSpec::Dependency {
            p1: p1.clone(),
            p2: p2.clone(),
        },
        SigmaSpec::SymDependency { p1, p2 },
    ];
    let columns: Vec<usize> = spec
        .dep_columns
        .iter()
        .filter_map(|p| view.property_index(p))
        .collect();
    let (sigmas, matrix) = timed(t, "core.sigma.evaluate", req, &mut times.sigma, || {
        let sigmas: Vec<_> = specs.iter().map(|s| s.evaluate(&view)).collect();
        (sigmas, dependency_matrix(&view, &columns))
    });
    for (s, sigma) in specs.iter().zip(&sigmas) {
        match sigma {
            Ok(value) => tally.check(*value >= Ratio::ZERO && *value <= Ratio::ONE, || {
                format!("{}: σ_{} = {value} is outside [0,1]", spec.name, s.name())
            }),
            Err(err) => tally.fail(format!("{}: σ_{} failed: {err}", spec.name, s.name())),
        }
    }
    tally.check(
        columns.len() == spec.dep_columns.len()
            && matrix
                .iter()
                .enumerate()
                .all(|(i, row)| row[i] == Ratio::ONE),
        || format!("{}: dependency matrix diagonal is not 1", spec.name),
    );

    let cov = SigmaSpec::Coverage;
    let theta = Ratio::new(LOWEST_K_THETA.0, LOWEST_K_THETA.1);
    let engine = ProbeEngine::new(idx);
    let mut search =
        |t: &mut Tracer, name: &'static str, probes: Vec<Probe>, begin: Instant, end: Instant| {
            let id = t.record(name, req, None, begin, end);
            for p in probes {
                let pid = t.record("core.engine.refine", req, id, p.start, p.end);
                t.record(
                    "ilp.solver.refine_with_hint",
                    req,
                    pid,
                    p.solve.0,
                    p.solve.1,
                );
                times.probes.push(p);
            }
        };

    let begin = Instant::now();
    let low = lowest_k(
        &view,
        &cov,
        theta,
        &engine,
        SweepDirection::Upward,
        Some(spec.max_k),
    );
    search(
        t,
        "core.search.lowest_k",
        engine.take(),
        begin,
        Instant::now(),
    );
    match low {
        Ok(low) => {
            tally.check(!low.hit_budget && low.k == spec.lowest_k, || {
                format!(
                    "{}: lowest k = {:?}, expected {:?}",
                    spec.name, low.k, spec.lowest_k
                )
            });
            if let (Some(k), Some(r)) = (low.k, &low.refinement) {
                tally.result(check_refinement(&view, &cov, r, k, theta), spec.name);
            }
        }
        Err(err) => tally.fail(format!("{}: lowest_k failed: {err}", spec.name)),
    }

    let begin = Instant::now();
    let options = HighestThetaOptions {
        step: Ratio::new(spec.theta_step.0, spec.theta_step.1),
        start: None,
    };
    let high = highest_theta(&view, &cov, HIGHEST_THETA_K, &engine, &options);
    search(
        t,
        "core.search.highest_theta",
        engine.take(),
        begin,
        Instant::now(),
    );
    match high {
        Ok(high) => {
            tally.check(
                !high.hit_budget && high.theta.to_string() == spec.highest_theta,
                || {
                    format!(
                        "{}: highest θ = {}, expected {}",
                        spec.name, high.theta, spec.highest_theta
                    )
                },
            );
            match &high.refinement {
                Some(r) => tally.result(
                    check_refinement(&view, &cov, r, HIGHEST_THETA_K, high.theta),
                    spec.name,
                ),
                None => tally.fail(format!("{}: highest θ returned no refinement", spec.name)),
            }
        }
        Err(err) => tally.fail(format!("{}: highest_theta failed: {err}", spec.name)),
    }
    if t.enabled() {
        times.views.push((idx, view));
    }
}

/// Runs the workload: passes until `seconds` have been measured (at least
/// three), reporting the median pass and the per-layer split.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let (mut setups, mut setup_walls) = (Vec::new(), Vec::new());
    let mut datasets = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut datasets));
        let before = stats::calibrate();
        let begin = Instant::now();
        let cpu = stats::process_cpu_s();
        datasets = setup(seed);
        let cpu = stats::process_cpu_s() - cpu;
        setup_walls.push(begin.elapsed().as_secs_f64());
        setups.push(stats::at_reference_speed(cpu, before, stats::calibrate()));
    }
    report.setup_s = stats::median(&setups);
    report.note("setup_s.wall", format!("{setup_walls:.4?}"));
    report.note(
        "triples",
        datasets.iter().map(|d| d.triples).sum::<usize>() as f64,
    );

    let mut tracer = Tracer::new(traced);
    let mut tally = Tally::default();
    let mut passes: Vec<PassTimes> = Vec::new();
    // A traced run alternates untraced passes with traced ones: the
    // untraced medians are the base of the tracing overhead.
    let mut untraced = Tracer::new(false);
    let mut base: Vec<f64> = Vec::new();
    let mut pass_times: Vec<f64> = Vec::new();
    let begin = Instant::now();
    while passes.len() < 3 || begin.elapsed().as_secs_f64() < seconds {
        let req = passes.len() as u64 + 1;
        if traced {
            base.push(
                pass(&datasets, &mut untraced, req, &mut tally)
                    .total
                    .as_secs_f64(),
            );
        }
        let before = stats::calibrate();
        let mut times = pass(&datasets, &mut tracer, req, &mut tally);
        pass_times.push(stats::at_reference_speed(
            times.cpu_s,
            before,
            stats::calibrate(),
        ));
        if traced {
            replay_encodes(&mut times, &mut tracer, req);
        }
        passes.push(times);
    }
    report.tally = tally;
    let totals: Vec<f64> = passes.iter().map(|p| p.total.as_secs_f64()).collect();
    report.pipeline(&totals);
    report.set("pipeline_s", stats::median(&pass_times));
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    report.note("pipeline_s.cpu_passes", format!("{cpus:.4?}"));
    report.note("pipeline_s.wall_passes", format!("{totals:.4?}"));
    if traced {
        layer_metrics(&passes, report);
        let traced_median = stats::median(&totals);
        report.set(
            "trace.overhead_share",
            traced_median / stats::median(&base) - 1.0,
        );
        crate::replay::finish_trace(&tracer, "paper-pipeline", passes.len(), report);
    }
}

/// Per-layer metrics: medians over passes of each layer's time, and the
/// probe statistics of the first pass (every pass probes the same grid).
fn layer_metrics(passes: &[PassTimes], report: &mut Report) {
    let med =
        |f: &dyn Fn(&PassTimes) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    report.set("rdf.parse_s", med(&|p| p.parse.as_secs_f64()));
    report.set(
        "rdf.triples_per_s",
        med(&|p| p.triples as f64 / p.parse.as_secs_f64()),
    );
    report.set("rdf.matrix_s", med(&|p| p.matrix.as_secs_f64()));
    report.set("rdf.view_ms", med(&|p| p.view.as_secs_f64() * 1e3));
    report.set("sigma.eval_ms", med(&|p| p.sigma.as_secs_f64() * 1e3));
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    report.set(
        "encode.ms",
        med(&|p| {
            p.probes
                .iter()
                .filter_map(|q| q.encode.map(|e| ms(e.0, e.1)))
                .sum()
        }),
    );
    let probes = &passes[0].probes;
    report.set(
        "encode.vars",
        probes
            .iter()
            .filter_map(|q| q.encode.map(|e| e.2))
            .sum::<usize>() as f64,
    );
    report.set(
        "encode.rows",
        probes
            .iter()
            .filter_map(|q| q.encode.map(|e| e.3))
            .sum::<usize>() as f64,
    );
    report.set("search.probes", probes.len() as f64);
    report.set(
        "search.infeasible_s",
        med(&|p| {
            p.probes
                .iter()
                .filter(|q| q.feasible == Some(false))
                .map(|q| (q.end - q.start).as_secs_f64())
                .sum()
        }),
    );
    report.set(
        "search.probe_ms_max",
        med(&|p| {
            p.probes
                .iter()
                .map(|q| ms(q.start, q.end))
                .fold(0.0, f64::max)
        }),
    );
    let solve_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.probes.iter().map(|q| ms(q.solve.0, q.solve.1)))
        .collect();
    let sorted = stats::sorted(&solve_ms);
    report.set(
        "engine.solve_ms_p50",
        stats::percentile(&sorted, 50.0).unwrap_or(0.0),
    );
    report.set("engine.solve_ms_p99", stats::tail(&sorted).value);
    let nodes: u64 = probes.iter().map(|q| q.nodes).sum();
    report.set("ilp.nodes", nodes as f64);
    report.set(
        "ilp.propagations",
        probes.iter().map(|q| q.propagations).sum::<u64>() as f64,
    );
    report.set(
        "ilp.conflicts",
        probes.iter().map(|q| q.conflicts).sum::<u64>() as f64,
    );
    let first_solve_us: f64 = probes.iter().map(|q| ms(q.solve.0, q.solve.1)).sum::<f64>() * 1e3;
    report.set("ilp.us_per_node", first_solve_us / nodes.max(1) as f64);
}
