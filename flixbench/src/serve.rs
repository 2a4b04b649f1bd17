//! `serve-proximity`: "top-10 within distance 3" requests through a
//! 2-worker `FlixServer` over `CachedFlix` over the paper-scale DBLP corpus
//! indexed `Naive` (one meta document per publication).
//!
//! One client, the calling thread, runs a closed loop with a fixed window
//! of requests outstanding. The request stream is Zipf-skewed over a few
//! thousand distinct seeded requests, so the cache's head fits and its
//! tail misses. A pass replays the same stream; the cache carries over
//! from the untimed warm-up pass.
//!
//! [`probe`] runs the same served stack over another workload's index, so
//! that its traced run reports the serve and cache layers too.

use crate::corpus::{self, Corpus, SetupTimes};
use crate::hopi::pee_metrics;
use crate::oracle::{self, Bfs};
use crate::stats::{self, median, percentile, ratio, us};
use crate::trace::Tracer;
use crate::{timed, Args, Report};
use flix::{CacheStats, CachedFlix, Flix, FlixConfig, PeeStats, QueryOptions, QueryResult};
use flixserve::{FlixServer, Request, Response, ServeConfig, ServeStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;
use xmlgraph::CollectionGraph;

const SCALE: f64 = 1.0;
const CONFIG: FlixConfig = FlixConfig::Naive;
/// Distinct requests the stream draws from.
const DISTINCT: usize = 4_096;
/// Query-cache entries.
const CACHE: usize = 1_024;
/// Zipf exponent of the request stream.
const ZIPF_S: f64 = 1.0;
/// Requests per pass.
const STREAM: usize = 24_576;
const WORKERS: usize = 2;
/// Requests the client keeps outstanding.
const WINDOW: usize = 4;
const K: usize = 10;
const CAP: u32 = 3;
/// The cap of the probe's requests: none. The capped-subsumption fault
/// would fail capped top-k answers on a HOPI index.
const UNCAPPED: u32 = u32::MAX;
/// Set-ups before the warm-up pass, and one more after every
/// [`PASSES_PER_SETUP`] timed passes; `setup_s` is the median of all.
const SETUP_REPS: usize = 5;
const PASSES_PER_SETUP: u64 = 8;
const MIN_PASSES: usize = 2;

/// A top-`K` request, within `cap` unless it is [`UNCAPPED`].
fn opts(cap: u32) -> QueryOptions {
    QueryOptions {
        max_results: Some(K),
        max_distance: (cap != UNCAPPED).then_some(cap),
        ..QueryOptions::default()
    }
}

/// The distinct requests and the seeded Zipf stream over them.
fn make_inputs(cg: &CollectionGraph, seed: u64) -> (Vec<(u32, u32)>, Vec<u32>) {
    let distinct: Vec<(u32, u32)> = workloads::descendant_queries(cg, DISTINCT, seed)
        .iter()
        .map(|q| (q.start, q.target_tag))
        .collect();
    let mut cdf = Vec::with_capacity(distinct.len());
    let mut total = 0.0;
    for rank in 1..=distinct.len() {
        total += 1.0 / (rank as f64).powf(ZIPF_S);
        cdf.push(total);
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x21_9F);
    let stream = (0..STREAM)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            cdf.partition_point(|&c| c < u).min(distinct.len() - 1) as u32
        })
        .collect();
    (distinct, stream)
}

/// One answered request: which, how long the client waited, the response.
struct Answer {
    request: u32,
    ns: u64,
    response: Response,
}

/// Runs the stream once through the server from the calling thread, a
/// closed loop with `WINDOW` requests outstanding; returns the answers and
/// the pass's wall time. Requests the server sheds are failed operations.
fn pass(
    server: &FlixServer,
    distinct: &[(u32, u32)],
    stream: &[u32],
    cap: u32,
    tr: &mut Tracer,
    pass_no: u64,
    rep: &mut Report,
) -> (Vec<Answer>, u64) {
    let started = Instant::now();
    let mut answers = Vec::with_capacity(stream.len());
    let mut window: VecDeque<(u32, u64, Instant, flixserve::Ticket)> = VecDeque::new();
    let mut next = 0;
    rep.attempt(stream.len() as u64);
    loop {
        while window.len() < WINDOW && next < stream.len() {
            let idx = stream[next];
            let (start, tag) = distinct[idx as usize];
            let id = pass_no * stream.len() as u64 + next as u64;
            next += 1;
            let t = Instant::now();
            match server.submit(Request::descendants(start, tag, opts(cap))) {
                Ok(ticket) => window.push_back((idx, id, t, ticket)),
                Err(_) => rep.fail(),
            }
        }
        let Some((request, id, t, ticket)) = window.pop_front() else {
            break;
        };
        let waited = ticket.wait();
        let end = Instant::now();
        tr.record("serve.request", id, t, end);
        match waited {
            Ok(response) => answers.push(Answer {
                request,
                ns: (end - t).as_nanos() as u64,
                response,
            }),
            Err(_) => rep.fail(),
        }
    }
    (answers, started.elapsed().as_nanos() as u64)
}

/// Checks every answer after the pass: one already verified passes,
/// any other goes to the oracle.
fn check(
    cg: &CollectionGraph,
    distinct: &[(u32, u32)],
    cap: u32,
    verified: &mut [Option<Arc<Vec<QueryResult>>>],
    answers: &[Answer],
    bfs: &mut Bfs,
    rep: &mut Report,
) {
    for a in answers {
        let slot = &mut verified[a.request as usize];
        if slot.as_ref().is_some_and(|v| **v == *a.response.results) {
            continue;
        }
        let (start, tag) = distinct[a.request as usize];
        bfs.run(&cg.graph, start, cap);
        match oracle::check_topk(cg, bfs, start, tag, cap, K, &a.response.results) {
            Ok(()) => *slot = Some(Arc::clone(&a.response.results)),
            Err(e) => rep.wrong(format!("served {start}//{tag}"), e),
        }
    }
}

struct Setup {
    flix: Arc<Flix>,
    cache: Arc<CachedFlix>,
    server: FlixServer,
}

/// The served stack over `flix`: the query cache behind the worker pool.
fn stack(flix: &Arc<Flix>) -> (Arc<CachedFlix>, FlixServer) {
    let cache = Arc::new(CachedFlix::new(Arc::clone(flix), CACHE));
    let server = FlixServer::start(
        Arc::clone(&cache),
        ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        },
    );
    (cache, server)
}

fn set_up() -> Result<(Setup, Corpus, u64), String> {
    let corpus = corpus::dblp(SCALE);
    let (flix, build_ns) = corpus::build_index(&corpus.cg, CONFIG);
    let flix = Arc::new(flix);
    let (cache, server) = stack(&flix);
    Ok((
        Setup {
            flix,
            cache,
            server,
        },
        corpus,
        build_ns,
    ))
}

/// Direct single-thread replay of the stream on a fresh cache: median µs
/// of hits and of misses.
fn cache_replay(
    flix: &Arc<Flix>,
    distinct: &[(u32, u32)],
    stream: &[u32],
    cap: u32,
    tr: &mut Tracer,
) -> (f64, f64) {
    let cache = CachedFlix::new(Arc::clone(flix), CACHE);
    let o = opts(cap);
    for &i in stream {
        let (start, tag) = distinct[i as usize];
        std::hint::black_box(cache.find_descendants(start, tag, &o));
    }
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for (n, &i) in stream.iter().enumerate() {
        let (start, tag) = distinct[i as usize];
        let hits = cache.cache_stats().hits;
        let span = tr.begin("cache.lookup", n as u64);
        let (r, ns) = timed(|| cache.find_descendants(start, tag, &o));
        tr.end(span);
        std::hint::black_box(r);
        if cache.cache_stats().hits > hits {
            hit.push(ns as f64 / 1e3);
        } else {
            miss.push(ns as f64 / 1e3);
        }
    }
    (median(&mut hit), median(&mut miss))
}

/// Mean of the slowest 1% of `samples` (at least one): the tail of a
/// distribution whose values are whole microseconds, where a percentile
/// would read the same integer run after run.
fn tail_mean(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| b.total_cmp(a));
    let n = (samples.len() / 100).max(1).min(samples.len());
    ratio(samples[..n].iter().sum(), n as f64)
}

/// Reports the serve and cache layers of a traced pass: its answers, the
/// cache and server counters before and after it, and a single-thread
/// cache replay of the stream.
#[allow(clippy::too_many_arguments)]
fn report_layers(
    rep: &mut Report,
    flix: &Arc<Flix>,
    distinct: &[(u32, u32)],
    stream: &[u32],
    cap: u32,
    answers: &[Answer],
    cache: (CacheStats, CacheStats),
    serve: (ServeStats, ServeStats),
    tr: &mut Tracer,
) {
    let (c0, c1) = cache;
    let hits = (c1.hits - c0.hits) as f64;
    let misses = (c1.misses - c0.misses) as f64;
    rep.metric("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    rep.metric(
        "cache.evictions",
        (c1.evictions - c0.evictions) as f64,
        "count",
    );
    rep.metric(
        "cache.rejected",
        (c1.rejected - c0.rejected) as f64,
        "count",
    );
    let (hit_us, miss_us) = cache_replay(flix, distinct, stream, cap, tr);
    rep.metric("cache.hit_us", hit_us, "us");
    rep.metric("cache.miss_us", miss_us, "us");
    let mut queue_us: Vec<f64> = answers
        .iter()
        .map(|a| a.response.queue_micros as f64)
        .collect();
    let mut handoff_us: Vec<f64> = answers
        .iter()
        .map(|a| a.ns as f64 / 1e3 - a.response.total_micros as f64)
        .collect();
    let mean = ratio(queue_us.iter().sum(), queue_us.len() as f64);
    rep.metric("serve.queue_wait_mean_us", mean, "us");
    rep.metric("serve.queue_wait_tail_us", tail_mean(&mut queue_us), "us");
    rep.metric("serve.handoff_us", median(&mut handoff_us), "us");
    let (s0, s1) = serve;
    rep.metric(
        "serve.collapsed",
        (s1.collapsed - s0.collapsed) as f64,
        "count",
    );
    rep.metric("serve.shed", (s1.shed - s0.shed) as f64, "count");
}

/// The serve and cache layers over another workload's index: a fresh
/// served stack answers a seeded uncapped top-10 stream over its corpus
/// once untimed, then once traced. The probe's requests are not the
/// workload's operations and are not counted, but their answers are
/// checked, and a shed request is an error.
pub fn probe(flix: &Arc<Flix>, seed: u64, tr: &mut Tracer, rep: &mut Report) {
    let cg = flix.collection_arc();
    let (distinct, stream) = make_inputs(&cg, seed);
    let (cache, server) = stack(flix);
    let mut verified: Vec<Option<Arc<Vec<QueryResult>>>> = vec![None; distinct.len()];
    let mut bfs = Bfs::default();
    let mut probe_rep = Report::default();
    let mut off = Tracer::new(false, Instant::now());
    let (answers, _) = pass(
        &server,
        &distinct,
        &stream,
        UNCAPPED,
        &mut off,
        0,
        &mut probe_rep,
    );
    check(
        &cg,
        &distinct,
        UNCAPPED,
        &mut verified,
        &answers,
        &mut bfs,
        &mut probe_rep,
    );
    let before = (cache.cache_stats(), server.stats());
    let (answers, _) = pass(&server, &distinct, &stream, UNCAPPED, tr, 1, &mut probe_rep);
    let after = (cache.cache_stats(), server.stats());
    server.shutdown();
    check(
        &cg,
        &distinct,
        UNCAPPED,
        &mut verified,
        &answers,
        &mut bfs,
        &mut probe_rep,
    );
    if probe_rep.failed > 0 {
        rep.wrong("serve probe", format!("{} requests shed", probe_rep.failed));
    }
    rep.errors.append(&mut probe_rep.errors);
    report_layers(
        rep,
        flix,
        &distinct,
        &stream,
        UNCAPPED,
        &answers,
        (before.0, after.0),
        (before.1, after.1),
        tr,
    );
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let (made, corpus, mut setup) = match SetupTimes::repeat(SETUP_REPS, set_up) {
        Ok(made) => made,
        Err(e) => {
            rep.wrong("set-up", e);
            return rep;
        }
    };
    let Setup {
        flix,
        cache,
        server,
    } = made;
    let cg = corpus.cg.clone();
    let (distinct, stream) = make_inputs(&cg, args.seed);
    let mut verified: Vec<Option<Arc<Vec<QueryResult>>>> = vec![None; distinct.len()];
    let mut bfs = Bfs::default();
    let origin = Instant::now();

    // Untimed warm-up pass: fills the cache; its answers are checked too.
    let mut scratch = Report::default();
    let mut off = Tracer::new(false, origin);
    let (answers, _) = pass(&server, &distinct, &stream, CAP, &mut off, 0, &mut scratch);
    check(
        &cg,
        &distinct,
        CAP,
        &mut verified,
        &answers,
        &mut bfs,
        &mut rep,
    );
    rep.errors.append(&mut scratch.errors);

    let mut tr = Tracer::new(args.trace, origin);
    // Per-pass latency percentiles; a traced run traces the first timed
    // pass only and keeps its answers for the serve layer's metrics.
    let (mut p50s, mut p90s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut walls: Vec<f64> = Vec::new();
    let mut traced_pass = None;
    let mut peak_rss_mb = 0.0;
    let run_start = Instant::now();
    while walls.len() < MIN_PASSES || run_start.elapsed() < args.budget() {
        let n = walls.len() as u64 + 1;
        let traced = args.trace && n == 1;
        let before = (cache.cache_stats(), server.stats());
        let pass_tr = if traced { &mut tr } else { &mut off };
        let (answers, wall) = pass(&server, &distinct, &stream, CAP, pass_tr, n, &mut rep);
        walls.push(wall as f64);
        let mut lat: Vec<u64> = answers.iter().map(|a| a.ns).collect();
        p50s.push(us(percentile(&mut lat, 0.50)));
        p90s.push(us(percentile(&mut lat, 0.90)));
        p99s.push(us(percentile(&mut lat, 0.99)));
        check(
            &cg,
            &distinct,
            CAP,
            &mut verified,
            &answers,
            &mut bfs,
            &mut rep,
        );
        if traced {
            let after = (cache.cache_stats(), server.stats());
            traced_pass = Some((answers, before, after));
        }
        // The peak before the repeated set-ups, which build a second
        // corpus, index and server beside the first.
        if n == 1 {
            peak_rss_mb = stats::peak_rss_mb();
        }
        if n % PASSES_PER_SETUP == 0 {
            if let Err(e) = setup.again(set_up) {
                rep.wrong("set-up", e);
                return rep;
            }
        }
    }
    server.shutdown();

    if let Some((answers, before, after)) = traced_pass {
        crate::overhead_line(walls[0] as u64, &mut walls[1..].to_vec());
        setup.report_layers(&mut rep, flix.build_report());
        rep.metric("flix.metas", flix.meta_count() as f64, "count");
        report_layers(
            &mut rep,
            &flix,
            &distinct,
            &stream,
            CAP,
            &answers,
            (before.0, after.0),
            (before.1, after.1),
            &mut tr,
        );
        // What a cache miss evaluates: the full answer within the cap.
        let miss_opts = QueryOptions::within(CAP);
        let (mut pee, mut results) = (PeeStats::default(), 0usize);
        for (n, &(start, tag)) in distinct.iter().enumerate() {
            let span = tr.begin("pee.descendants", n as u64);
            let s = flix.for_each_descendant_traced(start, tag, &miss_opts, |_, _| {
                results += 1;
                ControlFlow::Continue(())
            });
            tr.end(span);
            pee.absorb(s);
        }
        pee_metrics(&mut rep, pee, distinct.len(), results);
        let (probe_ns, block_us) = crate::hopi::index_replay(&flix, args.seed, &mut tr);
        rep.metric("index.reach_probe_ns", probe_ns, "ns");
        rep.metric("index.block_us", block_us, "us");
        crate::ingest::probe(&flix, args.seed, &mut tr, &mut rep);
        crate::self_times(&mut rep, &tr);
        crate::write_trace(args, &tr);
        return rep;
    }

    let mut qps: Vec<f64> = walls
        .iter()
        .map(|w| stream.len() as f64 / (w / 1e9))
        .collect();
    let xml = corpus::xml_bytes(&cg, 0..cg.collection.doc_count() as u32);
    setup.report(&mut rep);
    rep.metric("query_p50_us", median(&mut p50s), "us");
    rep.metric("query_p90_us", median(&mut p90s), "us");
    rep.metric("query_qps", median(&mut qps), "1/s");
    rep.metric("pass_ms", median(&mut walls) / 1e6, "ms");
    rep.metric(
        "index_bytes_per_byte",
        ratio(crate::hopi::index_blob_bytes(&flix) as f64, xml as f64),
        "B/B",
    );
    rep.metric("peak_rss_mb", peak_rss_mb, "MB");
    eprintln!(
        "serve-proximity: {} docs, {} elements, {} metas, {} distinct, {} passes x {} requests; \
         request p99 {:.1} us",
        cg.collection.doc_count(),
        cg.node_count(),
        flix.meta_count(),
        distinct.len(),
        walls.len(),
        stream.len(),
        median(&mut p99s),
    );
    rep
}
