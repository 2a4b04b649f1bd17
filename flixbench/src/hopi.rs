//! `dblp-hopi`: evaluator-bound descendants queries and connection tests
//! straight on `Flix`, over a reduced-scale DBLP corpus indexed as
//! Unconnected HOPI with 5,000-element partitions. No serve, cache or WAL
//! layer runs in its timed passes; a traced run probes those layers on
//! this index after them.
//!
//! A pass queries every document root for `title` and for one seeded
//! other tag, runs seeded exact-order queries, the Figure-5 hub query and
//! a fixed set of `within(3)` capped queries, all in seeded order, then
//! seeded connection tests from every document root. The capped set does
//! not depend on the seed: its queries that miss an in-range result (the
//! known §5.1 capped-subsumption fault) are the run's failed operations,
//! the same share of every run.

use crate::corpus::{self, query_tag, Corpus, SetupTimes};
use crate::oracle::{self, Bfs};
use crate::stats::{self, median, pass_median_us, ratio};
use crate::trace::Tracer;
use crate::{timed, Args, Report};
use flix::{Flix, FlixConfig, PeeStats, QueryOptions, QueryResult};
use pagestore::{BlobStore, BufferPool, MemDisk};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;
use xmlgraph::{CollectionGraph, TagId};

/// Corpus scale (share of the paper's 6,210 documents).
const SCALE: f64 = 0.1;
const CONFIG: FlixConfig = FlixConfig::UnconnectedHopi {
    partition_size: 5_000,
};
/// Seeded exact-order queries per pass.
const EXACT: usize = 128;
/// Capped queries per pass, drawn from [`CAPPED_SEED`] alone.
const CAPPED: usize = 256;
const CAPPED_SEED: u64 = 0xCA99_ED00;
/// The distance cap of the capped queries.
const CAP: u32 = 3;
/// Set-ups before the warm-up pass, and after each timed pass; `setup_s`
/// is the median of all of them.
const SETUP_REPS: usize = 5;
const SETUPS_PER_PASS: usize = 4;
/// Timed passes per run, at least.
const MIN_PASSES: usize = 2;
/// The Figure-5 measure: time until this many results.
const FIRST_K: usize = 100;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Full,
    Exact,
    Hub,
    Capped,
}

struct Op {
    start: u32,
    tag: TagId,
    kind: Kind,
}

impl Op {
    fn opts(&self) -> QueryOptions {
        match self.kind {
            Kind::Full | Kind::Hub => QueryOptions::default(),
            Kind::Exact => QueryOptions::exact(),
            Kind::Capped => QueryOptions::within(CAP),
        }
    }
}

/// The descendants queries of one pass, in their seeded order.
fn make_ops(cg: &CollectionGraph, seed: u64) -> Vec<Op> {
    let docs = cg.collection.doc_count() as u32;
    let mut rng = SmallRng::seed_from_u64(seed);
    // Every root is queried for `title` (the Figure-5 tag) and for one
    // other query tag; the other tags are dealt out in equal shares, in
    // seeded order.
    let tag = |name: &str| {
        cg.collection
            .tags
            .get(name)
            .expect("DBLP corpus has the query tags")
    };
    let title = tag("title");
    let others: Vec<TagId> = corpus::QUERY_TAGS[1..].iter().map(|n| tag(n)).collect();
    let mut dealt: Vec<TagId> = (0..docs as usize)
        .map(|d| others[d % others.len()])
        .collect();
    corpus::shuffle(&mut dealt, &mut rng);
    let mut ops: Vec<Op> = (0..docs)
        .flat_map(|d| {
            [title, dealt[d as usize]].map(|tag| Op {
                start: cg.doc_root(d),
                tag,
                kind: Kind::Full,
            })
        })
        .collect();
    for _ in 0..EXACT {
        let start = cg.doc_root(rng.gen_range(0..docs));
        let tag = query_tag(cg, &mut rng);
        ops.push(Op {
            start,
            tag,
            kind: Kind::Exact,
        });
    }
    ops.push(Op {
        start: bench::figure5_start(cg),
        tag: bench::figure5_tag(cg),
        kind: Kind::Hub,
    });
    let mut fixed = SmallRng::seed_from_u64(CAPPED_SEED);
    for _ in 0..CAPPED {
        let start = cg.doc_root(fixed.gen_range(0..docs));
        let tag = query_tag(cg, &mut fixed);
        ops.push(Op {
            start,
            tag,
            kind: Kind::Capped,
        });
    }
    corpus::shuffle(&mut ops, &mut rng);
    ops
}

/// Seeded connection tests `a//b` from every document root. A root
/// without citations tests one node: every other one a node it reaches,
/// the rest a uniform node. A citing root tests one node it reaches and
/// two uniform nodes, which it mostly cannot reach, so those searches
/// exhaust its closure. About a third of the tests are such exhaustive
/// searches, so the median falls among the cheap tests and p90 among the
/// exhaustive ones rather than on the boundary between them.
fn connection_pairs(cg: &CollectionGraph, bfs: &mut Bfs, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0_77EC7);
    let docs = cg.collection.doc_count() as u32;
    let nodes = cg.node_count() as u32;
    let mut pairs = Vec::new();
    for d in 0..docs {
        let from = cg.doc_root(d);
        bfs.run(&cg.graph, from, u32::MAX);
        let reach = bfs.reached();
        let reached = reach[rng.gen_range(0..reach.len())];
        if cg.doc_graph.out_degree(d) == 0 {
            let to = if d % 2 == 0 {
                reached
            } else {
                rng.gen_range(0..nodes)
            };
            pairs.push((from, to));
        } else {
            pairs.push((from, reached));
            pairs.push((from, rng.gen_range(0..nodes)));
            pairs.push((from, rng.gen_range(0..nodes)));
        }
    }
    pairs
}

/// Checks one descendants answer; `Ok(true)` when a capped answer misses
/// an in-range result.
fn verify(
    cg: &CollectionGraph,
    bfs: &mut Bfs,
    op: &Op,
    res: &[QueryResult],
) -> Result<bool, String> {
    match op.kind {
        Kind::Full | Kind::Hub => {
            bfs.run(&cg.graph, op.start, u32::MAX);
            oracle::check_full(cg, bfs, op.start, op.tag, res).map(|()| false)
        }
        Kind::Exact => {
            bfs.run(&cg.graph, op.start, u32::MAX);
            oracle::check_exact(cg, bfs, op.start, op.tag, res).map(|()| false)
        }
        Kind::Capped => {
            bfs.run(&cg.graph, op.start, CAP);
            oracle::check_capped(cg, bfs, op.start, op.tag, CAP, res).map(|missing| missing > 0)
        }
    }
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    desc_ns: Vec<u64>,
    first_k_ns: Vec<Option<u64>>,
    conn_ns: Vec<u64>,
    desc_wall_ns: u64,
    wall_ns: u64,
    pee: PeeStats,
    results: usize,
}

/// Runs every operation once, timing each; returns the timings and the
/// answers (descendants, then connection tests).
fn pass(
    flix: &Flix,
    ops: &[Op],
    pairs: &[(u32, u32)],
    tr: &mut Tracer,
    traced: bool,
    pass_no: u64,
) -> (Pass, Vec<Vec<QueryResult>>, Vec<Option<u32>>) {
    let mut out = Pass::default();
    let mut answers: Vec<Vec<QueryResult>> = vec![Vec::new(); ops.len()];
    let request_base = pass_no * (ops.len() + pairs.len()) as u64;
    let pass_start = Instant::now();
    let root = tr.begin("bench.pass", request_base);
    for (i, op) in ops.iter().enumerate() {
        let buf = &mut answers[i];
        let opts = op.opts();
        let mut first_k = None;
        let span = tr.begin("pee.descendants", request_base + i as u64);
        let t = Instant::now();
        let mut emit = |r: QueryResult| {
            buf.push(r);
            if buf.len() == FIRST_K {
                first_k = Some(t.elapsed().as_nanos() as u64);
            }
            ControlFlow::Continue(())
        };
        if traced {
            let s = flix.for_each_descendant_traced(op.start, op.tag, &opts, |r, _| emit(r));
            out.pee.absorb(s);
        } else {
            flix.for_each_descendant(op.start, op.tag, &opts, &mut emit);
        }
        let ns = t.elapsed().as_nanos() as u64;
        tr.end(span);
        out.desc_ns.push(ns);
        out.first_k_ns.push(first_k);
    }
    out.desc_wall_ns = pass_start.elapsed().as_nanos() as u64;
    let default = QueryOptions::default();
    let mut conn_answers = Vec::with_capacity(pairs.len());
    for (i, &(from, to)) in pairs.iter().enumerate() {
        let span = tr.begin("pee.connect", request_base + (ops.len() + i) as u64);
        let t = Instant::now();
        let answer = if traced {
            let (a, s) = flix.connection_test_traced(from, to, &default);
            out.pee.absorb(s);
            a
        } else {
            flix.connection_test(from, to, &default)
        };
        out.conn_ns.push(t.elapsed().as_nanos() as u64);
        tr.end(span);
        conn_answers.push(answer);
    }
    tr.end(root);
    out.wall_ns = pass_start.elapsed().as_nanos() as u64;

    for a in &answers {
        out.results += a.len();
    }
    (out, answers, conn_answers)
}

/// Checks a timed pass's answers, after every timed interval: an answer
/// equal to the verified one passes; any other goes to the oracle afresh.
#[allow(clippy::too_many_arguments)]
fn check_pass(
    cg: &CollectionGraph,
    ops: &[Op],
    pairs: &[(u32, u32)],
    verified: &[(Vec<QueryResult>, bool)],
    conn_verified: &[Option<u32>],
    answers: &[Vec<QueryResult>],
    conn_answers: &[Option<u32>],
    bfs: &mut Bfs,
    rep: &mut Report,
) {
    rep.attempt((ops.len() + pairs.len()) as u64);
    for (i, op) in ops.iter().enumerate() {
        let (want, misses) = &verified[i];
        let misses = if answers[i] == *want {
            *misses
        } else {
            verify(cg, bfs, op, &answers[i]).unwrap_or_else(|e| {
                rep.wrong(format!("query {}//{}", op.start, op.tag), e);
                false
            })
        };
        if misses {
            rep.fail();
        }
    }
    for (i, &(from, to)) in pairs.iter().enumerate() {
        if conn_answers[i] != conn_verified[i] {
            bfs.run(&cg.graph, from, u32::MAX);
            let r = oracle::check_connection(bfs, to, conn_answers[i]);
            rep.check(format!("connection {from}//{to}"), r);
        }
    }
}

/// Builds the corpus and the index.
fn set_up() -> Result<(Flix, Corpus, u64), String> {
    let corpus = corpus::dblp(SCALE);
    let (flix, build_ns) = corpus::build_index(&corpus.cg, CONFIG);
    Ok((flix, corpus, build_ns))
}

/// Persisted index bytes (manifest and meta-document blobs) of `flix`.
pub fn index_blob_bytes(flix: &Flix) -> usize {
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
    let mut store = BlobStore::new(pool);
    if let Err(e) = flix::persist::save_flix(flix, &mut store, "idx") {
        eprintln!("warning: save for index size failed: {e}");
        return 0;
    }
    crate::ingest::blob_bytes(&store).1 as usize
}

/// Replays `is_reachable` and `descendants_by_label_counted` on every
/// deployed meta document; returns (ns per probe, µs per block).
pub fn index_replay(flix: &Flix, seed: u64, tr: &mut Tracer) -> (f64, f64) {
    const PROBES: usize = 4_000;
    const BLOCKS: usize = 400;
    let cg = flix.collection();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1DE7);
    let metas: Vec<u32> = (0..flix.meta_count() as u32)
        .filter(|&m| flix.meta(m).len() > 1)
        .collect();
    let (mut probe_ns, mut probes, mut block_ns, mut blocks) = (0u64, 0usize, 0u64, 0usize);
    let per_meta = (PROBES / metas.len().max(1)).max(1);
    for &m in &metas {
        let md = flix.meta(m);
        let n = md.len() as u32;
        let pairs: Vec<(u32, u32)> = (0..per_meta)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let span = tr.begin("index.reach", u64::from(m));
        let (_, ns) = timed(|| {
            for &(u, v) in &pairs {
                black_box(md.index.is_reachable(u, v));
            }
        });
        tr.end(span);
        probe_ns += ns;
        probes += pairs.len();
        let lookups: Vec<(u32, u32)> = (0..(BLOCKS / metas.len().max(1)).max(1))
            .map(|_| (rng.gen_range(0..n), query_tag(cg, &mut rng)))
            .collect();
        let span = tr.begin("index.block", u64::from(m));
        let (_, ns) = timed(|| {
            for &(u, tag) in &lookups {
                black_box(md.index.descendants_by_label_counted(u, tag, false));
            }
        });
        tr.end(span);
        block_ns += ns;
        blocks += lookups.len();
    }
    (
        ratio(probe_ns as f64, probes as f64),
        ratio(block_ns as f64, blocks as f64) / 1e3,
    )
}

/// Reports the PEE counters of traced passes.
pub fn pee_metrics(rep: &mut Report, pee: PeeStats, queries: usize, results: usize) {
    let q = queries as f64;
    let pops = pee.entries_popped as f64;
    let subsumed = pee.entries_subsumed as f64;
    rep.metric("pee.pops_per_query", ratio(pops, q), "count");
    rep.metric("pee.subsumed_per_query", ratio(subsumed, q), "count");
    rep.metric(
        "pee.useful_pop_ratio",
        ratio(pops, pops + subsumed),
        "ratio",
    );
    rep.metric(
        "pee.rows_per_result",
        ratio(pee.block_results_scanned as f64, results as f64),
        "count",
    );
    rep.metric(
        "pee.links_per_query",
        ratio(pee.links_expanded as f64, q),
        "count",
    );
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let (flix, corpus, mut setup) = match SetupTimes::repeat(SETUP_REPS, set_up) {
        Ok(made) => made,
        Err(e) => {
            rep.wrong("set-up", e);
            return rep;
        }
    };
    let flix = Arc::new(flix);
    let cg = corpus.cg.clone();

    // Inputs and their verified answers: untimed.
    let ops = make_ops(&cg, args.seed);
    let mut bfs = Bfs::default();
    let pairs = connection_pairs(&cg, &mut bfs, args.seed);
    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, origin);
    let mut off = Tracer::new(false, origin);

    // The untimed warm-up pass; its answers are checked against the oracle
    // and kept as the verified answers of the timed passes.
    let (_, answers, conn_answers) = pass(&flix, &ops, &pairs, &mut off, false, 0);
    let mut verified = Vec::with_capacity(ops.len());
    for (op, res) in ops.iter().zip(answers) {
        let misses = verify(&cg, &mut bfs, op, &res).unwrap_or_else(|e| {
            rep.wrong(format!("query {}//{}", op.start, op.tag), e);
            false
        });
        verified.push((res, misses));
    }
    for (&(from, to), &answer) in pairs.iter().zip(&conn_answers) {
        bfs.run(&cg.graph, from, u32::MAX);
        rep.check(
            format!("connection {from}//{to}"),
            oracle::check_connection(&bfs, to, answer),
        );
    }
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let run_start = Instant::now();
    while passes.len() < MIN_PASSES || run_start.elapsed() < args.budget() {
        let n = passes.len() as u64 + 1;
        // A traced run traces the first timed pass only.
        let traced = args.trace && n == 1;
        let pass_tr = if traced { &mut tr } else { &mut off };
        let (p, answers, conn) = pass(&flix, &ops, &pairs, pass_tr, traced, n);
        check_pass(
            &cg,
            &ops,
            &pairs,
            &verified,
            &conn_answers,
            &answers,
            &conn,
            &mut bfs,
            &mut rep,
        );
        passes.push(p);
        // The peak before the repeated set-ups, which build a second
        // corpus and index beside the first; later passes repeat the work
        // of the first.
        if passes.len() == 1 {
            peak_rss_mb = stats::peak_rss_mb();
        }
        for _ in 0..SETUPS_PER_PASS {
            if let Err(e) = setup.again(set_up) {
                rep.wrong("set-up", e);
                return rep;
            }
        }
    }

    if args.trace {
        let first = &passes[0];
        let mut untraced: Vec<f64> = passes[1..].iter().map(|p| p.wall_ns as f64).collect();
        crate::overhead_line(first.wall_ns, &mut untraced);
        let report = flix.build_report();
        setup.report_layers(&mut rep, report);
        let stages = report.hopi_stage_totals().unwrap_or_default();
        println!(
            "hopi cover: {:.4} s of the build (rank, merge and cover stages)",
            (stages.rank_micros + stages.merge_micros + stages.cover_micros) as f64 / 1e6
        );
        rep.metric("flix.metas", flix.meta_count() as f64, "count");
        let queries = first.desc_ns.len() + first.conn_ns.len();
        pee_metrics(&mut rep, first.pee, queries, first.results);
        let (probe_ns, block_us) = index_replay(&flix, args.seed, &mut tr);
        rep.metric("index.reach_probe_ns", probe_ns, "ns");
        rep.metric("index.block_us", block_us, "us");
        crate::serve::probe(&flix, args.seed, &mut tr, &mut rep);
        crate::ingest::probe(&flix, args.seed, &mut tr, &mut rep);
        crate::self_times(&mut rep, &tr);
        crate::write_trace(args, &tr);
        return rep;
    }

    let mut qps: Vec<f64> = passes
        .iter()
        .map(|p| p.desc_ns.len() as f64 / (p.desc_wall_ns as f64 / 1e9))
        .collect();
    let mut walls: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e6).collect();
    // Figure 5: per query, the median over passes; then the median over
    // the queries with at least FIRST_K results.
    let mut first_k: Vec<f64> = (0..ops.len())
        .filter(|&i| ops[i].kind != Kind::Capped && verified[i].0.len() >= FIRST_K)
        .filter_map(|i| {
            let mut per_pass: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.first_k_ns[i])
                .map(|ns| ns as f64)
                .collect();
            (!per_pass.is_empty()).then(|| median(&mut per_pass))
        })
        .collect();
    let xml = corpus::xml_bytes(&cg, 0..cg.collection.doc_count() as u32);
    setup.report(&mut rep);
    let desc = || passes.iter().map(|p| p.desc_ns.as_slice());
    rep.metric("query_p50_us", pass_median_us(desc(), 0.50), "us");
    rep.metric("query_p90_us", pass_median_us(desc(), 0.90), "us");
    rep.metric("query_qps", median(&mut qps), "1/s");
    rep.metric("pass_ms", median(&mut walls), "ms");
    rep.metric(
        "index_bytes_per_byte",
        ratio(index_blob_bytes(&flix) as f64, xml as f64),
        "B/B",
    );
    rep.metric("peak_rss_mb", peak_rss_mb, "MB");
    let conn = || passes.iter().map(|p| p.conn_ns.as_slice());
    eprintln!(
        "dblp-hopi: {} docs, {} elements, {} metas, {} passes x {} ops; \
         query p99 {:.0} us, first{FIRST_K} {:.1} us over {} queries, connection p50 {:.2} us, \
         p90 {:.1} us",
        cg.collection.doc_count(),
        cg.node_count(),
        flix.meta_count(),
        passes.len(),
        ops.len() + pairs.len(),
        pass_median_us(desc(), 0.99),
        median(&mut first_k) / 1e3,
        first_k.len(),
        pass_median_us(conn(), 0.50),
        pass_median_us(conn(), 0.90),
    );
    rep
}
