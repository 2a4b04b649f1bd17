//! `ingest-recover`: durable ingest with reads beside the writes, then a
//! crash and recovery.
//!
//! A base DBLP corpus indexed `MaximalPpo` sits in a `DurableStore` on the
//! in-memory devices (`MemDisk`, `MemLog`, `MemManifests`), with a buffer
//! pool smaller than the store. A pass starts a fresh store from the base,
//! makes seeded batches of new citing documents durable one commit per
//! batch (`CollectionGraph::extend`, `Flix::extend`, `save_flix`,
//! `DurableStore::commit`), checkpoints every few batches and queries the
//! freshly extended index after each batch. It then drops the store
//! without a checkpoint, reopens the crash image, loads the framework,
//! compares every recovered blob with what was put and queries again.
//!
//! [`probe`] runs one such pass over another workload's index, so that its
//! traced run reports the ingest, persistence and page-store layers too.

use crate::corpus::{self, Corpus, SetupTimes};
use crate::hopi::{index_replay, pee_metrics};
use crate::oracle::{self, Bfs};
use crate::stats::{self, median, pass_median_us, percentile, ratio, us};
use crate::trace::Tracer;
use crate::{timed, Args, Report};
use flix::persist::{load_flix, save_flix};
use flix::{BuildOptions, Flix, FlixConfig, PeeStats, QueryOptions, QueryResult};
use pagestore::{
    BlobStore, BufferPool, DiskManager, DurableStore, MemDisk, MemLog, MemManifests, PoolStats,
    RecoveryReport, PAGE_SIZE,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use xmlgraph::{CollectionGraph, Document, LinkTarget, TagId};

const SCALE: f64 = 0.1;
const CONFIG: FlixConfig = FlixConfig::MaximalPpo;
/// Batches per pass; one commit each.
const BATCHES: usize = 32;
const DOCS_PER_BATCH: usize = 4;
/// A checkpoint follows every this many batches; the batches after the
/// last one are what recovery replays.
const CHECKPOINT_EVERY: usize = 10;
/// The probe's batches, and its checkpoint interval: a checkpoint, then a
/// batch for recovery to replay. Few, because a batch over the paper-scale
/// index puts about 50 MB of pages that are never freed.
const PROBE_BATCHES: usize = 3;
const PROBE_CHECKPOINT_EVERY: usize = 2;
/// Citations per new document.
const CITATIONS: usize = 5;

/// The last ingested documents whose roots are queried, for each query
/// tag, on the recovered index.
const RECOVERED_DOCS: usize = 8;
/// Buffer-pool frames: fewer than the store's pages.
const POOL_PAGES: usize = 256;
const NAME: &str = "dblp";
/// Set-ups before the warm-up pass, and after each timed pass; `setup_s`
/// is the median of all of them.
const SETUP_REPS: usize = 5;
const SETUPS_PER_PASS: usize = 1;
const MIN_PASSES: usize = 2;

/// The seeded new documents, batch by batch, with their XML sizes.
fn make_batches(cg: &CollectionGraph, seed: u64) -> Vec<(Vec<Document>, usize)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1A_6E57);
    let tags = &cg.collection.tags;
    let tag = |n: &str| tags.get(n).expect("DBLP corpus has the tag");
    let (root_t, title_t, author_t, year_t, cite_t) = (
        tag("inproceedings"),
        tag("title"),
        tag("author"),
        tag("year"),
        tag("cite"),
    );
    let mut names: Vec<String> = cg.collection.docs().map(|(_, d)| d.name.clone()).collect();
    let mut batches = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let mut docs = Vec::with_capacity(DOCS_PER_BATCH);
        for i in 0..DOCS_PER_BATCH {
            let name = format!("ingest/b{b}-d{i}.xml");
            let mut d = Document::new(name.clone());
            let root = d.add_element(root_t, None);
            let t = d.add_element(title_t, Some(root));
            d.append_text(t, &format!("Ingested Paper {b}.{i}"));
            for a in 0..rng.gen_range(1..4) {
                let el = d.add_element(author_t, Some(root));
                d.append_text(el, &format!("A. Author{a}"));
            }
            let y = d.add_element(year_t, Some(root));
            d.append_text(y, "2004");
            // Citations lean to recent documents, like the base corpus.
            for _ in 0..CITATIONS {
                let u: f64 = rng.gen();
                let back = 1 + (u * u * 600.0) as usize;
                let target = names[names.len().saturating_sub(back)].clone();
                let c = d.add_element(cite_t, Some(root));
                d.add_link(
                    c,
                    LinkTarget {
                        document: Some(target),
                        fragment: None,
                    },
                );
            }
            docs.push(d);
            names.push(name);
        }
        let xml = docs
            .iter()
            .map(|d| xmlgraph::write_document(d, tags).len())
            .sum();
        batches.push((docs, xml));
    }
    batches
}

/// A fresh durable store on in-memory devices.
struct Devices {
    disk: Arc<MemDisk>,
    log: Arc<MemLog>,
    manifests: Arc<MemManifests>,
}

impl Devices {
    /// Fresh devices; `log` is emptied and reused so that, after the
    /// warm-up pass, appends no longer pay the in-memory log's buffer
    /// growth (a file-backed log has no such cost).
    fn new(log: &Arc<MemLog>) -> Self {
        log.truncate_to(0);
        Self {
            disk: Arc::new(MemDisk::new()),
            log: Arc::clone(log),
            manifests: Arc::new(MemManifests::new()),
        }
    }

    /// Opens the store on the devices, recovering what they hold.
    fn open(&self) -> std::io::Result<(DurableStore, RecoveryReport)> {
        let disk: Arc<dyn DiskManager> = self.disk.clone();
        DurableStore::open(disk, self.log.clone(), self.manifests.clone(), POOL_PAGES)
    }
}

/// A fresh store holding the base framework, checkpointed.
fn base_store(flix: &Flix, log: &Arc<MemLog>) -> Result<(Devices, DurableStore), String> {
    let devices = Devices::new(log);
    let (mut store, _) = devices.open().map_err(|e| e.to_string())?;
    save_flix(flix, store.blobs_mut(), NAME)?;
    store.checkpoint().map_err(|e| e.to_string())?;
    Ok((devices, store))
}

/// Live blob bytes of a store: all blobs, and the index blobs (all but
/// the build report).
pub fn blob_bytes(blobs: &BlobStore) -> (u64, u64) {
    let names = blobs.names();
    let all: u64 = names.iter().filter_map(|n| blobs.len_of(n)).sum();
    let report: u64 = names
        .iter()
        .filter(|n| n.ends_with("/report"))
        .filter_map(|n| blobs.len_of(n))
        .sum();
    (all, all - report)
}

/// What `save_flix` puts for `flix`, recorded in a scratch store of the
/// benchmark's own.
fn record_of(flix: &Flix) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut shadow = BlobStore::new(Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 1 << 16)));
    save_flix(flix, &mut shadow, NAME)?;
    shadow
        .names()
        .iter()
        .map(|n| match shadow.get(n) {
            Ok(Some(bytes)) => Ok((n.to_string(), bytes)),
            _ => Err(format!("scratch blob {n} unreadable")),
        })
        .collect()
}

#[derive(Default)]
struct Layers {
    extend_ns: Vec<f64>,
    flix_extend_ns: Vec<f64>,
    save_ns: Vec<f64>,
    saved_bytes: Vec<f64>,
    commit_ns: Vec<f64>,
    commit_pages: Vec<f64>,
    commit_bytes: Vec<f64>,
    directory_bytes: Vec<f64>,
    checkpoint_ns: Vec<f64>,
    open_ns: Vec<f64>,
    load_ns: Vec<f64>,
    pages_replayed: Vec<f64>,
    disk_pages: Vec<f64>,
    recovery_pool: PoolStats,
    pee: PeeStats,
    queries: usize,
    results: usize,
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    batch_ns: u64,
    docs: usize,
    commit_ns: Vec<u64>,
    query_ns: Vec<u64>,
    recover_ns: u64,
    wal_bytes: u64,
    xml_bytes: usize,
    store_bytes: u64,
    live_bytes: u64,
    index_bytes: u64,
    corpus_xml: usize,
}

/// Times one descendants query and checks it against BFS afterwards. A
/// traced query adds its evaluator counters to `layers`.
#[allow(clippy::too_many_arguments)]
fn query(
    flix: &Flix,
    start: u32,
    tag: TagId,
    bfs: &mut Bfs,
    tr: &mut Tracer,
    id: u64,
    layers: &mut Layers,
    rep: &mut Report,
) -> u64 {
    let opts = QueryOptions::default();
    let span = tr.begin("pee.descendants", id);
    let (res, ns): (Vec<QueryResult>, u64) = if tr.is_on() {
        let mut res = Vec::new();
        let (stats, ns) = timed(|| {
            flix.for_each_descendant_traced(start, tag, &opts, |r, _| {
                res.push(r);
                std::ops::ControlFlow::Continue(())
            })
        });
        layers.pee.absorb(stats);
        layers.queries += 1;
        layers.results += res.len();
        (res, ns)
    } else {
        timed(|| flix.find_descendants(start, tag, &opts))
    };
    tr.end(span);
    let cg = flix.collection();
    bfs.run(&cg.graph, start, u32::MAX);
    rep.check(
        format!("query {start}//{tag}"),
        oracle::check_full(cg, bfs, start, tag, &res),
    );
    ns
}

#[allow(clippy::too_many_arguments)]
fn pass(
    base: &Arc<Flix>,
    log: &Arc<MemLog>,
    batches: &[(Vec<Document>, usize)],
    checkpoint_every: usize,
    pass_no: u64,
    bfs: &mut Bfs,
    tr: &mut Tracer,
    layers: &mut Layers,
    rep: &mut Report,
) -> Result<(Pass, Arc<Flix>), String> {
    let (devices, mut store) = base_store(base, log)?;
    let opts = BuildOptions::default();
    let mut flix = Arc::clone(base);
    let mut out = Pass::default();
    let names = corpus::QUERY_TAGS;
    let base_tags = &base.collection().collection.tags;
    let tags: Vec<TagId> = names
        .iter()
        .map(|n| base_tags.get(n).expect("DBLP corpus has the query tags"))
        .collect();
    // Request ids: batches, queries and the recovery of this pass.
    let mut next_id = pass_no << 32;
    let mut id = || {
        next_id += 1;
        next_id
    };
    for (b, (docs, xml)) in batches.iter().enumerate() {
        let docs = docs.clone();
        let req = id();
        let root = tr.begin("bench.batch", req);
        let t = Instant::now();
        let span = tr.begin("xmlgraph.extend", req);
        let (grown, extend_ns) = timed(|| flix.collection().extend(docs));
        tr.end(span);
        let grown = Arc::new(grown?);
        let span = tr.begin("flix.extend", req);
        let (next, flix_extend_ns) = timed(|| flix.extend(grown, &opts));
        tr.end(span);
        let next = Arc::new(next?);
        let span = tr.begin("persist.save", req);
        let (saved, save_ns) = timed(|| save_flix(&next, store.blobs_mut(), NAME));
        tr.end(span);
        saved?;
        let span = tr.begin("pagestore.commit", req);
        let (receipt, commit_ns) = timed(|| store.commit());
        tr.end(span);
        let receipt = receipt.map_err(|e| e.to_string())?;
        let mut checkpoint_ns = None;
        if (b + 1) % checkpoint_every == 0 {
            let span = tr.begin("pagestore.checkpoint", req);
            let (done, ns) = timed(|| store.checkpoint());
            tr.end(span);
            done.map_err(|e| e.to_string())?;
            checkpoint_ns = Some(ns);
        }
        out.batch_ns += t.elapsed().as_nanos() as u64;
        tr.end(root);
        out.docs += DOCS_PER_BATCH;
        out.commit_ns.push(commit_ns);
        out.wal_bytes += receipt.bytes;
        out.xml_bytes += xml;
        flix = next;
        rep.attempt(1);

        if tr.is_on() {
            layers.extend_ns.push(extend_ns as f64);
            layers.flix_extend_ns.push(flix_extend_ns as f64);
            layers.save_ns.push(save_ns as f64);
            layers.saved_bytes.push(blob_bytes(store.blobs()).0 as f64);
            layers.commit_ns.push(commit_ns as f64);
            layers.commit_pages.push(receipt.pages as f64);
            layers.commit_bytes.push(receipt.bytes as f64);
            layers
                .directory_bytes
                .push(store.committed_directory().len() as f64);
            if let Some(ns) = checkpoint_ns {
                layers.checkpoint_ns.push(ns as f64);
            }
        }

        // Reads on the freshly extended index: each new root for each
        // query tag.
        let cg = flix.collection_arc();
        let docs_now = cg.collection.doc_count() as u32;
        for doc in docs_now - DOCS_PER_BATCH as u32..docs_now {
            for &tag in &tags {
                let ns = query(&flix, cg.doc_root(doc), tag, bfs, tr, id(), layers, rep);
                out.query_ns.push(ns);
                rep.attempt(1);
            }
        }
    }

    // Crash: the store goes away without a checkpoint.
    let (all, index) = blob_bytes(store.blobs());
    out.live_bytes = all;
    out.index_bytes = index;
    out.store_bytes = devices.disk.page_count() * PAGE_SIZE as u64;
    if tr.is_on() {
        layers.disk_pages.push(devices.disk.page_count() as f64);
    }
    let record = record_of(&flix)?;
    // Nothing is written when the store is dropped, so the devices then
    // hold exactly the crash image.
    drop(store);
    let graph = flix.collection_arc();

    let req = id();
    let root = tr.begin("bench.recover", req);
    let t = Instant::now();
    let span = tr.begin("pagestore.open", req);
    let (opened, open_ns) = timed(|| devices.open());
    tr.end(span);
    let (recovered, recovery) = opened.map_err(|e| e.to_string())?;
    let span = tr.begin("persist.load", req);
    let (loaded, load_ns) = timed(|| load_flix(recovered.blobs(), NAME, Arc::clone(&graph)));
    tr.end(span);
    let loaded = loaded?;
    out.recover_ns = t.elapsed().as_nanos() as u64;
    tr.end(root);
    rep.attempt(1);
    if tr.is_on() {
        layers.open_ns.push(open_ns as f64);
        layers.load_ns.push(load_ns as f64);
        layers.pages_replayed.push(recovery.pages_replayed as f64);
        let s = recovered.pool().pool_stats();
        layers.recovery_pool.hits += s.hits;
        layers.recovery_pool.misses += s.misses;
        layers.recovery_pool.evictions += s.evictions;
    }

    let names = recovered.blobs().names();
    rep.check(
        "recovered blobs",
        oracle::check_blobs(&record, &names, |n| recovered.get_blob(n).ok().flatten()),
    );
    let docs_now = graph.collection.doc_count() as u32;
    for doc in docs_now - RECOVERED_DOCS as u32..docs_now {
        for &tag in &tags {
            let ns = query(
                &loaded,
                graph.doc_root(doc),
                tag,
                bfs,
                tr,
                id(),
                layers,
                rep,
            );
            out.query_ns.push(ns);
            rep.attempt(1);
        }
    }
    out.corpus_xml = corpus::xml_bytes(&graph, 0..docs_now);
    Ok((out, flix))
}

fn set_up() -> Result<(Arc<Flix>, Corpus, u64), String> {
    let corpus = corpus::dblp(SCALE);
    let (flix, build_ns) = corpus::build_index(&corpus.cg, CONFIG);
    let flix = Arc::new(flix);
    base_store(&flix, &Arc::new(MemLog::new()))?;
    Ok((flix, corpus, build_ns))
}

/// Reports the ingest, persistence and page-store layers of traced passes.
fn report_layers(rep: &mut Report, layers: &mut Layers) {
    let m = |v: &mut Vec<f64>, scale: f64| median(v) / scale;
    rep.metric("xmlgraph.extend_us", m(&mut layers.extend_ns, 1e3), "us");
    rep.metric("flix.extend_us", m(&mut layers.flix_extend_ns, 1e3), "us");
    rep.metric("persist.save_ms", m(&mut layers.save_ns, 1e6), "ms");
    rep.metric("persist.saved_bytes", m(&mut layers.saved_bytes, 1.0), "B");
    rep.metric("persist.load_ms", m(&mut layers.load_ns, 1e6), "ms");
    rep.metric("store.commit_us", m(&mut layers.commit_ns, 1e3), "us");
    rep.metric(
        "wal.commit_pages",
        m(&mut layers.commit_pages, 1.0),
        "count",
    );
    rep.metric("wal.commit_bytes", m(&mut layers.commit_bytes, 1.0), "B");
    rep.metric(
        "wal.directory_bytes",
        m(&mut layers.directory_bytes, 1.0),
        "B",
    );
    rep.metric(
        "store.checkpoint_ms",
        m(&mut layers.checkpoint_ns, 1e6),
        "ms",
    );
    rep.metric("disk.pages", m(&mut layers.disk_pages, 1.0), "count");
    rep.metric("store.open_ms", m(&mut layers.open_ns, 1e6), "ms");
    rep.metric(
        "recovery.pages_replayed",
        m(&mut layers.pages_replayed, 1.0),
        "count",
    );
    let p = layers.recovery_pool;
    rep.metric(
        "pool.hit_ratio",
        ratio(p.hits as f64, (p.hits + p.misses) as f64),
        "ratio",
    );
    rep.metric(
        "pool.evictions",
        ratio(p.evictions as f64, layers.open_ns.len() as f64),
        "count",
    );
}

/// The ingest, persistence and page-store layers over another workload's
/// index: one traced pass of the first [`PROBE_BATCHES`] of this
/// workload's seeded batches with `base` as the base framework. Its
/// operations are not the workload's and are not counted; every check of
/// the pass still applies.
pub fn probe(base: &Arc<Flix>, seed: u64, tr: &mut Tracer, rep: &mut Report) {
    let batches = make_batches(base.collection(), seed);
    let log = Arc::new(MemLog::new());
    let mut layers = Layers::default();
    let mut bfs = Bfs::default();
    let mut probe_rep = Report::default();
    let done = pass(
        base,
        &log,
        &batches[..PROBE_BATCHES],
        PROBE_CHECKPOINT_EVERY,
        1,
        &mut bfs,
        tr,
        &mut layers,
        &mut probe_rep,
    );
    rep.errors.append(&mut probe_rep.errors);
    match done {
        Ok(_) => report_layers(rep, &mut layers),
        Err(e) => rep.wrong("ingest probe", e),
    }
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let (base, corpus, mut setup) = match SetupTimes::repeat(SETUP_REPS, set_up) {
        Ok(made) => made,
        Err(e) => {
            rep.wrong("set-up", e);
            return rep;
        }
    };
    let batches = make_batches(&corpus.cg, args.seed);
    let mut bfs = Bfs::default();
    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, origin);
    let mut off = Tracer::new(false, origin);
    let mut layers = Layers::default();
    let log = Arc::new(MemLog::new());

    // Untimed warm-up pass, checked like the others.
    let mut scratch = Report::default();
    let warm = pass(
        &base,
        &log,
        &batches,
        CHECKPOINT_EVERY,
        0,
        &mut bfs,
        &mut off,
        &mut layers,
        &mut scratch,
    );
    rep.errors.append(&mut scratch.errors);
    if let Err(e) = warm {
        rep.wrong("warm-up pass", e);
        return rep;
    }
    let pass_ns = |p: &Pass| p.batch_ns + p.recover_ns + p.query_ns.iter().sum::<u64>();

    let mut passes: Vec<Pass> = Vec::new();
    let mut grown = Arc::clone(&base);
    let mut peak_rss_mb = 0.0;
    let run_start = Instant::now();
    while passes.len() < MIN_PASSES || run_start.elapsed() < args.budget() {
        let n = passes.len() as u64 + 1;
        // A traced run traces the first timed pass only.
        let pass_tr = if args.trace && n == 1 {
            &mut tr
        } else {
            &mut off
        };
        match pass(
            &base,
            &log,
            &batches,
            CHECKPOINT_EVERY,
            n,
            &mut bfs,
            pass_tr,
            &mut layers,
            &mut rep,
        ) {
            Ok((p, index)) => {
                passes.push(p);
                grown = index;
            }
            Err(e) => {
                rep.wrong(format!("pass {n}"), e);
                return rep;
            }
        }
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
    let last = passes.last().expect("at least one pass");

    if args.trace {
        let mut untraced: Vec<f64> = passes[1..].iter().map(|p| pass_ns(p) as f64).collect();
        crate::overhead_line(pass_ns(&passes[0]), &mut untraced);
        setup.report_layers(&mut rep, base.build_report());
        rep.metric("flix.metas", grown.meta_count() as f64, "count");
        let pee = layers.pee;
        pee_metrics(&mut rep, pee, layers.queries, layers.results);
        report_layers(&mut rep, &mut layers);
        let (probe_ns, block_us) = index_replay(&grown, args.seed, &mut tr);
        rep.metric("index.reach_probe_ns", probe_ns, "ns");
        rep.metric("index.block_us", block_us, "us");
        crate::serve::probe(&grown, args.seed, &mut tr, &mut rep);
        crate::self_times(&mut rep, &tr);
        crate::write_trace(args, &tr);
        return rep;
    }

    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        let mut v: Vec<f64> = passes.iter().map(f).collect();
        median(&mut v)
    };
    let reads = || passes.iter().map(|p| p.query_ns.as_slice());
    setup.report(&mut rep);
    rep.metric("query_p50_us", pass_median_us(reads(), 0.50), "us");
    rep.metric("query_p90_us", pass_median_us(reads(), 0.90), "us");
    rep.metric(
        "query_qps",
        per_pass(&|p| p.query_ns.len() as f64 / (p.query_ns.iter().sum::<u64>() as f64 / 1e9)),
        "1/s",
    );
    rep.metric("pass_ms", per_pass(&|p| pass_ns(p) as f64 / 1e6), "ms");
    rep.metric(
        "index_bytes_per_byte",
        ratio(last.index_bytes as f64, last.corpus_xml as f64),
        "B/B",
    );
    rep.metric("peak_rss_mb", peak_rss_mb, "MB");
    let commits = || passes.iter().map(|p| p.commit_ns.as_slice());
    // The commit p99 pools the commits of every timed pass: a pass has
    // only BATCHES, so its own p99 would be its maximum.
    let mut all_commits: Vec<u64> = commits().flatten().copied().collect();
    eprintln!(
        "ingest-recover: {} base docs, {} metas after ingest, {} passes x {BATCHES} batches x \
         {DOCS_PER_BATCH} docs; {:.1} docs/s, commit p50 {:.0} us, p99 {:.0} us, recovery {:.2} ms, \
         {:.1} WAL B per XML B, {:.1} disk B per live B",
        base.collection().collection.doc_count(),
        grown.meta_count(),
        passes.len(),
        per_pass(&|p| p.docs as f64 / (p.batch_ns as f64 / 1e9)),
        pass_median_us(commits(), 0.50),
        us(percentile(&mut all_commits, 0.99)),
        per_pass(&|p| p.recover_ns as f64 / 1e6),
        ratio(last.wal_bytes as f64, last.xml_bytes as f64),
        ratio(last.store_bytes as f64, last.live_bytes as f64),
    );
    rep
}
