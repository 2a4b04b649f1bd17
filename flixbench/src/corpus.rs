//! Corpus construction and the inputs drawn from it.

use crate::stats::median;
use crate::{timed, Report};
use flix::{BuildOptions, Flix, FlixConfig};
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;
use workloads::{generate_dblp, DblpConfig};
use xmlgraph::{CollectionGraph, TagId};

/// A sealed corpus and what producing it cost.
pub struct Corpus {
    /// The sealed collection graph.
    pub cg: Arc<CollectionGraph>,
    /// `workloads::generate_dblp` time.
    pub generate_ns: u64,
    /// `Collection::seal` time.
    pub seal_ns: u64,
}

/// The synthetic DBLP corpus at `scale` of the paper's 6,210 documents
/// (the same corpus as `bench::paper_corpus`, with generation and sealing
/// timed apart).
pub fn dblp(scale: f64) -> Corpus {
    let base = DblpConfig::paper_scale();
    let cfg = DblpConfig {
        documents: ((base.documents as f64 * scale) as usize).max(50),
        ..base
    };
    let (collection, generate_ns) = timed(|| generate_dblp(&cfg));
    let (cg, seal_ns) = timed(|| collection.seal());
    Corpus {
        cg: Arc::new(cg),
        generate_ns,
        seal_ns,
    }
}

/// Builds the index on one thread, timed: set-up time then does not
/// depend on how much of the second core a shared host grants at the
/// moment. The traced run reports the build's parallel headroom
/// (`flix.build_cpu_s` against `flix.critical_path_s`).
pub fn build_index(cg: &Arc<CollectionGraph>, config: FlixConfig) -> (Flix, u64) {
    let opts = BuildOptions {
        build_threads: 1,
        ..BuildOptions::default()
    };
    timed(|| Flix::build_with(Arc::clone(cg), config, &opts))
}

/// Target tags of the generated descendants queries.
pub const QUERY_TAGS: [&str; 5] = ["title", "author", "cite", "year", "keyword"];

/// A seeded target tag from [`QUERY_TAGS`].
pub fn query_tag(cg: &CollectionGraph, rng: &mut SmallRng) -> TagId {
    let name = QUERY_TAGS[rng.gen_range(0..QUERY_TAGS.len())];
    cg.collection
        .tags
        .get(name)
        .expect("DBLP corpus has the query tags")
}

/// Serialized XML bytes of documents `docs` of the corpus.
pub fn xml_bytes(cg: &CollectionGraph, docs: std::ops::Range<u32>) -> usize {
    docs.map(|d| xmlgraph::write_document(cg.collection.doc(d), &cg.collection.tags).len())
        .sum()
}

/// In-place Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// What repeated set-ups cost, in seconds; reported as medians.
#[derive(Default)]
pub struct SetupTimes {
    total: Vec<f64>,
    generate: Vec<f64>,
    seal: Vec<f64>,
    build: Vec<f64>,
}

impl SetupTimes {
    /// Runs `set_up` `reps` times and keeps the last result. Each earlier
    /// result is dropped (a server drained) before the next set-up starts
    /// its clock. `set_up` returns what it made, its corpus and its index
    /// build time in nanoseconds.
    pub fn repeat<T>(
        reps: usize,
        mut set_up: impl FnMut() -> Result<(T, Corpus, u64), String>,
    ) -> Result<(T, Corpus, Self), String> {
        let mut times = Self::default();
        let mut last = None;
        for _ in 0..reps.max(1) {
            drop(last.take());
            last = Some(times.once(&mut set_up)?);
        }
        let (value, corpus) = last.expect("at least one set-up");
        Ok((value, corpus, times))
    }

    /// Runs `set_up` once more, records its times and drops what it made.
    /// Set-ups spread between the timed passes sample the host's speed
    /// over the whole run, as the passes do, instead of only its start.
    pub fn again<T>(
        &mut self,
        set_up: impl FnMut() -> Result<(T, Corpus, u64), String>,
    ) -> Result<(), String> {
        self.once(set_up).map(drop)
    }

    fn once<T>(
        &mut self,
        mut set_up: impl FnMut() -> Result<(T, Corpus, u64), String>,
    ) -> Result<(T, Corpus), String> {
        let (made, ns) = timed(&mut set_up);
        let (value, corpus, build_ns) = made?;
        self.total.push(ns as f64 / 1e9);
        self.generate.push(corpus.generate_ns as f64 / 1e9);
        self.seal.push(corpus.seal_ns as f64 / 1e9);
        self.build.push(build_ns as f64 / 1e9);
        Ok((value, corpus))
    }

    /// The end-to-end `setup_s`.
    pub fn report(&mut self, rep: &mut Report) {
        rep.metric("setup_s", median(&mut self.total), "s");
    }

    /// The set-up layers: generation, sealing and the index build.
    pub fn report_layers(&mut self, rep: &mut Report, build: &flix::BuildReport) {
        rep.metric("workloads.generate_s", median(&mut self.generate), "s");
        rep.metric("xmlgraph.seal_s", median(&mut self.seal), "s");
        rep.metric("flix.build_s", median(&mut self.build), "s");
        rep.metric("flix.build_cpu_s", build.cpu_micros() as f64 / 1e6, "s");
        rep.metric(
            "flix.critical_path_s",
            build.critical_path_micros() as f64 / 1e6,
            "s",
        );
    }
}
