//! The benchmark's own answer oracle, computed apart from the program.
//!
//! Every check works from a breadth-first search over the sealed element
//! graph (`CollectionGraph::graph`, every edge costs one hop) that this
//! file implements itself. The search reuses one distance array and resets
//! only the entries it touched, so the oracle adds little to the
//! process's resident set.

use flix::QueryResult;
use graphcore::Digraph;
use std::collections::{HashSet, VecDeque};
use xmlgraph::{CollectionGraph, TagId};

/// Unreached marker in the distance array.
const UNREACHED: u32 = u32::MAX;

/// A reusable breadth-first search.
#[derive(Default)]
pub struct Bfs {
    dist: Vec<u32>,
    reached: Vec<u32>,
    queue: VecDeque<u32>,
}

impl Bfs {
    /// Searches from `start`, following edges up to `cap` hops
    /// (`u32::MAX` for the whole reachable set).
    pub fn run(&mut self, g: &Digraph, start: u32, cap: u32) {
        for &v in &self.reached {
            self.dist[v as usize] = UNREACHED;
        }
        self.reached.clear();
        if self.dist.len() < g.node_count() {
            self.dist.resize(g.node_count(), UNREACHED);
        }
        self.dist[start as usize] = 0;
        self.reached.push(start);
        self.queue.push_back(start);
        while let Some(u) = self.queue.pop_front() {
            let du = self.dist[u as usize];
            if du >= cap {
                continue;
            }
            for &v in g.successors(u) {
                if self.dist[v as usize] == UNREACHED {
                    self.dist[v as usize] = du + 1;
                    self.reached.push(v);
                    self.queue.push_back(v);
                }
            }
        }
    }

    /// Hop distance of `v` from the last start, if reached.
    pub fn dist(&self, v: u32) -> Option<u32> {
        match self.dist.get(v as usize) {
            Some(&d) if d != UNREACHED => Some(d),
            _ => None,
        }
    }

    /// Nodes the last search reached, the start included.
    pub fn reached(&self) -> &[u32] {
        &self.reached
    }

    /// Reached nodes other than `start` that carry `tag`: the expected
    /// answer set of `start//tag` (within the search's cap).
    fn expected(&self, cg: &CollectionGraph, start: u32, tag: TagId) -> usize {
        self.reached
            .iter()
            .filter(|&&v| v != start && cg.tag_of(v) == tag)
            .count()
    }
}

/// Checks what every answer must satisfy: each result is a distinct,
/// reached, correctly tagged node other than the start, reported at a
/// distance no lower than its BFS distance and no higher than `cap`.
fn check_members(
    cg: &CollectionGraph,
    bfs: &Bfs,
    start: u32,
    tag: TagId,
    cap: u32,
    results: &[QueryResult],
) -> Result<(), String> {
    let mut seen = HashSet::with_capacity(results.len());
    for r in results {
        if r.node == start {
            return Err(format!("start {start} returned as its own descendant"));
        }
        if !seen.insert(r.node) {
            return Err(format!("node {} returned twice", r.node));
        }
        if cg.tag_of(r.node) != tag {
            return Err(format!("node {} has the wrong tag", r.node));
        }
        let Some(d) = bfs.dist(r.node) else {
            return Err(format!("node {} is not reachable from {start}", r.node));
        };
        if r.distance < d {
            return Err(format!(
                "node {} reported at distance {} below its BFS distance {d}",
                r.node, r.distance
            ));
        }
        if r.distance > cap {
            return Err(format!(
                "node {} reported at distance {} beyond the cap {cap}",
                r.node, r.distance
            ));
        }
    }
    Ok(())
}

/// An uncapped answer: exactly the BFS answer set, distances no lower
/// than BFS. `bfs` must hold an uncapped search from `start`.
pub fn check_full(
    cg: &CollectionGraph,
    bfs: &Bfs,
    start: u32,
    tag: TagId,
    results: &[QueryResult],
) -> Result<(), String> {
    check_members(cg, bfs, start, tag, u32::MAX, results)?;
    let want = bfs.expected(cg, start, tag);
    if results.len() != want {
        return Err(format!(
            "{} results where BFS finds {want} for {start}//{tag}",
            results.len()
        ));
    }
    Ok(())
}

/// An exact-order answer: the full answer set, every distance equal to
/// BFS, in ascending order.
pub fn check_exact(
    cg: &CollectionGraph,
    bfs: &Bfs,
    start: u32,
    tag: TagId,
    results: &[QueryResult],
) -> Result<(), String> {
    check_full(cg, bfs, start, tag, results)?;
    for r in results {
        if Some(r.distance) != bfs.dist(r.node) {
            return Err(format!(
                "exact-order distance {} of node {} differs from BFS",
                r.distance, r.node
            ));
        }
    }
    if results.windows(2).any(|w| w[1].distance < w[0].distance) {
        return Err("exact-order answer is not in ascending distance".into());
    }
    Ok(())
}

/// A distance-capped answer: members in range; returns how many in-range
/// nodes the answer misses (the known capped-query fault). `bfs` must hold
/// a search from `start` capped at `cap` or deeper.
pub fn check_capped(
    cg: &CollectionGraph,
    bfs: &Bfs,
    start: u32,
    tag: TagId,
    cap: u32,
    results: &[QueryResult],
) -> Result<usize, String> {
    check_members(cg, bfs, start, tag, cap, results)?;
    let want = bfs
        .reached()
        .iter()
        .filter(|&&v| v != start && cg.tag_of(v) == tag && bfs.dist(v).is_some_and(|d| d <= cap))
        .count();
    // Members are distinct and in range, so the count tells what is missing.
    Ok(want - results.len())
}

/// A top-k answer within a distance cap: at most `k` members in range,
/// and the whole in-range set when shorter than `k`.
pub fn check_topk(
    cg: &CollectionGraph,
    bfs: &Bfs,
    start: u32,
    tag: TagId,
    cap: u32,
    k: usize,
    results: &[QueryResult],
) -> Result<(), String> {
    if results.len() > k {
        return Err(format!("{} results for a top-{k} query", results.len()));
    }
    let missing = check_capped(cg, bfs, start, tag, cap, results)?;
    if results.len() < k && missing > 0 {
        return Err(format!(
            "top-{k} answer has {} results but misses {missing} in range",
            results.len()
        ));
    }
    Ok(())
}

/// A connection test: the verdict agrees with BFS reachability and a
/// reported distance is no lower than BFS. `bfs` must hold an uncapped
/// search from the test's source.
pub fn check_connection(bfs: &Bfs, to: u32, answer: Option<u32>) -> Result<(), String> {
    match (bfs.dist(to), answer) {
        (None, None) => Ok(()),
        (Some(d), Some(a)) if a >= d => Ok(()),
        (Some(d), Some(a)) => Err(format!("connection distance {a} below BFS {d}")),
        (Some(_), None) => Err(format!("reachable node {to} reported unconnected")),
        (None, Some(a)) => Err(format!("unreachable node {to} reported at distance {a}")),
    }
}

/// Recovered blobs against the benchmark's record of what it put: the
/// same names, and the same bytes for each.
pub fn check_blobs(
    record: &[(String, Vec<u8>)],
    recovered_names: &[&str],
    get: impl Fn(&str) -> Option<Vec<u8>>,
) -> Result<(), String> {
    let mut want: Vec<&str> = record.iter().map(|(n, _)| n.as_str()).collect();
    want.sort_unstable();
    let mut have = recovered_names.to_vec();
    have.sort_unstable();
    if want != have {
        return Err(format!(
            "recovered {} blobs where {} were committed",
            have.len(),
            want.len()
        ));
    }
    for (name, bytes) in record {
        match get(name) {
            Some(got) if got == *bytes => {}
            Some(_) => return Err(format!("recovered blob {name} differs from what was put")),
            None => return Err(format!("blob {name} unreadable after recovery")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flix::{Flix, FlixConfig, QueryOptions};
    use std::sync::Arc;
    use xmlgraph::{Collection, Document, LinkTarget};

    /// `a.xml`: paper → sec → cite ⇒ `b.xml`; `b.xml`: paper → sec → note;
    /// `c.xml`: paper → note (unlinked). Distances from a's root:
    /// a.sec 1, a.cite 2, b.paper 3, b.sec 4, b.note 5.
    fn tiny() -> (Arc<CollectionGraph>, TagId, TagId) {
        let mut c = Collection::new();
        let paper = c.tags.intern("paper");
        let sec = c.tags.intern("sec");
        let cite = c.tags.intern("cite");
        let note = c.tags.intern("note");
        let mut a = Document::new("a.xml");
        let r = a.add_element(paper, None);
        let s = a.add_element(sec, Some(r));
        let k = a.add_element(cite, Some(s));
        a.add_link(
            k,
            LinkTarget {
                document: Some("b.xml".into()),
                fragment: None,
            },
        );
        let mut b = Document::new("b.xml");
        let r = b.add_element(paper, None);
        let s = b.add_element(sec, Some(r));
        b.add_element(note, Some(s));
        let mut d = Document::new("c.xml");
        let r = d.add_element(paper, None);
        d.add_element(note, Some(r));
        for doc in [a, b, d] {
            c.add_document(doc).expect("distinct names");
        }
        (Arc::new(c.seal()), sec, note)
    }

    fn res(node: u32, distance: u32) -> QueryResult {
        QueryResult { distance, node }
    }

    #[test]
    fn known_distances() {
        let (cg, sec, note) = tiny();
        let mut bfs = Bfs::default();
        let a = cg.doc_root(0);
        bfs.run(&cg.graph, a, u32::MAX);
        let b_note = cg.global(1, 2);
        assert_eq!(bfs.dist(b_note), Some(5));
        assert_eq!(bfs.dist(cg.global(1, 1)), Some(4));
        assert_eq!(bfs.dist(cg.doc_root(2)), None);
        assert!(check_full(&cg, &bfs, a, note, &[res(b_note, 5)]).is_ok());
        assert!(check_exact(
            &cg,
            &bfs,
            a,
            sec,
            &[res(cg.global(0, 1), 1), res(cg.global(1, 1), 4)]
        )
        .is_ok());
    }

    #[test]
    fn program_answers_pass() {
        let (cg, sec, note) = tiny();
        let mut bfs = Bfs::default();
        for config in [FlixConfig::Naive, FlixConfig::MaximalPpo] {
            let flix = Flix::build(cg.clone(), config);
            for start in 0..cg.node_count() as u32 {
                for tag in [sec, note] {
                    bfs.run(&cg.graph, start, u32::MAX);
                    let full = flix.find_descendants(start, tag, &QueryOptions::default());
                    check_full(&cg, &bfs, start, tag, &full).expect("full");
                    let exact = flix.find_descendants(start, tag, &QueryOptions::exact());
                    check_exact(&cg, &bfs, start, tag, &exact).expect("exact");
                    bfs.run(&cg.graph, start, 4);
                    let capped = flix.find_descendants(start, tag, &QueryOptions::within(4));
                    assert_eq!(check_capped(&cg, &bfs, start, tag, 4, &capped), Ok(0));
                }
            }
        }
    }

    #[test]
    fn dropped_in_range_node_is_caught() {
        let (cg, sec, _) = tiny();
        let mut bfs = Bfs::default();
        let a = cg.doc_root(0);
        bfs.run(&cg.graph, a, u32::MAX);
        let answer = [res(cg.global(0, 1), 1)];
        assert!(check_full(&cg, &bfs, a, sec, &answer).is_err());
        bfs.run(&cg.graph, a, 4);
        assert_eq!(check_capped(&cg, &bfs, a, sec, 4, &answer), Ok(1));
    }

    #[test]
    fn distance_below_bfs_is_caught() {
        let (cg, sec, note) = tiny();
        let mut bfs = Bfs::default();
        let a = cg.doc_root(0);
        bfs.run(&cg.graph, a, u32::MAX);
        assert!(check_full(&cg, &bfs, a, note, &[res(cg.global(1, 2), 4)]).is_err());
        let answer = [res(cg.global(0, 1), 1), res(cg.global(1, 1), 3)];
        assert!(check_full(&cg, &bfs, a, sec, &answer).is_err());
        assert!(check_connection(&bfs, cg.global(1, 2), Some(4)).is_err());
        assert!(check_connection(&bfs, cg.global(1, 2), Some(5)).is_ok());
        assert!(check_connection(&bfs, cg.doc_root(2), Some(9)).is_err());
        assert!(check_connection(&bfs, cg.global(1, 2), None).is_err());
    }

    #[test]
    fn short_topk_must_be_whole_range() {
        let (cg, sec, _) = tiny();
        let mut bfs = Bfs::default();
        let a = cg.doc_root(0);
        bfs.run(&cg.graph, a, 4);
        let whole = [res(cg.global(0, 1), 1), res(cg.global(1, 1), 4)];
        assert!(check_topk(&cg, &bfs, a, sec, 4, 10, &whole).is_ok());
        assert!(check_topk(&cg, &bfs, a, sec, 4, 1, &whole[..1]).is_ok());
        assert!(check_topk(&cg, &bfs, a, sec, 4, 10, &whole[..1]).is_err());
        assert!(check_topk(&cg, &bfs, a, sec, 4, 1, &whole).is_err());
    }

    #[test]
    fn changed_blob_byte_is_caught() {
        let record = vec![("f/manifest".to_string(), vec![1u8, 2, 3])];
        let names = ["f/manifest"];
        assert!(check_blobs(&record, &names, |_| Some(vec![1, 2, 3])).is_ok());
        assert!(check_blobs(&record, &names, |_| Some(vec![1, 2, 4])).is_err());
        assert!(check_blobs(&record, &[], |_| Some(vec![1, 2, 3])).is_err());
    }
}
