//! `fileshare_search`: the paper's keyword-search application.  A
//! `FileCorpus` loads during set-up.  In the timed phase new files and their
//! postings are published through the DHT every epoch (writes), and one-shot
//! keyword searches arrive beside them on a seeded schedule from a set of
//! portal nodes (reads).  Keywords are Zipf-distributed, so repeated query
//! texts hit the origin's plan cache.  Planning, dissemination, DHT `put`
//! routing and Fetch-Matches probes do the work.

use super::{period, Action, Publish, Scale, Scenario, Submit, Timed};
use pier_apps::filesharing::{files_table, keywords_table, FileCorpus, VOCABULARY};
use pier_apps::netmon::NetworkMonitor;
use pier_core::prelude::*;
use pier_simnet::DetRng;
use std::collections::BTreeSet;

/// Writes land this far into each round; searches arrive inside
/// [`SEARCH_FROM_MS`, `SEARCH_TO_MS`), after the round's writes are stored
/// and with time to finish their scans before the next writes, so every
/// search's answer is exactly the data written before it.
const WRITE_AT_MS: u64 = 250;
const SEARCH_FROM_MS: u64 = 1_500;
const SEARCH_TO_MS: u64 = 3_000;

/// Of every round's searches, this many use the symmetric-rehash form; the
/// rest put the inverted index on the probing side (Fetch-Matches).  A
/// rehash search ships the whole `files` table, so a fixed count per round
/// keeps the workload's cost from swinging with the seed.
const REHASH_PER_ROUND: usize = 4;

/// Zipf exponent of keyword popularity.
const ZIPF_S: f64 = 0.9;

struct Sizes {
    corpus: usize,
    writes_per_round: usize,
    searches_per_round: usize,
    portals: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => {
            Sizes { corpus: 2_000, writes_per_round: 40, searches_per_round: 16, portals: 12 }
        }
        Scale::Tiny => {
            Sizes { corpus: 200, writes_per_round: 5, searches_per_round: 8, portals: 4 }
        }
    }
}

pub fn scenario(seed: u64, scale: Scale) -> Scenario {
    let nodes = scale.nodes();
    let size = sizes(scale);
    let corpus = FileCorpus::generate(size.corpus, nodes, seed);
    let mut rng = DetRng::new(seed).stream(0xF5EA);

    // Set-up load: each node publishes the files (and postings) it owns in
    // the corpus's own round-robin placement.
    let mut base = Vec::new();
    for (table, rows) in [("files", corpus.files()), ("keywords", corpus.postings())] {
        let mut per_node: Vec<Vec<Tuple>> = vec![Vec::new(); nodes];
        for (i, row) in rows.iter().enumerate() {
            per_node[i % nodes].push(row.clone());
        }
        for (from, rows) in per_node.into_iter().enumerate().filter(|(_, r)| !r.is_empty()) {
            base.push(Publish { from, table, rows, routed: true });
        }
    }
    let indexed: BTreeSet<&str> =
        corpus.postings().iter().filter_map(|p| p.get(0).as_str()).collect();
    let mut keywords = zipf_quota(&indexed, scale.rounds() as usize * size.searches_per_round);
    rng.shuffle(&mut keywords);
    let mut keywords = keywords.into_iter();

    let mut timed = Vec::new();
    let mut next_id = size.corpus as i64;
    let mut searches = 0usize;
    for r in 0..scale.rounds() {
        let round_start = r * period().as_millis();
        // Writes: new files, each published with its postings from its
        // owner's node.
        let mut files: Vec<Vec<Tuple>> = vec![Vec::new(); nodes];
        let mut postings: Vec<Vec<Tuple>> = vec![Vec::new(); nodes];
        for _ in 0..size.writes_per_round {
            let owner = rng.index(nodes);
            let mut kws: Vec<&str> = Vec::new();
            for _ in 0..1 + rng.index(4) {
                let kw = VOCABULARY[rng.zipf(VOCABULARY.len(), ZIPF_S)];
                if !kws.contains(&kw) {
                    kws.push(kw);
                }
            }
            files[owner].push(Tuple::new(vec![
                Value::Int(next_id),
                Value::str(format!("{}-{next_id}.dat", kws[0])),
                Value::str(NetworkMonitor::host_name(owner)),
                Value::Int(rng.heavy_tail(16.0, 1.2, 4_000_000.0) as i64),
            ]));
            for kw in kws {
                postings[owner].push(Tuple::new(vec![Value::str(kw), Value::Int(next_id)]));
            }
            next_id += 1;
        }
        let at = Duration::from_millis(round_start + WRITE_AT_MS);
        for (table, per_node) in [("files", files), ("keywords", postings)] {
            for (from, rows) in per_node.into_iter().enumerate().filter(|(_, r)| !r.is_empty()) {
                timed.push(Timed {
                    at,
                    action: Action::Publish(Publish { from, table, rows, routed: true }),
                });
            }
        }
        // Reads: searches at seeded instants inside the round's read slot.
        let mut arrivals: Vec<u64> = (0..size.searches_per_round)
            .map(|_| round_start + rng.range_u64(SEARCH_FROM_MS, SEARCH_TO_MS))
            .collect();
        arrivals.sort_unstable();
        let mut rehash: Vec<bool> =
            (0..size.searches_per_round).map(|i| i < REHASH_PER_ROUND).collect();
        rng.shuffle(&mut rehash);
        for (at_ms, rehash) in arrivals.into_iter().zip(rehash) {
            let kw = keywords.next().expect("one keyword per search");
            let portal = rng.index(size.portals);
            let from = portal * (nodes / size.portals) + 1;
            let (form, sql) = if rehash {
                ("rehash", FileCorpus::search_sql(kw))
            } else {
                ("probe", FileCorpus::probe_search_sql(kw))
            };
            timed.push(Timed {
                at: Duration::from_millis(at_ms),
                action: Action::Search(Submit {
                    from,
                    sql,
                    label: format!("search{searches}:{form}:{kw}"),
                }),
            });
            searches += 1;
        }
    }
    timed.sort_by_key(|t| t.at);

    Scenario {
        tables: vec![files_table(), keywords_table()],
        stats: vec![("files", corpus.files_stats()), ("keywords", corpus.keywords_stats())],
        base,
        continuous: Vec::new(),
        timed,
    }
}

/// `n` search keywords whose counts follow Zipf popularity over the
/// vocabulary's rank order exactly (largest remainder), restricted to
/// keywords the corpus indexes: an empty answer has no arrival to time.
fn zipf_quota(indexed: &BTreeSet<&str>, n: usize) -> Vec<&'static str> {
    let ranked: Vec<(usize, &'static str)> =
        VOCABULARY.iter().copied().enumerate().filter(|(_, kw)| indexed.contains(kw)).collect();
    let weights: Vec<f64> =
        ranked.iter().map(|&(r, _)| 1.0 / ((r + 1) as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &i in by_remainder.iter().take(n - counts.iter().sum::<usize>()) {
        counts[i] += 1;
    }
    ranked.iter().zip(counts).flat_map(|(&(_, kw), c)| std::iter::repeat_n(kw, c)).collect()
}
