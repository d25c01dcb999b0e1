//! Golden pin of the physical planner's join lowering.
//!
//! Plans a fixed corpus of joins under six planners — cost-chosen,
//! bushy-enabled, trace-fed (observed statistics plus bushy shapes, the
//! feedback re-plan path) and each forced join strategy — and compares the
//! `{:?}` of every planned [`QueryKind`] and its strategy note (the text
//! `EXPLAIN` prints) against `tests/golden/planner_lowering.txt`.
//!
//! The corpus covers:
//! * two-way joins under each forced strategy, and one where the cost model
//!   picks Fetch-Matches;
//! * three-way joins with pushed-down single-relation filters,
//!   cross-relation residuals and a non-key equi-predicate, and one whose
//!   final stage carries an inner-stage Bloom semi-join;
//! * the four-way bushy shape, with residuals and an extra equi-predicate
//!   that cross its two subchains;
//! * aggregates over joins that plan colocated with the final stage,
//!   hierarchical but not colocated, raw rows at the origin, and windowed.
//!
//! A refactor of the lowering must leave every entry byte-identical.  When a
//! plan change is intended, regenerate the golden file with
//! `PIER_BLESS=1 cargo test --test planner_lowering` and review its diff.

use pier::apps::netmon::netstats_table;
use pier::apps::snort::intrusions_table;
use pier::apps::topology::links_table;
use pier::core::planner::ObservedStats;
use pier::core::{Catalog, JoinStrategy, Planner, QueryKind, TableStats};
use pier::prelude::*;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/planner_lowering.txt");

/// netstats ⋈ links ⋈ intrusions with moderate statistics.
fn netmon_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register(netstats_table());
    cat.register(links_table());
    cat.register(intrusions_table());
    cat.set_stats("netstats", TableStats::with_rows(2_000).distinct_keys(500));
    cat.set_stats("links", TableStats::with_rows(1_000).distinct_keys(500));
    cat.set_stats("intrusions", TableStats::with_rows(5_000).distinct_keys(250));
    cat
}

/// The same schema with a huge `links` relation against a small
/// intrusions ⋈ netstats intermediate: the final stage gets an inner Bloom.
fn skewed_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register(netstats_table());
    cat.register(links_table());
    cat.register(intrusions_table());
    cat.set_stats("intrusions", TableStats::with_rows(50).distinct_keys(50));
    cat.set_stats("netstats", TableStats::with_rows(200).distinct_keys(200));
    cat.set_stats("links", TableStats::with_rows(100_000).distinct_keys(5_000));
    cat
}

/// The four-table schema whose statistics make two selective subchains
/// beat every left-deep order (the shape `tests/adaptive.rs` runs).
fn bushy_catalog() -> Catalog {
    let table = |name: &str, key: &str, col: &str, ty: DataType| {
        TableDef::new(
            name,
            Schema::of(&[(key, DataType::Str), (col, ty)]),
            key,
            Duration::from_secs(600),
        )
    };
    let mut cat = Catalog::new();
    cat.register(table("sensors", "host", "temp", DataType::Float));
    cat.register(table("alerts", "host", "level", DataType::Int));
    cat.register(table("flows", "src", "bytes", DataType::Float));
    cat.register(table("routes", "src", "hops", DataType::Int));
    cat.set_stats("sensors", TableStats::with_rows(50_000).distinct_keys(5_000));
    cat.set_stats("alerts", TableStats::with_rows(2_000).distinct_keys(20));
    cat.set_stats("flows", TableStats::with_rows(50_000).distinct_keys(5_000));
    cat.set_stats("routes", TableStats::with_rows(2_000).distinct_keys(20));
    cat
}

/// Trace-fed row counts that disagree with the catalogs above.
fn observed() -> ObservedStats {
    let mut obs = ObservedStats::default();
    for (table, rows) in
        [("netstats", 150.0), ("links", 4_000.0), ("sensors", 300.0), ("routes", 9_000.0)]
    {
        obs.table_rows.insert(table.to_string(), rows);
    }
    obs
}

const NETMON: &[(&str, &str)] = &[
    (
        "2way",
        "SELECT i.host, i.rule_id, n.out_rate FROM intrusions i JOIN netstats n ON i.host = n.host",
    ),
    (
        "2way_cost_fetch",
        "SELECT i.rule_id, n.out_rate FROM intrusions i JOIN netstats n ON i.host = n.host \
         WHERE i.rule_id = 7",
    ),
    (
        "3way_residuals",
        "SELECT n.host, l.dst, i.rule_id, i.hits FROM netstats n \
         JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
         WHERE n.out_rate > 2 AND n.host = i.description AND i.hits > n.out_rate \
         AND l.kind <> i.description",
    ),
    (
        "agg_colocated",
        "SELECT i.host, COUNT(*) AS n, SUM(n.out_rate) AS total, MAX(i.hits) AS hi \
         FROM netstats n JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
         WHERE n.out_rate > 2 GROUP BY i.host HAVING COUNT(*) >= 2 ORDER BY i.host",
    ),
    (
        "agg_hierarchical",
        "SELECT l.kind, COUNT(*) AS n, SUM(n.out_rate) AS total \
         FROM netstats n JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
         GROUP BY l.kind ORDER BY l.kind",
    ),
    (
        "agg_raw_at_origin",
        "SELECT n.host, l.dst, i.rule_id, COUNT(*) AS c \
         FROM netstats n JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
         GROUP BY n.host, l.dst, i.rule_id",
    ),
    (
        "agg_windowed",
        "SELECT l.src, COUNT(*) AS c, SUM(i.hits) AS h FROM links l \
         JOIN intrusions i ON l.dst = i.host GROUP BY l.src \
         WINDOW TUMBLING 2 EPOCHS CONTINUOUS EVERY 5 SECONDS",
    ),
    (
        "agg_global",
        "SELECT COUNT(*) AS n, SUM(n.out_rate) AS total FROM netstats n \
         JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
         WHERE n.out_rate > 1000",
    ),
];

const SKEWED: &[(&str, &str)] = &[(
    "3way_inner_bloom",
    "SELECT i.host, n.out_rate, l.dst FROM intrusions i \
     JOIN netstats n ON i.host = n.host JOIN links l ON n.host = l.dst",
)];

const BUSHY: &[(&str, &str)] = &[
    (
        "4way",
        "SELECT s.host, a.level, f.bytes, r.hops FROM sensors s \
         JOIN alerts a ON s.host = a.host JOIN flows f ON s.host = f.src \
         JOIN routes r ON f.src = r.src",
    ),
    (
        "4way_filtered",
        "SELECT s.host, a.level, f.bytes, r.hops FROM sensors s \
         JOIN alerts a ON s.host = a.host JOIN flows f ON s.host = f.src \
         JOIN routes r ON f.src = r.src WHERE s.temp > -10 AND f.bytes < 12 AND r.hops <> 4",
    ),
    (
        "4way_crossing",
        "SELECT s.host, a.level, f.bytes, r.hops FROM sensors s \
         JOIN alerts a ON s.host = a.host JOIN flows f ON s.host = f.src \
         JOIN routes r ON f.src = r.src \
         WHERE a.host = r.src AND a.level < r.hops AND s.temp > a.level",
    ),
    (
        "4way_agg_merge_key",
        "SELECT s.host, COUNT(*) AS n, SUM(f.bytes) AS b FROM sensors s \
         JOIN alerts a ON s.host = a.host JOIN flows f ON s.host = f.src \
         JOIN routes r ON f.src = r.src GROUP BY s.host",
    ),
    (
        "4way_agg_other",
        "SELECT a.level, COUNT(*) AS n, MAX(r.hops) AS h FROM sensors s \
         JOIN alerts a ON s.host = a.host JOIN flows f ON s.host = f.src \
         JOIN routes r ON f.src = r.src GROUP BY a.level",
    ),
];

/// Plan the whole corpus under every planner and render one block per plan.
fn render_corpus() -> String {
    let obs = observed();
    let mut out = String::new();
    for (schema, catalog, queries) in [
        ("netmon", netmon_catalog(), NETMON),
        ("skewed", skewed_catalog(), SKEWED),
        ("bushy", bushy_catalog(), BUSHY),
    ] {
        let planners: [(&str, Planner<'_>); 6] = [
            ("cost", Planner::new(&catalog)),
            ("bushy", Planner::new(&catalog).allow_bushy()),
            ("observed", Planner::new(&catalog).observed(&obs).allow_bushy()),
            ("symmetric", Planner::with_join_strategy(&catalog, JoinStrategy::SymmetricHash)),
            ("fetch", Planner::with_join_strategy(&catalog, JoinStrategy::FetchMatches)),
            ("bloom", Planner::with_join_strategy(&catalog, JoinStrategy::BloomFilter)),
        ];
        for (label, sql) in queries {
            let stmt = pier::core::sql::parse_select(sql).expect("corpus SQL parses");
            for (planner_name, planner) in &planners {
                let planned = planner.plan_select(&stmt).expect("corpus SQL plans");
                assert!(matches!(planned.kind, QueryKind::Join { .. }), "{label}: not a join");
                writeln!(out, "=== {schema}/{label} [{planner_name}]").unwrap();
                writeln!(out, "kind: {:?}", planned.kind).unwrap();
                writeln!(out, "note: {:?}", planned.strategy_note).unwrap();
            }
        }
    }
    out
}

#[test]
fn join_lowering_matches_the_golden_file() {
    let actual = render_corpus();
    if std::env::var_os("PIER_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &actual).expect("golden file is writable");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; generate it with PIER_BLESS=1");
    if actual == expected {
        return;
    }
    // Name the first plan that moved, with both renderings.
    let mut header = "";
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        if a.starts_with("=== ") {
            header = a;
        }
        if a != e {
            panic!("line {}: plan {header} changed\n  expected: {e}\n  actual:   {a}", i + 1);
        }
    }
    panic!(
        "corpus length changed: {} lines planned vs {} golden",
        actual.lines().count(),
        expected.lines().count()
    );
}

#[test]
fn corpus_reaches_every_lowering_shape() {
    // The golden file is only a pin if the corpus exercises each shape the
    // lowering distinguishes.
    let text = render_corpus();
    for needle in [
        "strategy: FetchMatches",
        "Fetch-Matches: ~",
        "strategy: BloomFilter",
        "inner_bloom: true",
        "[bushy]",
        "left_scan: Some",
        "out_to: Some",
        "post_filter: Some",
        "colocated with the final join stage",
        "colocated with the merge stage",
        "hierarchical: true, window: None, colocated: false",
        "at origin over raw rows",
        "window: Some",
    ] {
        assert!(text.contains(needle), "the corpus no longer reaches {needle:?}");
    }
}
