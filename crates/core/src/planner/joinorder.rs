//! Join-order enumeration for multi-way joins.
//!
//! Given the binder's relation list and equi-predicate graph plus per-scan
//! pushed-down filters, this module picks the join order the staged
//! distributed execution will run, costed from [`Catalog`]
//! [`TableStats`](crate::catalog::TableStats) — the very cardinalities the
//! PR 3 statistics gossip keeps converged network-wide.  Up to
//! [`DP_MAX_RELATIONS`] relations the search is exact (dynamic programming
//! over connected subsets, the classic System-R construction restricted to
//! **left-deep** trees, the shape the stage chain executes); above that, a
//! greedy heuristic grows the chain by the cheapest connected extension.
//! For unforced joins of ≥ 4 relations the enumerator additionally
//! considers **bushy** shapes — two independent subchains meeting at a
//! rehash-merge stage ([`BushyChoice`]) — and takes one when its shipped
//! cost beats the best left-deep order (see `choose_order`'s `bushy`
//! parameter and the stage-DAG notes in `docs/ARCHITECTURE.md`).
//!
//! Each stage also gets its [`JoinStrategy`] — symmetric rehash,
//! Fetch-Matches, or (for a stage whose sides are both base tables) the
//! Bloom-filter semi-join — using the same cost rules the two-way planner
//! has always applied.
//!
//! Cost proxy: tuples shipped over the wire, the quantity PIER actually
//! pays for.  A symmetric-rehash stage ships both sides; a Fetch-Matches
//! stage pays `FETCH_PROBE_COST` routed messages per probing tuple.  With
//! `PierConfig::feedback`, per-query [`ObservedStats`] folded from
//! collected execution traces override the catalog estimates the next time
//! the origin re-plans — the trace-fed costing loop.

use crate::catalog::Catalog;
use crate::expr::Expr;
use crate::query::JoinStrategy;
use std::collections::HashMap;

use super::binder::{BoundTable, EquiPred};
use super::physical::{
    selectivity, DEFAULT_ROW_ESTIMATE, FETCH_PROBE_COST, {BLOOM_MIN_RIGHT, BLOOM_SKEW},
};

/// Trace-fed statistics observed while a query actually ran: per-table
/// filtered cardinalities and per-stage join selectivities, folded from the
/// network-wide merge of [`OpTrace`](crate::trace::OpTrace) counters
/// (`stage_left_in` / `stage_right_in` / `stage_matches`, averaged per
/// epoch).  When supplied to [`choose_order_with`], these **override** the
/// catalog's static estimates — the feedback loop the paper's adaptivity
/// discussion calls for: the engine measures exactly what the enumerator
/// guessed, so the next plan is costed from ground truth.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObservedStats {
    /// Observed post-filter rows per table, per epoch.  Replaces the
    /// catalog-derived `base_est` (and the row basis of distinct-value
    /// guesses) for tables present in the map.
    pub table_rows: HashMap<String, f64>,
    /// Observed whole-stage join selectivity, keyed by
    /// `(right table, placed-set key)` where the placed-set key is the
    /// sorted, comma-joined table names accumulated before the stage ran
    /// (see [`ObservedStats::placed_key`]).  The value is
    /// `matches / (left_in · right_in)` — the combined selectivity of every
    /// predicate connecting the right table to the placed set, which is the
    /// exact quantity [`choose_order`]'s `extend` otherwise estimates from
    /// distinct-value counts.
    pub stage_selectivity: HashMap<(String, String), f64>,
}

impl ObservedStats {
    /// Canonical key for a set of placed table names: sorted and
    /// comma-joined, so the engine (folding traces over the *executed*
    /// order) and the enumerator (probing an arbitrary candidate order)
    /// agree whenever the sets agree.
    pub fn placed_key<'n>(names: impl IntoIterator<Item = &'n str>) -> String {
        let mut v: Vec<&str> = names.into_iter().collect();
        v.sort_unstable();
        v.join(",")
    }

    /// No observations recorded at all?
    pub fn is_empty(&self) -> bool {
        self.table_rows.is_empty() && self.stage_selectivity.is_empty()
    }
}

/// Exact (dynamic-programming) search is used up to this many relations;
/// larger queries fall back to the greedy heuristic.
pub const DP_MAX_RELATIONS: usize = 6;

/// Default distinct-value guess for a column without statistics: one tenth
/// of the relation's rows (a flat System-R style assumption).
const DEFAULT_DISTINCT_FRACTION: f64 = 0.1;

/// One stage of a chosen join order.
#[derive(Clone, Debug)]
pub struct StageChoice {
    /// The relation (index into the bound relation list) joined in here.
    pub rel: usize,
    /// Index (into the bound predicate list) of the predicate used as the
    /// stage's rehash/probe key.
    pub key_pred: usize,
    /// Other predicates connecting `rel` to the accumulated relations; they
    /// run as stage post-filters.
    pub extra_preds: Vec<usize>,
    /// Estimated rows of the stage's left input (the accumulated
    /// intermediate, or the filtered driving table for stage 0).
    pub left_est: f64,
    /// Estimated rows of the filtered right side.
    pub right_est: f64,
    /// Estimated rows of the stage's output.
    pub out_est: f64,
    /// The stage's join algorithm.
    pub strategy: JoinStrategy,
    /// Whether an inner-stage Bloom semi-join should prune this stage's
    /// right-relation rehash (symmetric-hash stages ≥ 1 only; stage 0 uses
    /// the dedicated [`JoinStrategy::BloomFilter`] protocol instead).
    pub inner_bloom: bool,
    /// Suggested Bloom geometry (bits) for the inner filter, sized from the
    /// estimated left-key population; 0 when `inner_bloom` is false.  The
    /// engine clamps this to its configured bounds.
    pub bloom_bits: u32,
    /// Human-readable rationale (surfaced by `EXPLAIN`).
    pub note: String,
}

/// The bushy half of an [`OrderPlan`]: the order is split into two
/// independent left-deep subchains (`order[..split]` and `order[split..]`)
/// whose outputs meet at a final rehash-merge stage.
#[derive(Clone, Debug)]
pub struct BushyChoice {
    /// Number of relations in the first subchain (`order[..split]`).
    pub split: usize,
    /// Index (into the bound predicate list) of the predicate keying the
    /// merge stage's rehash.
    pub key_pred: usize,
    /// Other predicates crossing the two subchains; they run as merge-stage
    /// post-filters.
    pub extra_preds: Vec<usize>,
    /// Estimated output rows of the first subchain (the merge's side 0).
    pub left_est: f64,
    /// Estimated output rows of the second subchain (the merge's side 1).
    pub right_est: f64,
    /// Estimated rows of the merged output.
    pub out_est: f64,
    /// Human-readable rationale (surfaced by `EXPLAIN`).
    pub note: String,
}

/// A complete join order: the relation permutation and per-stage choices.
#[derive(Clone, Debug)]
pub struct OrderPlan {
    /// Relation indexes in execution order (`order[0]` drives the chain).
    /// For bushy plans this is the first subchain's order followed by the
    /// second's.
    pub order: Vec<usize>,
    /// One entry per chain stage: `order.len() - 1` for left-deep plans;
    /// for bushy plans, the first subchain's stages followed by the
    /// second's (the merge stage is described by `bushy` instead).
    pub stages: Vec<StageChoice>,
    /// The merge-stage description when the enumerator chose a bushy shape.
    pub bushy: Option<BushyChoice>,
}

/// Everything the enumerator knows about the query, precomputed.
struct SearchContext<'a> {
    relations: &'a [BoundTable],
    preds: &'a [EquiPred],
    catalog: &'a Catalog,
    /// Filtered base-cardinality estimate per relation.
    base_est: Vec<f64>,
    /// Unfiltered base rows per relation (for EXPLAIN notes).
    base_rows: Vec<f64>,
    forced: Option<JoinStrategy>,
    /// Trace-fed overrides of the catalog estimates, when feedback supplied
    /// them.
    observed: Option<&'a ObservedStats>,
}

impl<'a> SearchContext<'a> {
    /// Estimated distinct values of `col` of relation `rel`: the gossiped
    /// partition-key count when the column is the partitioning column,
    /// otherwise a flat fraction of the row estimate.
    fn distinct(&self, rel: usize, col: usize) -> f64 {
        let name = &self.relations[rel].name;
        let partition = self.catalog.get(name).map(|d| d.partition_column);
        let keys = self.catalog.stats(name).and_then(|s| s.distinct_keys);
        match (partition, keys) {
            (Some(p), Some(k)) if p == col => (k as f64).max(1.0),
            _ => (self.base_rows[rel] * DEFAULT_DISTINCT_FRACTION).max(1.0),
        }
    }

    /// Is relation `rel` partitioned on `col` (a Fetch-Matches probe can
    /// answer with a single DHT `get`)?
    fn partitioned_on(&self, rel: usize, col: usize) -> bool {
        self.catalog.get(&self.relations[rel].name).map(|d| d.partition_column) == Some(col)
    }

    /// Cost and cardinality of extending the accumulated set `placed`
    /// (estimated at `card`) with relation `rel`.
    fn extend(&self, placed: &[usize], card: f64, rel: usize) -> Option<Extension> {
        let connecting: Vec<usize> =
            (0..self.preds.len()).filter(|&i| self.preds[i].connects(rel, placed)).collect();
        if connecting.is_empty() {
            return None;
        }
        let right_est = self.base_est[rel];

        // Output estimate: every connecting predicate divides by the larger
        // distinct-value count of its two columns.
        let mut out_est = card * right_est;
        let mut divisors: Vec<(usize, f64)> = Vec::with_capacity(connecting.len());
        for &i in &connecting {
            let p = &self.preds[i];
            let (other_rel, other_col, rel_col) = if p.left_rel == rel {
                (p.right_rel, p.right_col, p.left_col)
            } else {
                (p.left_rel, p.left_col, p.right_col)
            };
            let d = self.distinct(other_rel, other_col).max(self.distinct(rel, rel_col));
            divisors.push((i, d));
            out_est /= d;
        }
        let mut out_est = out_est.max(1.0);

        // Trace-fed override: when the engine has *measured* this exact
        // (placed set ⋈ rel) stage, its observed whole-stage selectivity
        // replaces the distinct-count guesses wholesale.
        if let Some(obs) = self.observed {
            let key =
                ObservedStats::placed_key(placed.iter().map(|&r| self.relations[r].name.as_str()));
            if let Some(&sel) = obs.stage_selectivity.get(&(self.relations[rel].name.clone(), key))
            {
                out_est = (card * right_est * sel).max(1.0);
            }
        }

        // Key predicate: a probe-enabling predicate when probing is what
        // the executor would actually run (the gate is the *same* rule
        // `assign_strategies` applies, so the search prices exactly the
        // plan that executes), else the most selective one.
        let sym_cost = card + right_est;
        let fetch = divisors
            .iter()
            .find(|(i, _)| {
                let col = self.preds[*i].col_on(rel).expect("pred connects rel");
                self.partitioned_on(rel, col)
            })
            .map(|&(i, _)| i)
            .filter(|_| card * FETCH_PROBE_COST <= right_est);
        let (key_pred, cost) = match fetch {
            Some(i) => (i, card * FETCH_PROBE_COST),
            None => {
                let best = divisors
                    .iter()
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("connecting is non-empty");
                (best.0, sym_cost)
            }
        };
        let extra_preds = connecting.into_iter().filter(|&i| i != key_pred).collect();
        Some(Extension { key_pred, extra_preds, cost, out_est, right_est })
    }

    /// Final per-stage strategy selection for a fixed order (the same rules
    /// the two-way planner applies, generalized to stage position).
    fn assign_strategies(&self, order: &[usize]) -> Vec<StageChoice> {
        let mut stages = Vec::with_capacity(order.len() - 1);
        let mut card = self.base_est[order[0]];
        let mut placed = vec![order[0]];
        for (k, &rel) in order.iter().enumerate().skip(1) {
            let ext = self
                .extend(&placed, card, rel)
                .expect("orders are built from connected extensions");
            let left_est = card;
            let right_est = ext.right_est;
            let key_col = self.preds[ext.key_pred].col_on(rel).expect("key pred touches rel");
            let fetch_eligible = self.partitioned_on(rel, key_col);
            let name = &self.relations[rel].name;
            let left_rows = if k == 1 { self.base_rows[order[0]] } else { left_est };

            let (strategy, note) = match self.forced {
                Some(s) => {
                    let actual = match s {
                        JoinStrategy::FetchMatches if !fetch_eligible => {
                            JoinStrategy::SymmetricHash
                        }
                        // The Bloom protocol's phase structure needs both
                        // sides to be base tables, which only stage 0 has.
                        JoinStrategy::BloomFilter if k != 1 => JoinStrategy::SymmetricHash,
                        s => s,
                    };
                    if actual == s {
                        (actual, format!("{s:?} (forced by caller)"))
                    } else {
                        (actual, format!("{actual:?} (forced {s:?} not eligible here)"))
                    }
                }
                None => {
                    if fetch_eligible && left_est * FETCH_PROBE_COST <= right_est {
                        (
                            JoinStrategy::FetchMatches,
                            format!(
                                "Fetch-Matches: ~{left_est:.0} probing tuples (of \
                                 ~{left_rows:.0}) vs ~{right_est:.0} inner tuples; '{name}' \
                                 is partitioned on the join key"
                            ),
                        )
                    } else if k == 1
                        && right_est >= BLOOM_MIN_RIGHT
                        && right_est >= BLOOM_SKEW * left_est
                    {
                        (
                            JoinStrategy::BloomFilter,
                            format!(
                                "Bloom semi-join: right side ~{right_est:.0} tuples dwarfs \
                                 left ~{left_est:.0}; a key summary prunes the rehash"
                            ),
                        )
                    } else {
                        (
                            JoinStrategy::SymmetricHash,
                            format!(
                                "symmetric rehash: comparable cardinalities (~{left_est:.0} \
                                 left vs ~{right_est:.0} right), both sides ship to the \
                                 key's node"
                            ),
                        )
                    }
                }
            };

            // Inner-stage Bloom semi-join: a symmetric-hash stage past the
            // first can summarize the intermediate keys that reached its
            // join sites and prune the right relation's rehash through the
            // combined filter — worth the handshake under the same skew
            // rule that picks the stage-0 Bloom protocol.
            let inner_eligible = k != 1
                && strategy == JoinStrategy::SymmetricHash
                && right_est >= BLOOM_MIN_RIGHT
                && right_est >= BLOOM_SKEW * left_est;
            let (inner_bloom, bloom_bits, note) = if inner_eligible {
                let (bits, fp) = inner_bloom_geometry(left_est);
                let pass_est = ext.out_est.min(right_est);
                let fp_extra = (right_est - pass_est).max(0.0) * fp;
                (
                    true,
                    bits,
                    format!(
                        "{note}; inner Bloom semi-join: ~{left_est:.0} intermediate keys \
                         summarized in {bits} bits (k=4, FP budget {:.2}%) prune the \
                         right rehash to ~{:.0} of ~{right_est:.0} tuples",
                        fp * 100.0,
                        pass_est + fp_extra,
                    ),
                )
            } else {
                (false, 0, note)
            };
            stages.push(StageChoice {
                rel,
                key_pred: ext.key_pred,
                extra_preds: ext.extra_preds,
                left_est,
                right_est,
                out_est: ext.out_est,
                strategy,
                inner_bloom,
                bloom_bits,
                note,
            });
            card = ext.out_est;
            placed.push(rel);
        }
        stages
    }
}

struct Extension {
    key_pred: usize,
    extra_preds: Vec<usize>,
    cost: f64,
    out_est: f64,
    right_est: f64,
}

/// Size an inner-stage Bloom filter from the estimated key population it
/// must summarize: ~10 bits per expected key (a classic ≲1% false-positive
/// budget at k=4), rounded up to a power of two, floored at 1024 bits.
/// Returns `(bits, expected_false_positive_rate)`.  The engine clamps the
/// suggestion to its configured `[bloom_bits_min, bloom_bits_max]` range.
pub fn inner_bloom_geometry(left_est: f64) -> (u32, f64) {
    let raw = (left_est * 10.0).max(1024.0).min(u32::MAX as f64 / 2.0) as u64;
    let bits = raw.next_power_of_two() as u32;
    let k = 4.0_f64;
    let fp = (1.0 - (-k * left_est.max(1.0) / bits as f64).exp()).powf(k);
    (bits, fp)
}

/// Choose the join order and per-stage strategies for a bound join.
///
/// Two-way joins (and any join planned with a forced strategy, which
/// benchmarks use for apples-to-apples comparisons) keep the declared
/// relation order; three relations and up are reordered by cost.
pub fn choose_order(
    catalog: &Catalog,
    relations: &[BoundTable],
    preds: &[EquiPred],
    rel_filters: &[Option<Expr>],
    forced: Option<JoinStrategy>,
) -> OrderPlan {
    choose_order_with(catalog, relations, preds, rel_filters, forced, None, false)
}

/// [`choose_order`] with the feedback-loop knobs: trace-fed
/// [`ObservedStats`] overriding the catalog estimates, and permission to
/// pick a **bushy** shape (two independent subchains meeting at a
/// rehash-merge stage) when its shipped-tuple cost beats every left-deep
/// order.  Bushy shapes are only considered for unforced joins of ≥ 4
/// relations within the exact-search budget.
pub fn choose_order_with(
    catalog: &Catalog,
    relations: &[BoundTable],
    preds: &[EquiPred],
    rel_filters: &[Option<Expr>],
    forced: Option<JoinStrategy>,
    observed: Option<&ObservedStats>,
    bushy: bool,
) -> OrderPlan {
    let n = relations.len();
    let mut base_rows = Vec::with_capacity(n);
    let mut base_est = Vec::with_capacity(n);
    for (i, rel) in relations.iter().enumerate() {
        let observed_rows = observed.and_then(|o| o.table_rows.get(&rel.name)).copied();
        let rows = observed_rows
            .or_else(|| catalog.stats(&rel.name).map(|s| s.rows as f64))
            .unwrap_or(DEFAULT_ROW_ESTIMATE)
            .max(1.0);
        let partition = catalog.get(&rel.name).map(|d| d.partition_column);
        let distinct = catalog.stats(&rel.name).and_then(|s| s.distinct_keys);
        let eq_sel = move |col: usize| match (partition, distinct) {
            (Some(p), Some(k)) if p == col => (1.0 / k.max(1) as f64).clamp(1e-6, 1.0),
            _ => super::physical::DEFAULT_EQ_SELECTIVITY,
        };
        base_rows.push(rows);
        // Observed rows are already post-filter (the trace measured what the
        // scans actually shipped); catalog rows still need the filter's
        // estimated selectivity applied.
        base_est.push(match observed_rows {
            Some(r) => r.max(1.0),
            None => (rows * selectivity(&rel_filters[i], &eq_sel)).max(1.0),
        });
    }
    let ctx = SearchContext { relations, preds, catalog, base_est, base_rows, forced, observed };

    if n == 2 || forced.is_some() {
        let order = (0..n).collect::<Vec<_>>();
        let stages = ctx.assign_strategies(&order);
        return OrderPlan { order, stages, bushy: None };
    }
    if n > DP_MAX_RELATIONS {
        let order = greedy_order(&ctx, n);
        let stages = ctx.assign_strategies(&order);
        return OrderPlan { order, stages, bushy: None };
    }

    let dp = dp_table(&ctx, n);
    let full = (1usize << n) - 1;
    let (left_deep_cost, _, left_deep_order) =
        dp[full].clone().expect("the binder guarantees a connected predicate graph");

    if bushy && n >= 4 {
        if let Some(plan) = best_bushy(&ctx, &dp, n, left_deep_cost) {
            return plan;
        }
    }
    let stages = ctx.assign_strategies(&left_deep_order);
    OrderPlan { order: left_deep_order, stages, bushy: None }
}

/// Exact left-deep search: dynamic programming over connected subsets.
/// `dp[mask]` = best `(cost, card, order)` reaching exactly `mask`.
fn dp_table(ctx: &SearchContext<'_>, n: usize) -> Vec<Option<(f64, f64, Vec<usize>)>> {
    let full = (1usize << n) - 1;
    let mut dp: Vec<Option<(f64, f64, Vec<usize>)>> = vec![None; full + 1];
    for r in 0..n {
        dp[1 << r] = Some((0.0, ctx.base_est[r], vec![r]));
    }
    for mask in 1..=full {
        let Some((cost, card, order)) = dp[mask].clone() else { continue };
        for rel in 0..n {
            if mask & (1 << rel) != 0 {
                continue;
            }
            let Some(ext) = ctx.extend(&order, card, rel) else { continue };
            let next_mask = mask | (1 << rel);
            let next_cost = cost + ext.cost;
            let better = match &dp[next_mask] {
                None => true,
                Some((c, ..)) => next_cost < *c,
            };
            if better {
                let mut next_order = order.clone();
                next_order.push(rel);
                dp[next_mask] = Some((next_cost, ext.out_est, next_order));
            }
        }
    }
    dp
}

/// Search every 2-partition of the relations for a bushy shape cheaper than
/// the best left-deep order.  A bushy plan runs each part as its own
/// left-deep subchain and rehash-merges the two outputs, so its cost is the
/// two subchain costs plus shipping both outputs to the merge sites.
fn best_bushy(
    ctx: &SearchContext<'_>,
    dp: &[Option<(f64, f64, Vec<usize>)>],
    n: usize,
    left_deep_cost: f64,
) -> Option<OrderPlan> {
    let full = (1usize << n) - 1;
    let mut best: Option<(f64, usize)> = None; // (cost, mask of chain A)
                                               // Fixing relation 0 into chain A enumerates each unordered partition
                                               // once.
    for m1 in 1..=full {
        if m1 & 1 == 0 || m1 == full {
            continue;
        }
        let m2 = full ^ m1;
        if m1.count_ones() < 2 || m2.count_ones() < 2 {
            continue;
        }
        let (Some((c1, card1, _)), Some((c2, card2, _))) = (&dp[m1], &dp[m2]) else { continue };
        if crossing_preds(ctx.preds, m1, m2).is_empty() {
            continue;
        }
        let cost = c1 + c2 + card1 + card2;
        if cost < left_deep_cost && best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, m1));
        }
    }
    let (_, m1) = best?;
    let m2 = full ^ m1;
    let (_, card1, order1) = dp[m1].clone().expect("chosen mask is reachable");
    let (_, card2, order2) = dp[m2].clone().expect("chosen mask is reachable");

    // Merge estimate: every crossing predicate divides by the larger
    // distinct count of its endpoints, exactly like a chain extension.
    let connecting = crossing_preds(ctx.preds, m1, m2);
    let mut out_est = card1 * card2;
    let mut divisors: Vec<(usize, f64)> = Vec::with_capacity(connecting.len());
    for &i in &connecting {
        let p = &ctx.preds[i];
        let d = ctx.distinct(p.left_rel, p.left_col).max(ctx.distinct(p.right_rel, p.right_col));
        divisors.push((i, d));
        out_est /= d;
    }
    let out_est = out_est.max(1.0);
    let key_pred =
        divisors.iter().max_by(|a, b| a.1.total_cmp(&b.1)).expect("connected partition").0;
    let extra_preds: Vec<usize> = connecting.into_iter().filter(|&i| i != key_pred).collect();

    let mut stages = ctx.assign_strategies(&order1);
    let mut chain_b = ctx.assign_strategies(&order2);
    // A subchain root past global stage 0 cannot run the stage-0 Bloom
    // protocol (its phase-2 broadcast is keyed to stage 0); degrade to the
    // symmetric rehash the merge DAG executes everywhere.
    if let Some(first) = chain_b.first_mut() {
        if first.strategy == JoinStrategy::BloomFilter {
            first.strategy = JoinStrategy::SymmetricHash;
            first.note = format!("{} (Bloom ineligible at a subchain root)", first.note);
        }
    }
    stages.append(&mut chain_b);

    let names = |order: &[usize]| {
        order.iter().map(|&r| ctx.relations[r].name.as_str()).collect::<Vec<_>>().join(" ⋈ ")
    };
    let note = format!(
        "bushy merge: subchains ({}) and ({}) run concurrently; \
         ~{card1:.0} ⋈ ~{card2:.0} → ~{out_est:.0} rows rehash-merged",
        names(&order1),
        names(&order2),
    );
    let split = order1.len();
    let mut order = order1;
    order.extend(order2);
    Some(OrderPlan {
        order,
        stages,
        bushy: Some(BushyChoice {
            split,
            key_pred,
            extra_preds,
            left_est: card1,
            right_est: card2,
            out_est,
            note,
        }),
    })
}

/// Predicates with one endpoint in each of the two disjoint relation masks.
fn crossing_preds(preds: &[EquiPred], m1: usize, m2: usize) -> Vec<usize> {
    (0..preds.len())
        .filter(|&i| {
            let p = &preds[i];
            let (l, r) = (1usize << p.left_rel, 1usize << p.right_rel);
            (m1 & l != 0 && m2 & r != 0) || (m2 & l != 0 && m1 & r != 0)
        })
        .collect()
}

/// Greedy fallback for wide joins: start from the smallest filtered
/// relation, repeatedly add the connected relation with the cheapest stage.
fn greedy_order(ctx: &SearchContext<'_>, n: usize) -> Vec<usize> {
    let start = (0..n)
        .min_by(|&a, &b| ctx.base_est[a].total_cmp(&ctx.base_est[b]))
        .expect("at least one relation");
    let mut order = vec![start];
    let mut card = ctx.base_est[start];
    while order.len() < n {
        let best = (0..n)
            .filter(|r| !order.contains(r))
            .filter_map(|r| ctx.extend(&order, card, r).map(|e| (r, e)))
            .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost));
        let Some((rel, ext)) = best else {
            // Disconnected remainder cannot happen for binder-produced
            // graphs; bail to declared order defensively.
            for r in 0..n {
                if !order.contains(&r) {
                    order.push(r);
                }
            }
            break;
        };
        card = ext.out_est;
        order.push(rel);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{TableDef, TableStats};
    use crate::tuple::Schema;
    use crate::value::DataType;
    use pier_simnet::Duration;

    fn rel(name: &str) -> BoundTable {
        BoundTable {
            name: name.into(),
            schema: Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]),
        }
    }

    fn catalog(rows: &[(&str, u64)]) -> Catalog {
        let mut cat = Catalog::new();
        for (name, n) in rows {
            cat.register(TableDef::new(
                *name,
                Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]),
                "k",
                Duration::from_secs(60),
            ));
            cat.set_stats(name, TableStats::with_rows(*n));
        }
        cat
    }

    fn chain_preds() -> Vec<EquiPred> {
        // a.v = b.k, b.v = c.k — a linear chain.
        vec![
            EquiPred { left_rel: 0, left_col: 1, right_rel: 1, right_col: 0 },
            EquiPred { left_rel: 1, left_col: 1, right_rel: 2, right_col: 0 },
        ]
    }

    #[test]
    fn dp_starts_from_the_smallest_relation() {
        let cat = catalog(&[("a", 100_000), ("b", 1_000), ("c", 10)]);
        let rels = [rel("a"), rel("b"), rel("c")];
        let plan = choose_order(&cat, &rels, &chain_preds(), &[None, None, None], None);
        assert_eq!(plan.order[2], 0, "the 100k-row relation must join last: {:?}", plan.order);
        assert_ne!(plan.order[0], 0, "the 100k-row relation must not drive: {:?}", plan.order);
        assert_eq!(plan.stages.len(), 2);
    }

    #[test]
    fn order_flips_with_the_statistics() {
        let rels = [rel("a"), rel("b"), rel("c")];
        let cat1 = catalog(&[("a", 10), ("b", 1_000), ("c", 100_000)]);
        let p1 = choose_order(&cat1, &rels, &chain_preds(), &[None, None, None], None);
        let cat2 = catalog(&[("a", 100_000), ("b", 1_000), ("c", 10)]);
        let p2 = choose_order(&cat2, &rels, &chain_preds(), &[None, None, None], None);
        assert_ne!(p1.order, p2.order, "flipping cardinalities must flip the order");
        assert_eq!(p1.order[0], 0, "{:?}", p1.order);
        assert_eq!(*p2.order.last().unwrap(), 0, "{:?}", p2.order);
    }

    #[test]
    fn two_way_joins_keep_declared_order() {
        let cat = catalog(&[("a", 100_000), ("b", 10)]);
        let rels = [rel("a"), rel("b")];
        let preds = vec![EquiPred { left_rel: 0, left_col: 1, right_rel: 1, right_col: 0 }];
        let plan = choose_order(&cat, &rels, &preds, &[None, None], None);
        assert_eq!(plan.order, vec![0, 1]);
    }

    #[test]
    fn forced_strategy_applies_where_eligible() {
        let cat = catalog(&[("a", 100), ("b", 100), ("c", 100)]);
        let rels = [rel("a"), rel("b"), rel("c")];
        let plan = choose_order(
            &cat,
            &rels,
            &chain_preds(),
            &[None, None, None],
            Some(JoinStrategy::BloomFilter),
        );
        assert_eq!(plan.order, vec![0, 1, 2], "forced plans keep the declared order");
        assert_eq!(plan.stages[0].strategy, JoinStrategy::BloomFilter);
        assert_eq!(
            plan.stages[1].strategy,
            JoinStrategy::SymmetricHash,
            "Bloom needs two base-table sides, which only stage 0 has"
        );
    }

    #[test]
    fn inner_bloom_requires_skew_and_size() {
        // Stage 1 (b⋈c) with a huge filtered right side and a tiny
        // intermediate: eligible.  With comparable sides: not.
        let rels = [rel("a"), rel("b"), rel("c")];
        let skewed = catalog(&[("a", 10), ("b", 20), ("c", 100_000)]);
        let plan = choose_order(
            &skewed,
            &rels,
            &chain_preds(),
            &[None, None, None],
            Some(JoinStrategy::SymmetricHash),
        );
        assert!(!plan.stages[0].inner_bloom, "stage 0 uses the BloomFilter strategy instead");
        assert!(plan.stages[1].inner_bloom, "{}", plan.stages[1].note);
        assert!(plan.stages[1].bloom_bits >= 1024);
        assert!(plan.stages[1].note.contains("inner Bloom semi-join"));

        let flat = catalog(&[("a", 100), ("b", 100), ("c", 100)]);
        let plan = choose_order(
            &flat,
            &rels,
            &chain_preds(),
            &[None, None, None],
            Some(JoinStrategy::SymmetricHash),
        );
        assert!(plan.stages.iter().all(|s| !s.inner_bloom && s.bloom_bits == 0));
    }

    #[test]
    fn bloom_geometry_is_a_power_of_two_with_small_fp() {
        let (bits, fp) = inner_bloom_geometry(50.0);
        assert_eq!(bits, 1024);
        assert!(fp < 0.02, "fp = {fp}");
        let (bits, fp) = inner_bloom_geometry(10_000.0);
        assert!(bits >= 100_000 && bits.is_power_of_two());
        assert!(fp < 0.02, "fp = {fp}");
    }

    #[test]
    fn greedy_handles_wide_joins() {
        let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let rows: Vec<(&str, u64)> = names.iter().map(|n| (*n, 1_000)).collect();
        let cat = catalog(&rows);
        let rels: Vec<BoundTable> = names.iter().map(|n| rel(n)).collect();
        // A chain a-b-c-…-h.
        let preds: Vec<EquiPred> = (0..7)
            .map(|i| EquiPred { left_rel: i, left_col: 1, right_rel: i + 1, right_col: 0 })
            .collect();
        let filters: Vec<Option<Expr>> = vec![None; 8];
        let plan = choose_order(&cat, &rels, &preds, &filters, None);
        assert_eq!(plan.order.len(), 8);
        assert_eq!(plan.stages.len(), 7);
        let mut sorted = plan.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }
}
