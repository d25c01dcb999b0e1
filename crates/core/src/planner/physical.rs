//! Stage 4 — the physical / distributed planner.
//!
//! Turns a bound statement plus its optimized logical plan into the per-node
//! [`QueryKind`] spec that is disseminated over the DHT.  This is the layer
//! that makes *distributed* decisions:
//!
//! * multi-way joins are lowered into **chains of distributed join stages**
//!   in the order picked by the [join-order enumerator](super::joinorder)
//!   — each stage's output is rehashed by the next stage's key into that
//!   stage's DHT namespace (PIER's multihop joins composed).  One lowering
//!   serves every shape: a left-deep order is a single chain, a bushy order
//!   two chains whose outputs meet at a rehash-merge stage;
//! * per-stage join-strategy selection (symmetric rehash vs Fetch-Matches
//!   vs Bloom-filter semi-join) is **costed from catalog cardinality hints**
//!   ([`TableStats`](crate::catalog::TableStats)) and filter selectivities;
//! * predicates the optimizer pushed below the join are carried as per-side
//!   filters so every node filters *before* shipping tuples;
//! * join-side projection pushdown runs per stage: each stage ships only
//!   the columns that survive to later stages, the final projection, or a
//!   stage residual filter;
//! * Fetch-Matches is only eligible when the inner relation is partitioned
//!   on the join key (the DHT can then answer probes with a single `get`).

use crate::expr::Expr;
use crate::plan::{AggExpr, LogicalPlan};
use crate::query::{BranchScan, JoinAggregate, JoinStage, JoinStrategy, QueryKind};
use std::collections::BTreeSet;

use super::binder::BoundSelect;
use super::joinorder::{choose_order, distinct_values, OrderPlan, StageChoice};
use super::optimizer::{conjoin, fold_expr, split_conjuncts, split_group_having};
use super::Planner;

/// Row-count estimate used when the catalog has no statistics for a table.
pub const DEFAULT_ROW_ESTIMATE: f64 = 1024.0;

/// Relative cost of one Fetch-Matches DHT probe versus rehashing one tuple
/// (a probe is a routed request *and* a response).
pub(crate) const FETCH_PROBE_COST: f64 = 4.0;

/// Fallback selectivity of an equality predicate when the catalog has no
/// distinct-key estimate for the table.
pub(crate) const DEFAULT_EQ_SELECTIVITY: f64 = 0.05;

/// A Bloom join only pays off when the prunable side is at least this large.
pub(crate) const BLOOM_MIN_RIGHT: f64 = 512.0;

/// How much bigger the right side must be (relative to the left) before the
/// two-phase Bloom protocol beats plain symmetric rehashing.
pub(crate) const BLOOM_SKEW: f64 = 4.0;

/// The physical planner's output: the distributed spec plus a human-readable
/// note on the join decisions (surfaced by `EXPLAIN`).
#[derive(Clone, Debug)]
pub struct PhysicalPlan {
    /// Per-node work description.
    pub kind: QueryKind,
    /// Why the join order and per-stage strategies were chosen (`None` for
    /// non-join queries; one line per stage for joins).
    pub strategy_note: Option<String>,
}

/// Derive the distributed spec for a bound statement whose optimized logical
/// plan is `optimized`, under `planner`'s options.
pub(super) fn plan(
    planner: &Planner<'_>,
    bound: &BoundSelect,
    optimized: &LogicalPlan,
) -> PhysicalPlan {
    if bound.is_join() {
        return plan_join(planner, bound, optimized);
    }
    let kind = match &bound.aggregate {
        Some(agg) => {
            // HAVING conjuncts over plain group columns run before
            // aggregation on every node (mirroring the optimizer's rewrite of
            // the logical plan), so non-qualifying tuples are dropped at the
            // scan instead of shipping partials the root would discard.
            let (having_below, having_above) = match &agg.having {
                Some(h) => split_group_having(h, &agg.group_exprs),
                None => (None, None),
            };
            let filter = match (bound.filter.as_ref().map(fold_expr), having_below) {
                (Some(f), Some(h)) => Some(f.and(h)),
                (Some(f), None) => Some(f),
                (None, Some(h)) => Some(h),
                (None, None) => None,
            };
            QueryKind::Aggregate {
                table: bound.primary().name.clone(),
                filter: filter.as_ref().map(fold_expr),
                group_exprs: agg.group_exprs.clone(),
                aggs: agg.aggs.clone(),
                having: having_above.as_ref().map(fold_expr),
                order_by: bound.order_by.clone(),
                limit: bound.limit,
                final_project: agg.final_project.clone(),
                window: agg.window,
            }
        }
        None => QueryKind::Select {
            table: bound.primary().name.clone(),
            filter: bound.filter.as_ref().map(fold_expr),
            project: bound.projections.iter().map(fold_expr).collect(),
            order_by: bound.order_by.clone(),
            limit: bound.limit,
        },
    };
    PhysicalPlan { kind, strategy_note: None }
}

/// Lower a bound join into the staged distributed spec.  The chosen order
/// is one left-deep chain, or — for a bushy order — two independent chains
/// whose outputs meet at a rehash-merge stage.  Every chain is lowered by
/// [`lower_chain`]; residual placement, the EXPLAIN note and the terminal
/// projection or aggregate are written once, for both shapes.
fn plan_join(planner: &Planner<'_>, bound: &BoundSelect, optimized: &LogicalPlan) -> PhysicalPlan {
    let n = bound.relations.len();
    let offsets = bound.offsets();
    let pieces = extract_multijoin_pieces(optimized, n);
    let OrderPlan { order, stages: choices, bushy } =
        choose_order(planner, &bound.relations, &bound.join_preds, &pieces.rel_filters);
    let split = bushy.as_ref().map_or(n, |b| b.split);
    let chains: Vec<(&[usize], &[StageChoice])> = if bushy.is_some() {
        vec![(&order[..split], &choices[..split - 1]), (&order[split..], &choices[split - 1..])]
    } else {
        vec![(&order[..], &choices[..])]
    };

    // Residual WHERE conjuncts run at the earliest stage of the chain that
    // holds every relation they reference; conjuncts crossing a bushy
    // order's two chains run at the merge.  Non-key equi-predicates run as
    // post-filters where their later relation joins in (or at the merge).
    let rel_of = |g: usize| crate::plan::relation_of_column(&offsets[..n], g);
    let equi_filter = |&pi: &usize| {
        let (gl, gr) = bound.join_preds[pi].global(&offsets);
        Expr::col(gl).eq(Expr::col(gr))
    };
    let mut posts: Vec<Vec<Vec<Expr>>> =
        chains.iter().map(|(chain, _)| vec![Vec::new(); chain.len() - 1]).collect();
    let mut merge_posts: Vec<Expr> = Vec::new();
    let mut conjuncts = Vec::new();
    if let Some(residual) = &pieces.residual {
        split_conjuncts(residual.clone(), &mut conjuncts);
    }
    for c in conjuncts {
        let rels: BTreeSet<usize> = c.referenced_columns().iter().map(|&g| rel_of(g)).collect();
        match chains.iter().position(|(chain, _)| rels.iter().all(|r| chain.contains(r))) {
            Some(i) => {
                let chain = chains[i].0;
                let k = rels
                    .iter()
                    .map(|&r| chain.iter().position(|&x| x == r).expect("rel is in chain"))
                    .max()
                    .unwrap_or(1)
                    .saturating_sub(1)
                    .min(chain.len() - 2);
                posts[i][k].push(c);
            }
            None => merge_posts.push(c),
        }
    }
    for ((_, chain_choices), chain_posts) in chains.iter().zip(&mut posts) {
        for (k, choice) in chain_choices.iter().enumerate() {
            chain_posts[k].extend(choice.extra_preds.iter().map(equi_filter));
        }
    }
    if let Some(b) = &bushy {
        merge_posts.extend(b.extra_preds.iter().map(equi_filter));
    }

    // The global columns the final projection consumes (for aggregates: the
    // grouping expressions and aggregate arguments, which is what narrows
    // every stage's shipments down to exactly what the aggregate reads).
    let final_cols: BTreeSet<usize> = match &bound.aggregate {
        Some(agg) => agg
            .group_exprs
            .iter()
            .chain(agg.aggs.iter().filter_map(|a| a.arg.as_ref()))
            .flat_map(|e| e.referenced_columns())
            .collect(),
        None => bound.projections.iter().flat_map(|e| e.referenced_columns()).collect(),
    };
    // A bushy order's merge, with its key's endpoints (one global column
    // per chain).
    let merge = bushy.as_ref().map(|b| {
        let kp = &bound.join_preds[b.key_pred];
        let (l, r) = kp.global(&offsets);
        (b, if chains[0].0.contains(&kp.left_rel) { (l, r) } else { (r, l) })
    });
    // What the chains must carry out: the final columns, plus the merge's
    // keys and post-filter columns.
    let mut tail_need = final_cols.clone();
    for c in &merge_posts {
        tail_need.extend(c.referenced_columns());
    }
    tail_need.extend(merge.iter().flat_map(|&(_, (a, b))| [a, b]));
    let mut lowered = chains.iter().zip(&posts).map(|(&(chain, chain_choices), chain_posts)| {
        lower_chain(bound, &pieces.rel_filters, chain, chain_choices, chain_posts, &tail_need)
    });
    let first = lowered.next().expect("a join has a chain");

    // Wire the chains into the stage DAG.  A single chain's last stage
    // feeds the terminal directly; a bushy order's chains each rehash into
    // one side of the merge stage, the second rooted at its own scan.
    let (stages, final_map, est_matches, terminal) = match (lowered.next(), merge) {
        (Some(second), Some((b, keys))) => {
            let merge_stage = (n - 2) as u8;
            let mut stages = first.stages;
            stages.last_mut().expect("chain A has a stage").out_to = Some((merge_stage, 0));
            let b_root = stages.len();
            stages.extend(second.stages);
            let root = order[split];
            stages[b_root].left_scan = Some(BranchScan {
                table: bound.relations[root].name.clone(),
                filter: pieces.rel_filters[root].clone(),
            });
            stages.last_mut().expect("chain B has a stage").out_to = Some((merge_stage, 1));
            // Both sides of the merge index the chains' output schemas.
            let cols =
                stage_cols(&first.out_map, &second.out_map, keys, &merge_posts, &final_cols, false);
            stages.push(JoinStage {
                right_table: bound.relations[root].name.clone(),
                left_key: cols.left_key,
                right_key: cols.right_key,
                right_filter: None,
                post_filter: cols.post_filter,
                left_ship_cols: cols.left_ship_cols,
                right_ship_cols: cols.right_ship_cols,
                out_cols: Vec::new(),
                strategy: JoinStrategy::SymmetricHash,
                inner_bloom: false,
                bloom_bits: 0,
                left_scan: None,
                out_to: None,
            });
            (stages, cols.concat_map, b.out_est, "the merge stage")
        }
        _ => {
            let mut stages = first.stages;
            stages.last_mut().expect("a join has a stage").out_cols.clear();
            let est = choices.last().expect("a join has a stage").out_est;
            (stages, first.concat_map, est, "the final join stage")
        }
    };
    let final_remap = |g: usize| Expr::col(position(&final_map, g));

    // EXPLAIN note: the chosen order plus one rationale line per stage.
    let names = |rels: &[usize]| {
        rels.iter().map(|&r| bound.relations[r].name.as_str()).collect::<Vec<_>>().join(" ⋈ ")
    };
    let mut note = if bushy.is_some() {
        format!("join order: ({}) ⋈ ({}) [bushy]\n", names(chains[0].0), names(chains[1].0))
    } else if n > 2 {
        format!("join order: {}\n", names(&order[..]))
    } else {
        String::new()
    };
    for (k, choice) in choices.iter().enumerate() {
        if n > 2 {
            note.push_str(&format!(
                "stage {k} (⋈ '{}', ~{:.0} ⋈ ~{:.0} → ~{:.0} rows): {}\n",
                bound.relations[choice.rel].name,
                choice.left_est,
                choice.right_est,
                choice.out_est,
                choice.note
            ));
        } else {
            note.push_str(&choice.note);
            note.push('\n');
        }
    }
    if let Some(b) = &bushy {
        note.push_str(&format!("stage {}: {}\n", n - 2, b.note));
    }

    // Terminal operator: the final projection for plain joins, or the
    // aggregate whose placement (hierarchical partials vs raw-row streaming
    // to the origin) is costed from the estimated group count versus the
    // estimated matched-row count.
    let (project, aggregate) = match &bound.aggregate {
        Some(agg) => {
            let group_exprs: Vec<Expr> = agg
                .group_exprs
                .iter()
                .map(|e| fold_expr(e).substitute_columns(&final_remap))
                .collect();
            let aggs: Vec<AggExpr> = agg
                .aggs
                .iter()
                .map(|a| AggExpr {
                    func: a.func,
                    arg: a.arg.as_ref().map(|e| fold_expr(e).substitute_columns(&final_remap)),
                    name: a.name.clone(),
                })
                .collect();
            // HAVING conjuncts over plain group columns were already pushed
            // below the join by the optimizer (they reach the stages through
            // `rel_filters` / the residual); only the conjuncts that need
            // finalized aggregates stay here.
            let having_above = match &agg.having {
                Some(h) => split_group_having(h, &agg.group_exprs).1,
                None => None,
            };
            // Placement cost: hierarchical partials ship at most one state
            // per (group, node) and combine in-network, so they win whenever
            // groups compress the matched rows; a group-per-row aggregate
            // (distinct keys ≥ rows) would ship as many partial states as the
            // raw rows, for no saving.
            let est_groups: f64 = agg
                .group_exprs
                .iter()
                .map(|e| match e {
                    Expr::Column(g) => {
                        let rel = rel_of(*g);
                        distinct_values(planner, &bound.relations[rel].name, g - offsets[rel])
                    }
                    _ => 32.0,
                })
                .product::<f64>()
                .clamp(1.0, est_matches.max(1.0));
            // A windowed aggregate always runs hierarchically: the
            // aggregation root is where per-epoch states are retained and
            // merged into windows; raw-row streaming has no root.
            let hierarchical = agg.window.is_some() || est_groups < est_matches.max(1.0);
            note.push_str(&if hierarchical {
                format!(
                    "aggregation: hierarchical in-network partials \
                     (~{est_groups:.0} groups compress ~{est_matches:.0} matched rows)"
                )
            } else {
                format!(
                    "aggregation: at origin over raw rows \
                     (~{est_groups:.0} groups ≈ ~{est_matches:.0} matched rows, \
                     partials would not compress)"
                )
            });
            note.push('\n');
            // Aggregate-aware stage keys: if the (single) grouping column
            // *is* the terminal stage's join key — either endpoint, they are
            // equal on every match — the symmetric rehash has already
            // partitioned each group wholly onto one join site, so the
            // partial climb up the aggregation tree is skipped: sites ship
            // their groups one direct hop to the origin.
            let last = stages.last().expect("at least one stage");
            let key_pos = |key: &Expr, ship: &[usize], base: usize| -> Option<usize> {
                match key {
                    Expr::Column(i) => ship.iter().position(|c| c == i).map(|p| base + p),
                    _ => None,
                }
            };
            let left_pos = key_pos(&last.left_key, &last.left_ship_cols, 0);
            let right_pos =
                key_pos(&last.right_key, &last.right_ship_cols, last.left_ship_cols.len());
            let colocated = hierarchical
                && last.strategy == JoinStrategy::SymmetricHash
                && matches!(group_exprs.as_slice(),
                    [Expr::Column(g)] if Some(*g) == left_pos || Some(*g) == right_pos);
            if colocated {
                note.push_str(&format!(
                    "aggregation: colocated with {terminal} \
                     (GROUP BY = stage key; each group is whole at one join site, \
                     no partial climb)\n"
                ));
            }
            // Identity projection over the terminal concat schema: the
            // raw-row streaming baseline ships these rows whole.
            let project: Vec<Expr> = (0..final_map.len()).map(Expr::col).collect();
            let aggregate = JoinAggregate {
                group_exprs,
                aggs,
                having: having_above.as_ref().map(fold_expr),
                final_project: agg.final_project.clone(),
                hierarchical,
                colocated,
                window: agg.window,
            };
            (project, Some(aggregate))
        }
        None => {
            let project: Vec<Expr> = bound
                .projections
                .iter()
                .map(|e| fold_expr(e).substitute_columns(&final_remap))
                .collect();
            (project, None)
        }
    };

    PhysicalPlan {
        kind: QueryKind::Join {
            left_table: bound.relations[order[0]].name.clone(),
            left_filter: pieces.rel_filters[order[0]].clone(),
            stages,
            project,
            aggregate,
            order_by: bound.order_by.clone(),
            limit: bound.limit,
        },
        strategy_note: Some(note),
    }
}

/// One lowered chain: its stage specs (chain-local order, DAG edges not yet
/// stamped), the global column ids of its output schema (what its last
/// stage's `out_cols` carry on to a merge), and of its last stage's concat
/// schema (what a chain that ends the query projects from).
struct ChainPlan {
    stages: Vec<JoinStage>,
    out_map: Vec<usize>,
    concat_map: Vec<usize>,
}

/// Lower one left-deep chain: a backward pass threads the needed-column
/// sets back from `tail_need` — the global columns consumed after the chain
/// — so every stage ships only what later stages, their post-filters, or
/// the consumer of the chain read; a forward pass then builds the stage
/// specs, tracking the left input as a list of global column ids.
fn lower_chain(
    bound: &BoundSelect,
    rel_filters: &[Option<Expr>],
    chain: &[usize],
    choices: &[StageChoice],
    posts: &[Vec<Expr>],
    tail_need: &BTreeSet<usize>,
) -> ChainPlan {
    let offsets = bound.offsets();
    let span = |r: usize| offsets[r]..offsets[r] + bound.relations[r].schema.arity();
    // Per-stage keys in global numbering: the key predicate's endpoint on
    // the joined relation is the right key, the other endpoint (always on
    // an earlier relation of the chain) the left key.
    let keys: Vec<(usize, usize)> = choices
        .iter()
        .map(|choice| {
            let p = &bound.join_preds[choice.key_pred];
            let (l, r) = p.global(&offsets);
            if p.left_rel == choice.rel {
                (r, l)
            } else {
                (l, r)
            }
        })
        .collect();
    let chain_cols: BTreeSet<usize> = chain.iter().flat_map(|&r| span(r)).collect();
    let available =
        |k: usize| -> BTreeSet<usize> { chain[..=k + 1].iter().flat_map(|&r| span(r)).collect() };
    let mut needed: BTreeSet<usize> = tail_need.intersection(&chain_cols).copied().collect();
    let mut need_after: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); choices.len()];
    for k in (0..choices.len()).rev() {
        need_after[k] = needed.intersection(&available(k)).copied().collect();
        for c in &posts[k] {
            needed.extend(c.referenced_columns());
        }
        needed.insert(keys[k].0);
    }

    let mut left_map: Vec<usize> = span(chain[0]).collect();
    let mut concat_map = Vec::new();
    let mut stages = Vec::with_capacity(choices.len());
    for (k, choice) in choices.iter().enumerate() {
        let right_map: Vec<usize> = span(choice.rel).collect();
        // Fetch-Matches keeps full schemas: its right tuples are read whole
        // from DHT storage and its left tuples never ship.
        let ship_all = choice.strategy == JoinStrategy::FetchMatches;
        let cols = stage_cols(&left_map, &right_map, keys[k], &posts[k], &need_after[k], ship_all);
        let next_map: Vec<usize> = need_after[k].iter().copied().collect();
        let out_cols = next_map.iter().map(|&g| position(&cols.concat_map, g)).collect();
        stages.push(JoinStage {
            right_table: bound.relations[choice.rel].name.clone(),
            left_key: cols.left_key,
            right_key: cols.right_key,
            right_filter: rel_filters[choice.rel].clone(),
            post_filter: cols.post_filter,
            left_ship_cols: cols.left_ship_cols,
            right_ship_cols: cols.right_ship_cols,
            out_cols,
            strategy: choice.strategy,
            inner_bloom: choice.inner_bloom,
            bloom_bits: choice.bloom_bits,
            left_scan: None,
            out_to: None,
        });
        left_map = next_map;
        concat_map = cols.concat_map;
    }
    ChainPlan { stages, out_map: left_map, concat_map }
}

/// One stage's column plumbing: the shipped columns of each input, the
/// concat schema they form (as global column ids), the keys, and the
/// post-filter over that schema.
struct StageCols {
    left_ship_cols: Vec<usize>,
    right_ship_cols: Vec<usize>,
    concat_map: Vec<usize>,
    left_key: Expr,
    right_key: Expr,
    post_filter: Option<Expr>,
}

/// Lower one stage whose inputs carry the global columns `left_map` and
/// `right_map`, joined on the global `keys`: ship what `need` (the columns
/// used after the stage) and the post-filter conjuncts `posts` read — or
/// everything, when `ship_all`.
fn stage_cols(
    left_map: &[usize],
    right_map: &[usize],
    keys: (usize, usize),
    posts: &[Expr],
    need: &BTreeSet<usize>,
    ship_all: bool,
) -> StageCols {
    let mut want = need.clone();
    for c in posts {
        want.extend(c.referenced_columns());
    }
    let ship = |map: &[usize]| -> Vec<usize> {
        (0..map.len()).filter(|&i| ship_all || want.contains(&map[i])).collect()
    };
    let (left_ship_cols, right_ship_cols) = (ship(left_map), ship(right_map));
    let concat_map: Vec<usize> = left_ship_cols
        .iter()
        .map(|&i| left_map[i])
        .chain(right_ship_cols.iter().map(|&i| right_map[i]))
        .collect();
    let remap = |g: usize| Expr::col(position(&concat_map, g));
    let post_filter =
        conjoin(posts.iter().map(|c| fold_expr(c).substitute_columns(&remap)).collect());
    StageCols {
        left_key: Expr::col(position(left_map, keys.0)),
        right_key: Expr::col(position(right_map, keys.1)),
        left_ship_cols,
        right_ship_cols,
        concat_map,
        post_filter,
    }
}

/// Where global column `g` sits in a schema of global column ids.
fn position(map: &[usize], g: usize) -> usize {
    map.iter().position(|&x| x == g).expect("every needed column is shipped")
}

/// Estimated fraction of rows surviving a predicate (System-R style guesses);
/// `eq_sel` maps a column index to the selectivity of an equality predicate
/// on that column (1/distinct_keys for a partition key the catalog knows).
pub(crate) fn selectivity(filter: &Option<Expr>, eq_sel: &dyn Fn(usize) -> f64) -> f64 {
    match filter {
        None => 1.0,
        Some(e) => expr_selectivity(e, eq_sel),
    }
}

fn expr_selectivity(e: &Expr, eq_sel: &dyn Fn(usize) -> f64) -> f64 {
    use crate::expr::{BinaryOp, UnaryOp};
    match e {
        Expr::Binary { op, left, right } => match op {
            BinaryOp::And => expr_selectivity(left, eq_sel) * expr_selectivity(right, eq_sel),
            BinaryOp::Or => {
                (expr_selectivity(left, eq_sel) + expr_selectivity(right, eq_sel)).min(1.0)
            }
            BinaryOp::Eq => match (&**left, &**right) {
                (Expr::Column(c), other) | (other, Expr::Column(c)) if other.is_constant() => {
                    eq_sel(*c)
                }
                _ => DEFAULT_EQ_SELECTIVITY,
            },
            BinaryOp::NotEq => 0.9,
            BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => 0.3,
            _ => 0.75,
        },
        Expr::Like { .. } => 0.25,
        Expr::Unary { op: UnaryOp::Not, expr } => (1.0 - expr_selectivity(expr, eq_sel)).max(0.05),
        Expr::Unary { op: UnaryOp::IsNull, .. } => 0.1,
        Expr::Unary { op: UnaryOp::IsNotNull, .. } => 0.9,
        _ => 0.75,
    }
}

/// The join-relevant filters of an optimized plan: the predicate sitting
/// directly on each relation's scan (placed there by predicate pushdown)
/// and the residual predicate directly above the n-ary join.
struct MultiJoinPieces {
    /// Per-relation pushed-down filter, over each relation's local schema.
    rel_filters: Vec<Option<Expr>>,
    /// Residual predicate over the concatenated (global) schema.
    residual: Option<Expr>,
}

fn extract_multijoin_pieces(plan: &LogicalPlan, n: usize) -> MultiJoinPieces {
    let mut cur = plan;
    let mut residual = None;
    loop {
        match cur {
            LogicalPlan::Limit { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. } => cur = input,
            LogicalPlan::Filter { input, predicate } => {
                if matches!(**input, LogicalPlan::MultiJoin { .. }) {
                    residual = Some(predicate.clone());
                }
                cur = input;
            }
            LogicalPlan::MultiJoin { inputs, .. } => {
                let rel_filters = inputs
                    .iter()
                    .map(|side| match side {
                        LogicalPlan::Filter { input, predicate }
                            if matches!(**input, LogicalPlan::Scan { .. }) =>
                        {
                            Some(predicate.clone())
                        }
                        _ => None,
                    })
                    .collect();
                return MultiJoinPieces { rel_filters, residual };
            }
            _ => return MultiJoinPieces { rel_filters: vec![None; n], residual },
        }
    }
}
