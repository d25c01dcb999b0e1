//! Aggregation layer: local folds, the in-network partial climb toward the
//! query origin, which is every aggregate's root, finalization there into
//! epoch-count windows (a plain aggregate's window is its epoch), late-data
//! patching, and `HAVING`-triggered alerts.
//!
//! Completion, not a timer, closes the epochs of continuous aggregates.
//!
//! * **Single-table aggregates** count contributors.  Every node that runs
//!   an epoch contributes exactly one partial with `contributors: 1` (an
//!   empty scan included), so the contributors that reached a node last
//!   epoch predict this epoch's.  A hop forwards as soon as that many have
//!   passed through it; the root finalizes once that many have reported and
//!   no partial has arrived for one hold-down.
//! * **Aggregates over symmetric-hash joins** recover credit
//!   ([`Credit`]): a join site keeps sending partials as matches arrive, so
//!   no contributor count can show its input is complete.  Every node that
//!   runs the epoch injects one unit and splits it over its rehash payloads;
//!   each join site pools what it receives per (query, epoch), passes the
//!   pool on to its outputs for the next stage, and returns what is left —
//!   with its groups — once the pool has not grown for one hold-down.  A
//!   node holding groups keeps a share back, so groups never travel without
//!   credit.  The root finalizes the moment it holds as many units as nodes
//!   ran the last epoch.
//!
//! Partials climb the DHT routing tree toward the origin's own ring id,
//! combining at every hop; colocated plans ship each join site's groups one
//! direct hop to the origin instead.
//!
//! The timers stay as the fallback and the upper bound: a hop's hold-down
//! from its first arrival, and the root's `collect_delay` from its first
//! partial plus up to four quiet extensions.  With no count to expect — the
//! first epochs, one-shot aggregates, epochs around a re-planned spec, and
//! joins whose Fetch-Matches probes or Bloom-gated scans send after the
//! scan — the timer decides.

use super::flush::charge;
use super::{Ctx, PierNode, TimerPurpose};
use crate::aggregate::AggState;
use crate::dataflow::ops::{sort_tuples, GroupAggregator, GroupKey};
use crate::expr::Expr;
use crate::payload::{Credit, PierPayload};
use crate::plan::{AggExpr, SortKey};
use crate::query::{AggFinish, JoinStrategy, QueryId, QueryKind, QuerySpec, WindowSpec};
use crate::tuple::Tuple;
use crate::value::Value;
use pier_dht::{hash_node_addr, ResourceKey};
use pier_simnet::{Duration, NodeAddr, SimTime};
use std::collections::{BTreeMap, HashMap, HashSet};

/// How many closed windows' worth of state the root retains for late-data
/// patching: a late partial for a window more than this many slides behind
/// the newest closed one is dropped and counted.
const WINDOW_PATCH_RETAIN: u64 = 4;

/// How many recent epochs' forwarded-contributor counts a hop keeps: the
/// previous epoch's is the completion rule's expected count.
const FORWARDED_RETAIN: usize = 3;

/// Partial-aggregate groups as they travel and merge.
type Partials = Vec<(GroupKey, Vec<AggState>)>;

/// Merged group states plus how many nodes contributed to them.
struct Merged {
    acc: GroupAggregator,
    contributors: u64,
}

impl Merged {
    fn new((group_exprs, aggs): (&[Expr], &[AggExpr])) -> Self {
        Merged { acc: GroupAggregator::new(group_exprs.to_vec(), aggs.to_vec()), contributors: 0 }
    }

    fn absorb(&mut self, groups: Partials, contributors: u64) {
        for (key, states) in groups {
            self.acc.merge_group(key, &states);
        }
        self.contributors += contributors;
    }
}

/// What a node holds for one epoch before it climbs: partials, and the
/// epoch's credit pool (credit received and not yet passed on).  The
/// hold-down timer forwards both (`holddown` is `None` only while the
/// arrival that created the entry is being absorbed); while the pool holds
/// credit, it waits until the pool has not grown for one hold-down.
struct Pending {
    merged: Merged,
    credit: Credit,
    /// When the pool last grew.
    grew: SimTime,
    holddown: Option<u64>,
}

impl Pending {
    fn new(merged: Merged, now: SimTime) -> Self {
        Pending { merged, credit: Credit::NONE, grew: now, holddown: None }
    }
}

/// One window at the root: the merged states of the finalized epochs it
/// covers, late partials included, and whether it has been reported.
struct Window {
    merged: Merged,
    closed: bool,
}

/// The aggregation root's accumulation for one epoch, removed at finalize.
struct RootEpoch {
    merged: Merged,
    /// Credit returned so far (credit-tracked queries).
    credit: Credit,
    /// Last time a partial arrived (quiescence check).
    last_update: SimTime,
    /// How many times finalization has been postponed.
    extensions: u32,
}

/// What the root recorded for an epoch it finalized, late arrivals
/// included: the contributors, or for a credit-tracked query the credit
/// returned.  The next epoch's completion rule expects its count, so what
/// arrives after the close raises what the next epoch waits for.
#[derive(Clone, Copy)]
enum Finalized {
    Contributors(u64),
    Credit(Credit),
}

impl Finalized {
    /// The count the next epoch expects: contributors, or the nodes that
    /// ran the epoch (returned credit in units, a fraction rounded up).
    fn expected(self) -> u64 {
        match self {
            Finalized::Contributors(n) => n,
            Finalized::Credit(c) => c.units_ceil(),
        }
    }

    /// A partial reached the root after the epoch closed.
    fn add_late(&mut self, contributors: u64, credit: Credit) {
        match self {
            Finalized::Contributors(n) => *n += contributors,
            Finalized::Credit(c) => *c += credit,
        }
    }
}

/// One query's aggregation state at one node.
#[derive(Default)]
pub(super) struct AggQuery {
    /// Partials waiting at this hop, per epoch.  An entry exists exactly
    /// while its hold-down is armed.
    pending: HashMap<u64, Pending>,
    /// Contributors this hop forwarded toward the root, for the last
    /// [`FORWARDED_RETAIN`] epochs.
    forwarded: BTreeMap<u64, u64>,
    /// Root-side accumulation, per epoch, from the first partial until
    /// finalize.  The timer rule's deadline stays armed throughout; if the
    /// completion rule finalizes first, the deadline later fires on nothing.
    root: HashMap<u64, RootEpoch>,
    /// Epochs this node has already finalized as the aggregation root, with
    /// what they recorded for the next epoch's completion rule.  Late
    /// partials for these epochs add to that record, and their groups patch
    /// the epoch's windows.
    finalized: HashMap<u64, Finalized>,
    /// The first epoch whose count the completion rule trusts.  Nodes apply
    /// a re-planned spec up to an epoch apart, so the epochs around a swap
    /// mix plans and their counts mean nothing for the next.
    expect_from: u64,
    /// Root side: per-window merged group states (each finalized epoch's
    /// accumulator folded into every window covering it) and the best
    /// per-epoch contributor count among them.  Open windows, and closed
    /// ones from the [`horizon`](Self::horizon) on, which late partials
    /// patch; a plain aggregate's window is its epoch ([`result_windows`]).
    windows: HashMap<u64, Window>,
    /// Highest epoch this root has finalized — the window-close watermark.
    watermark: Option<u64>,
    /// Epochs for which this node already counted itself as a contributor
    /// (aggregates over joins produce partials incrementally as matches
    /// arrive, so the first batch of an epoch counts the node).
    contributed: HashSet<u64>,
}

impl AggQuery {
    /// The completion rule's expected count at a hop: the contributors it
    /// forwarded last epoch.
    fn hop_expected(&self, epoch: u64) -> Option<u64> {
        self.forwarded.get(&epoch.checked_sub(1)?).copied()
    }

    /// The completion rule's expected count at the root: what it finalized
    /// last epoch.
    fn root_expected(&self, epoch: u64) -> Option<u64> {
        let last = epoch.checked_sub(1).filter(|&e| e >= self.expect_from)?;
        self.finalized.get(&last).map(|f| f.expected())
    }

    /// This node applied a re-planned spec at `epoch`: only counts from
    /// epochs after it are expected again.
    pub(super) fn spec_swapped(&mut self, epoch: u64) {
        self.expect_from = epoch + 1;
    }

    /// The oldest window the root still holds: windows more than
    /// [`WINDOW_PATCH_RETAIN`] slides behind the newest one the watermark
    /// has closed are freed, and late data for them is dropped.
    fn horizon(&self, wspec: WindowSpec) -> u64 {
        let closable = self.watermark.and_then(|m| (m + 1).checked_sub(u64::from(wspec.size)));
        closable.map_or(0, |c| (c / u64::from(wspec.slide)).saturating_sub(WINDOW_PATCH_RETAIN))
    }
}

/// The windows an aggregate's epochs close into at the origin: the declared
/// window, or one epoch each for a plain aggregate, so every aggregate
/// finalizes, reports and patches late data the same way.
fn result_windows(spec: &QuerySpec) -> WindowSpec {
    spec.kind.window_spec().unwrap_or(WindowSpec::tumbling(1))
}

/// Do contributor counts close this query's epochs?  A continuous
/// single-table aggregate's do: its contributor count repeats epoch to
/// epoch.
fn counts_contributors(spec: &QuerySpec) -> bool {
    spec.continuous.is_some() && matches!(spec.kind, QueryKind::Aggregate { .. })
}

/// Is this query's work tracked by credit?  A continuous hierarchical
/// aggregate over joins whose every stage is a symmetric-hash join without
/// an inner-Bloom gate: each of its payloads is sent while the scan or a
/// delivery is processed, so credit can ride on all of them.
/// Fetch-Matches probes and Bloom-gated scans send later, and the raw-row
/// baseline has no groups to return credit with.
pub(super) fn tracks_credit(spec: &QuerySpec) -> bool {
    let QueryKind::Join { stages, aggregate: Some(agg), .. } = &spec.kind else { return false };
    spec.continuous.is_some()
        && agg.hierarchical
        && stages.iter().enumerate().all(|(k, stage)| {
            stage.strategy == JoinStrategy::SymmetricHash && !super::bloom::bloom_gated(k, stage)
        })
}

/// HAVING, then ORDER BY / LIMIT over finalized aggregate output (the
/// bounded top-k of the paper's Table 1 query).  The second vector holds
/// the rows HAVING passed before the top-k trimmed them — a windowed
/// query's alert trigger — and is filled only when `alerts` is set and the
/// query has a `HAVING`.
pub(super) fn having_top_k(
    finish: &AggFinish<'_>,
    mut rows: Vec<Tuple>,
    alerts: bool,
) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut alert_rows = Vec::new();
    if let Some(h) = finish.having {
        rows.retain(|r| h.matches(r));
        if alerts {
            alert_rows = rows.clone();
        }
    }
    sort_limit(&mut rows, finish.order_by, finish.limit);
    (rows, alert_rows)
}

/// ORDER BY, then LIMIT.  Rows tied on every sort key order by their whole
/// row ([`compare_on`](crate::dataflow::ops::compare_on)), so the rows kept
/// do not depend on arrival order.
pub(super) fn sort_limit(rows: &mut Vec<Tuple>, order_by: &[SortKey], limit: Option<usize>) {
    if !order_by.is_empty() {
        sort_tuples(rows, order_by);
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }
}

impl PierNode {
    /// One aggregate epoch: fold the filtered local scan into partial
    /// states and hand them to the aggregation plane as one contributor.
    pub(super) fn run_aggregate(
        &mut self,
        ctx: &mut Ctx<'_>,
        spec: &QuerySpec,
        epoch: u64,
        now: SimTime,
        since: SimTime,
    ) {
        let Some((group_exprs, aggs)) = spec.kind.partial_agg_parts() else { return };
        let Some((_, batch, sel)) =
            self.scan_selected(spec.id, spec.kind.primary_table(), now, since)
        else {
            return;
        };
        let mut agg = GroupAggregator::new(group_exprs.to_vec(), aggs.to_vec());
        agg.update_batch(&batch, &sel);
        self.absorb_partials(ctx, spec.id, epoch, agg.take_partials(), 1, Credit::NONE, false);
    }

    /// Hand join-produced partials (empty for the origin's per-epoch seed)
    /// to the aggregation plane, counting this node as a contributor once
    /// per epoch however many batches it produces.
    pub(super) fn absorb_join_partials(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        epoch: u64,
        partials: Partials,
    ) {
        let contributors = self
            .queries
            .get_mut(&id)
            .map(|q| u64::from(q.agg.contributed.insert(epoch)))
            .unwrap_or(0);
        self.absorb_partials(ctx, id, epoch, partials, contributors, Credit::NONE, false);
    }

    /// Where this node's partials for `spec` go next; `None` only at the
    /// origin, every aggregate's root.  A colocated aggregate's groups are
    /// each whole at one join site, so they take one direct hop there; other
    /// partials climb toward the origin's ring id.
    fn next_agg_hop(&self, spec: &QuerySpec) -> Option<NodeAddr> {
        let origin = spec.origin();
        if origin == self.addr {
            return None;
        }
        let colocated = spec.kind.join_aggregate().is_some_and(|a| a.colocated);
        Some(if colocated { origin } else { self.toward_origin(origin) })
    }

    /// The next hop up the DHT routing tree toward `origin`'s ring id: the
    /// origin itself at a node that believes it owns that id.
    fn toward_origin(&self, origin: NodeAddr) -> NodeAddr {
        self.dht.route_next_hop(&hash_node_addr(origin.0)).map_or(origin, |p| p.addr)
    }

    /// Fold partial states into this node's role for the query: root
    /// accumulator at the origin, otherwise the pending buffer that the
    /// completion rule or the hold-down timer will forward.  `credit` is
    /// what the sender returned with them.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn absorb_partials(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        epoch: u64,
        groups: Partials,
        contributors: u64,
        credit: Credit,
        from_network: bool,
    ) {
        let origin = id.origin();
        let Some(q) = self.queries.get_mut(&id) else {
            // This node has not received the query plan (it joined after
            // dissemination, or the plan is still on its way).  It cannot
            // combine — it lacks the aggregate specs — but it relays the
            // partials one hop toward the origin so the data is not lost,
            // and charges them to the query's trace once the plan arrives.
            // A stopped query's partials are dropped.
            if from_network && origin != self.addr && !self.is_stopped(id, ctx.now()) {
                let next = self.toward_origin(origin);
                let payload =
                    PierPayload::Partial { query: id, epoch, groups, contributors, credit };
                let relayed = self.relayed.entry(id).or_default();
                charge(relayed, &payload, 1);
                relayed.partials_sent += 1;
                self.pending_direct.push((next, payload));
            }
            return;
        };
        if from_network {
            q.trace.partials_merged += 1;
        }
        if origin != self.addr {
            self.hold(ctx, id, epoch, groups, contributors, credit);
            return;
        }
        let Some(parts) = q.spec.kind.partial_agg_parts() else { return };
        if let Some(finalized) = q.agg.finalized.get_mut(&epoch) {
            finalized.add_late(contributors, credit);
            self.absorb_late(ctx, id, epoch, groups, contributors);
            return;
        }
        let now = ctx.now();
        let mut armed = false;
        let root = q.agg.root.entry(epoch).or_insert_with(|| {
            armed = true;
            RootEpoch {
                merged: Merged::new(parts),
                credit: Credit::NONE,
                last_update: now,
                extensions: 0,
            }
        });
        root.merged.absorb(groups, contributors);
        root.credit += credit;
        root.last_update = now;
        if armed {
            let delay = self.config.collect_delay;
            self.arm_timer(ctx, delay, TimerPurpose::RootFinalize(id, epoch));
        }
        self.check_complete(ctx, id, epoch);
    }

    /// Hold partials and credit for (query, epoch) at this node until the
    /// completion rule or the hold-down forwards them.
    fn hold(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        epoch: u64,
        groups: Partials,
        contributors: u64,
        credit: Credit,
    ) {
        let now = ctx.now();
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(parts) = q.spec.kind.partial_agg_parts() else { return };
        let expected = q.agg.hop_expected(epoch).filter(|_| counts_contributors(&q.spec));
        let through = q.agg.forwarded.get(&epoch).copied().unwrap_or(0);
        let pending =
            q.agg.pending.entry(epoch).or_insert_with(|| Pending::new(Merged::new(parts), now));
        pending.merged.absorb(groups, contributors);
        if !credit.is_none() {
            pending.credit += credit;
            pending.grew = now;
        }
        if expected.is_some_and(|x| through + pending.merged.contributors >= x) {
            // As many contributors as last epoch have reached this hop: ship
            // now instead of waiting out the hold-down.
            self.forward_partials(ctx, id, epoch);
        } else if pending.holddown.is_none() {
            self.arm_holddown(ctx, id, epoch, self.config.holddown);
        }
    }

    /// Arm (or re-arm) the hold-down that forwards (query, epoch)'s pending
    /// partials and credit.
    fn arm_holddown(&mut self, ctx: &mut Ctx<'_>, id: QueryId, epoch: u64, delay: Duration) {
        let token = self.arm_timer(ctx, delay, TimerPurpose::Holddown(id, epoch));
        if let Some(p) = self.queries.get_mut(&id).and_then(|q| q.agg.pending.get_mut(&epoch)) {
            p.holddown = Some(token);
        }
    }

    /// Add a delivery's credit to this node's pool for (query, epoch).  The
    /// pool returns, with any groups this node holds for the epoch, once it
    /// has not grown for one hold-down.
    pub(super) fn pool_credit(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        epoch: u64,
        credit: Credit,
    ) {
        if !credit.is_none() {
            self.hold(ctx, id, epoch, Vec::new(), 0, credit);
        }
    }

    /// Take this node's whole pool for (query, epoch), to pass on with its
    /// outputs for the next stage.
    pub(super) fn take_pool(&mut self, id: QueryId, epoch: u64) -> Credit {
        self.queries
            .get_mut(&id)
            .and_then(|q| q.agg.pending.get_mut(&epoch))
            .map_or(Credit::NONE, |p| std::mem::take(&mut p.credit))
    }

    /// Does this node hold groups for (query, epoch) that have not been
    /// sent toward the root?
    pub(super) fn holds_groups(&self, id: QueryId, epoch: u64) -> bool {
        self.queries
            .get(&id)
            .and_then(|q| q.agg.pending.get(&epoch))
            .is_some_and(|p| p.merged.contributors > 0 || !p.merged.acc.is_empty())
    }

    /// A hold-down fired: forward (query, epoch)'s pending partials and
    /// credit, unless the pool grew within the last hold-down — then check
    /// again once it has been quiet that long.
    pub(super) fn on_holddown(&mut self, ctx: &mut Ctx<'_>, id: QueryId, epoch: u64) {
        let quiet = self.config.holddown;
        let now = ctx.now();
        let Some(p) = self.queries.get(&id).and_then(|q| q.agg.pending.get(&epoch)) else {
            return;
        };
        let quiet_at = p.grew + quiet;
        if !p.credit.is_none() && now < quiet_at {
            self.arm_holddown(ctx, id, epoch, quiet_at - now);
            return;
        }
        self.forward_partials(ctx, id, epoch);
    }

    /// A partial for an epoch the root already finalized.  Its groups join
    /// every window covering the epoch: an open window reports them when it
    /// closes, a closed one is patched and re-emitted, and one past the
    /// [`horizon`](AggQuery::horizon) is gone, so the partial is dropped and
    /// counted.
    fn absorb_late(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        epoch: u64,
        groups: Partials,
        contributors: u64,
    ) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let mut dropped = false;
        let mut reemit: Vec<u64> = Vec::new();
        for w in result_windows(&q.spec).windows_of(epoch) {
            match q.agg.windows.get_mut(&w) {
                Some(win) => {
                    // The late subtree never made it into the epoch's
                    // contributor total, so it adds here.
                    win.merged.absorb(groups.clone(), contributors);
                    if win.closed {
                        reemit.push(w);
                    }
                }
                None => dropped = true,
            }
        }
        q.trace.late_dropped += u64::from(dropped);
        q.trace.late_patched += reemit.len() as u64;
        for w in reemit {
            self.emit_window(ctx, id, w);
        }
    }

    /// Ship the buffered partials and credit for (query, epoch) one hop
    /// closer to the origin, disarming their hold-down if the completion
    /// rule got there first.
    pub(super) fn forward_partials(&mut self, ctx: &mut Ctx<'_>, id: QueryId, epoch: u64) {
        let Some(q) = self.queries.get(&id) else { return };
        let next = self.next_agg_hop(&q.spec);
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(Pending { merged: mut buf, credit, holddown, .. }) = q.agg.pending.remove(&epoch)
        else {
            return;
        };
        if let Some(token) = holddown {
            self.timer_purposes.remove(&token);
        }
        let contributors = buf.contributors;
        let groups = buf.acc.take_partials();
        if groups.is_empty() && contributors == 0 && credit.is_none() {
            return;
        }
        match next {
            Some(next) => {
                q.trace.partials_sent += 1;
                *q.agg.forwarded.entry(epoch).or_insert(0) += contributors;
                while q.agg.forwarded.len() > FORWARDED_RETAIN {
                    q.agg.forwarded.pop_first();
                }
                let payload =
                    PierPayload::Partial { query: id, epoch, groups, contributors, credit };
                self.stage_query_direct(id, next, payload);
            }
            None => {
                // The origin's own partials: absorb them as the root.
                self.absorb_partials(ctx, id, epoch, groups, contributors, credit, false);
            }
        }
    }

    /// The root's completion rule, run on every root arrival and for the
    /// next epoch when one finalizes (its expected count is only known
    /// then), so completion never finalizes an epoch before the one
    /// preceding it.  A credit-tracked epoch finalizes the moment the root
    /// holds as many units as nodes ran the last epoch: credit is conserved,
    /// so nothing is outstanding and no quiet wait is needed.  A
    /// single-table epoch that has as many contributors as the last arms a
    /// check that finalizes it one hold-down after its latest partial.
    fn check_complete(&mut self, ctx: &mut Ctx<'_>, id: QueryId, epoch: u64) {
        let Some(q) = self.queries.get(&id) else { return };
        let Some(root) = q.agg.root.get(&epoch) else { return };
        let Some(expected) = q.agg.root_expected(epoch) else { return };
        if tracks_credit(&q.spec) {
            if expected > 0 && root.credit == Credit::units(expected) {
                self.finalize_epoch(ctx, id, epoch, true);
            }
        } else if counts_contributors(&q.spec) && root.merged.contributors >= expected {
            // Every arrival past the expected count arms its own check; only
            // the one after the latest partial finds a hold-down of quiet.
            let delay = (root.last_update + self.config.holddown) - ctx.now();
            self.arm_timer(ctx, delay, TimerPurpose::RootQuiet(id, epoch));
        }
    }

    /// The root's timer rule: `collect_delay` after the epoch's first
    /// partial, postponed (a few times) while partials are still trickling
    /// in so slow subtrees are not cut off.
    pub(super) fn on_root_deadline(&mut self, ctx: &mut Ctx<'_>, id: QueryId, epoch: u64) {
        let quiet = self.config.holddown.saturating_mul(3);
        let now = ctx.now();
        let Some(root) = self.queries.get_mut(&id).and_then(|q| q.agg.root.get_mut(&epoch)) else {
            return;
        };
        if now.saturating_since(root.last_update) < quiet && root.extensions < 4 {
            root.extensions += 1;
            self.arm_timer(ctx, quiet, TimerPurpose::RootFinalize(id, epoch));
            return;
        }
        self.finalize_epoch(ctx, id, epoch, false);
    }

    /// The root's completion rule: the epoch reached its expected count, so
    /// finalize once no partial has arrived for one hold-down.
    pub(super) fn on_root_quiet(&mut self, ctx: &mut Ctx<'_>, id: QueryId, epoch: u64) {
        let quiet = self.config.holddown;
        let now = ctx.now();
        let Some(root) = self.queries.get(&id).and_then(|q| q.agg.root.get(&epoch)) else { return };
        if now.saturating_since(root.last_update) >= quiet {
            self.finalize_epoch(ctx, id, epoch, true);
        }
    }

    /// Finalize an epoch at the origin and store its result rows.
    /// `complete` records which rule closed it.
    fn finalize_epoch(&mut self, ctx: &mut Ctx<'_>, id: QueryId, epoch: u64, complete: bool) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(root) = q.agg.root.remove(&epoch) else { return };
        let record = if tracks_credit(&q.spec) {
            Finalized::Credit(root.credit)
        } else {
            Finalized::Contributors(root.merged.contributors)
        };
        q.agg.finalized.insert(epoch, record);
        if complete {
            q.trace.finalized_on_completion += 1;
        } else {
            q.trace.finalized_on_timer += 1;
        }
        let Merged { acc, contributors } = root.merged;
        self.check_complete(ctx, id, epoch + 1);
        self.fold_epoch_into_windows(ctx, id, epoch, acc, contributors);
    }

    /// Store one closed window's rows and contributor count in the origin's
    /// results, replacing an earlier report of the window, and count the
    /// rows by how many more (or fewer) the origin now stores for it.  Rows
    /// are kept pre-projection (hidden aggregates included) so the results
    /// can re-sort on any ORDER BY key; they are projected when read.
    fn report(&mut self, id: QueryId, window: u64, rows: Vec<Tuple>, contributors: u64) {
        let n = rows.len() as u64;
        let mut replaced = 0;
        if let Some(res) = self.results.get_mut(&id) {
            replaced = res.rows.insert(window, rows).map_or(0, |old| old.len() as u64);
            res.contributors.insert(window, contributors);
        }
        if let Some(q) = self.queries.get_mut(&id) {
            q.trace.results_sent = q.trace.results_sent + n - replaced;
            let counted = q.trace.epoch_rows.remove(&window).unwrap_or(0) + n - replaced;
            if counted > 0 {
                q.trace.epoch_rows.insert(window, counted);
            }
        }
    }

    /// Fold one finalized epoch's root accumulator into every window
    /// covering it, advance the watermark, close (report) every window the
    /// watermark has passed, and free the closed windows behind the
    /// [`horizon`](AggQuery::horizon).
    fn fold_epoch_into_windows(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        epoch: u64,
        acc: GroupAggregator,
        contributors: u64,
    ) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let wspec = result_windows(&q.spec);
        let agg = &mut q.agg;
        let horizon = agg.horizon(wspec);
        for w in wspec.windows_of(epoch) {
            match agg.windows.get_mut(&w) {
                // "Responding nodes" for a window: the best (largest)
                // epoch-level turnout among the epochs it covers.
                Some(win) if !win.closed => {
                    win.merged.acc.merge(&acc);
                    win.merged.contributors = win.merged.contributors.max(contributors);
                }
                None if w >= horizon => {
                    let merged = Merged { acc: acc.clone(), contributors };
                    agg.windows.insert(w, Window { merged, closed: false });
                }
                // A straggler epoch finalized after this window had closed.
                _ => {}
            }
        }
        let watermark = agg.watermark.map_or(epoch, |m| m.max(epoch));
        agg.watermark = Some(watermark);
        let mut close: Vec<u64> = agg
            .windows
            .iter()
            .filter(|(&w, win)| !win.closed && wspec.closing_epoch(w) <= watermark)
            .map(|(&w, _)| w)
            .collect();
        close.sort_unstable();
        for w in close {
            self.emit_window(ctx, id, w);
        }
        if let Some(q) = self.queries.get_mut(&id) {
            let horizon = q.agg.horizon(wspec);
            q.agg.windows.retain(|&w, _| w >= horizon);
        }
    }

    /// Close one window at the origin, or re-emit a closed one that late
    /// data patched: finalize its merged state, apply HAVING / ORDER BY /
    /// LIMIT, and store the rows under the window id.  A declared window
    /// counts its close and publishes alert tuples if the query has a
    /// `HAVING` trigger; a plain aggregate's epoch does neither.
    fn emit_window(&mut self, ctx: &mut Ctx<'_>, id: QueryId, window: u64) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(win) = q.agg.windows.get_mut(&window) else { return };
        let reemit = std::mem::replace(&mut win.closed, true);
        let rows = win.merged.acc.finalize();
        let contributors = win.merged.contributors;
        let declared = q.spec.kind.window_spec().is_some();
        if declared && !reemit {
            q.trace.windows_closed += 1;
        }
        let spec = q.spec.clone();
        let Some(finish) = spec.kind.agg_finish() else { return };
        // Trigger form: every row surviving HAVING is an alert for this
        // window, captured before ORDER BY / LIMIT trim the report.
        let (rows, alert_rows) = having_top_k(&finish, rows, declared);
        self.report(id, window, rows, contributors);
        if !alert_rows.is_empty() {
            self.publish_alerts(ctx, &spec, &finish, window, alert_rows);
        }
    }

    /// Publish one closed window's qualifying rows as alert tuples into the
    /// query's [`alert namespace`](PierNode::alert_namespace).  Keys are
    /// deterministic per (window, group), so a patched re-emission
    /// overwrites the stale alert instead of duplicating it.
    fn publish_alerts(
        &mut self,
        ctx: &mut Ctx<'_>,
        spec: &QuerySpec,
        finish: &AggFinish<'_>,
        window: u64,
        rows: Vec<Tuple>,
    ) {
        let namespace = Self::alert_namespace(spec.id);
        // Alerts live several windows, then expire like any soft state.
        let ttl = spec
            .continuous
            .map(|c| {
                let span =
                    c.period.as_micros().saturating_mul(4 * result_windows(spec).size as u64);
                Duration::from_micros(span.max(Duration::from_secs(60).as_micros()))
            })
            .unwrap_or(Duration::from_secs(60));
        for row in rows {
            let group_tag: String = row.values()[..finish.group_width.min(row.arity())]
                .iter()
                .map(|v| v.partition_string())
                .collect::<Vec<_>>()
                .join("\u{1f}");
            let resource = format!("{window}:{group_tag}");
            let mut values = vec![Value::Int(window as i64)];
            values.extend(row.project(finish.final_project).values().iter().cloned());
            let key = ResourceKey::new(namespace.clone(), resource.clone(), stable_hash(&resource));
            let payload = PierPayload::Tuple(Tuple::new(values));
            self.charge_query(spec.id, &payload, 0);
            let sent = self.dht.put(ctx, key, payload, ttl);
            if let Some(q) = self.queries.get_mut(&spec.id) {
                q.trace.messages_sent += sent as u64;
                q.trace.alerts_emitted += 1;
            }
        }
    }

    /// The DHT namespace a windowed query's `HAVING` trigger publishes
    /// alert tuples into.  Any node can subscribe by submitting an
    /// algebraic continuous [`QueryKind::Select`](crate::query::QueryKind)
    /// over it; each alert row is `(window, …the query's select list…)`.
    pub fn alert_namespace(query: QueryId) -> String {
        format!("pier:alert:{query}")
    }
}

/// Deterministic 64-bit string hash (FNV-1a), used for alert instance keys
/// so a patched re-emission overwrites its predecessor.
fn stable_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
