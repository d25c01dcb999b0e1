//! Aggregation layer: local folds, the in-network partial climb toward the
//! aggregation root, root finalization, epoch-count windows with their
//! late-data policy, and `HAVING`-triggered alerts.
//!
//! Completion, not a timer, closes an epoch of a continuous single-table
//! aggregate.  Every node that runs an epoch contributes exactly one partial
//! with `contributors: 1` (an empty scan included), so the contributors that
//! reached a node last epoch predict this epoch's.  A hop forwards as soon as
//! that many have passed through it; the root finalizes once that many have
//! reported and no partial has arrived for one hold-down.  The timers stay as
//! the fallback and the upper bound: a hop's hold-down from its first
//! arrival, and the root's `collect_delay` from its first partial plus up to
//! four quiet extensions.  Aggregates over joins and one-shot aggregates run
//! on the timers alone: a join site keeps sending partials as matches arrive,
//! and a one-shot query has no previous epoch.

use super::{Ctx, PierNode, TimerPurpose, WindowLatePolicy};
use crate::aggregate::AggState;
use crate::dataflow::ops::{sort_tuples, GroupAggregator, GroupKey};
use crate::payload::PierPayload;
use crate::plan::SortKey;
use crate::query::{AggFinish, QueryId, QueryKind, QuerySpec, WindowSpec};
use crate::tuple::Tuple;
use crate::value::Value;
use pier_dht::ResourceKey;
use pier_simnet::{Duration, SimTime};
use std::collections::{BTreeMap, HashMap, HashSet};

/// How many closed windows' worth of state the root retains for late-data
/// patching under [`WindowLatePolicy::Patch`]; late partials for windows
/// older than this many slides behind the newest close degrade to `Drop`.
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
    fn absorb(&mut self, groups: Partials, contributors: u64) {
        for (key, states) in groups {
            self.acc.merge_group(key, &states);
        }
        self.contributors += contributors;
    }
}

/// Partials a hop holds for one epoch, and the token of the hold-down timer
/// that forwards them (`None` only while the arrival that created the entry
/// is being absorbed).
struct Pending {
    merged: Merged,
    holddown: Option<u64>,
}

/// The aggregation root's accumulation for one epoch, removed at finalize.
struct RootEpoch {
    merged: Merged,
    /// Last time a partial arrived (quiescence check).
    last_update: SimTime,
    /// How many times finalization has been postponed.
    extensions: u32,
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
    /// their contributor counts; late partials for them are discarded rather
    /// than double-reported.
    finalized: HashMap<u64, u64>,
    /// Windowed aggregates, root side: per-window merged group states (each
    /// finalized epoch's accumulator folded into every window covering it)
    /// and the best per-epoch contributor count among them.
    windows: HashMap<u64, Merged>,
    /// Highest epoch this root has finalized — the window-close watermark.
    watermark: Option<u64>,
    /// Windows already closed and reported.  Under
    /// [`WindowLatePolicy::Patch`] late data re-opens them transiently (the
    /// corrected window is re-emitted); under `Drop` it is discarded.
    closed: HashSet<u64>,
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

    /// The completion rule's expected count at the root: the contributors it
    /// finalized last epoch.
    fn root_expected(&self, epoch: u64) -> Option<u64> {
        self.finalized.get(&epoch.checked_sub(1)?).copied()
    }
}

/// Does completion close this query's epochs?  Only a continuous
/// single-table aggregate's: its contributor count repeats epoch to epoch.
fn closes_on_completion(spec: &QuerySpec) -> bool {
    spec.continuous.is_some() && matches!(spec.kind, QueryKind::Aggregate { .. })
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

fn agg_root_id(query: QueryId) -> pier_dht::Id {
    ResourceKey::singleton("pier:agg", format!("{query}")).routing_id()
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
        self.absorb_partials(ctx, spec.id, epoch, agg.take_partials(), 1, false);
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
        self.absorb_partials(ctx, id, epoch, partials, contributors, false);
    }

    /// Fold partial states into this node's role for the query: root
    /// accumulator if we are the aggregation root, otherwise the pending
    /// buffer that the completion rule or the hold-down timer will forward.
    pub(super) fn absorb_partials(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        epoch: u64,
        groups: Partials,
        contributors: u64,
        from_network: bool,
    ) {
        let Some(q) = self.queries.get_mut(&id) else {
            // This node never received the query plan (e.g. it joined after
            // dissemination).  It cannot combine — it lacks the aggregate
            // specs — but it can still relay the partials toward the root so
            // the data is not lost.
            if from_network {
                if let Some(next) = self.dht.route_next_hop(&agg_root_id(id)) {
                    self.stats.partials_sent += 1;
                    let payload = PierPayload::Partial { query: id, epoch, groups, contributors };
                    self.note_payload(&payload);
                    self.pending_direct.push((next.addr, super::DirectStream::Engine, payload));
                }
            }
            return;
        };
        if from_network {
            self.stats.partials_merged += 1;
            q.trace.partials_merged += 1;
        }
        // Colocated join aggregation: the grouping column *is* the final
        // stage's join key, so the DHT already partitioned each group wholly
        // onto one join site.  Every site acts as the aggregation root for
        // its own groups — finalizing in place and skipping the partial
        // climb entirely (aggregate-aware stage keys).
        let is_root = self.dht.route_next_hop(&agg_root_id(id)).is_none()
            || q.spec.kind.join_aggregate().is_some_and(|a| a.hierarchical && a.colocated);
        let Some((group_exprs, aggs)) = q.spec.kind.partial_agg_parts() else { return };
        if is_root && q.agg.finalized.contains_key(&epoch) {
            self.absorb_late(ctx, id, epoch, groups, contributors);
            return;
        }
        let new_acc = || Merged {
            acc: GroupAggregator::new(group_exprs.to_vec(), aggs.to_vec()),
            contributors: 0,
        };
        let now = ctx.now();
        if is_root {
            let mut armed = false;
            let root = q.agg.root.entry(epoch).or_insert_with(|| {
                armed = true;
                RootEpoch { merged: new_acc(), last_update: now, extensions: 0 }
            });
            root.merged.absorb(groups, contributors);
            root.last_update = now;
            if armed {
                let delay = self.config.collect_delay;
                self.arm_timer(ctx, delay, TimerPurpose::RootFinalize(id, epoch));
            }
            self.arm_if_complete(ctx, id, epoch);
            return;
        }
        let expected = q.agg.hop_expected(epoch).filter(|_| closes_on_completion(&q.spec));
        let through = q.agg.forwarded.get(&epoch).copied().unwrap_or(0);
        let pending = q
            .agg
            .pending
            .entry(epoch)
            .or_insert_with(|| Pending { merged: new_acc(), holddown: None });
        pending.merged.absorb(groups, contributors);
        if expected.is_some_and(|x| through + pending.merged.contributors >= x) {
            // As many contributors as last epoch have reached this hop: ship
            // now instead of waiting out the hold-down.
            self.forward_partials(ctx, id, epoch);
        } else if pending.holddown.is_none() {
            let delay = self.config.holddown;
            let token = self.arm_timer(ctx, delay, TimerPurpose::Holddown(id, epoch));
            if let Some(p) = self.queries.get_mut(&id).and_then(|q| q.agg.pending.get_mut(&epoch)) {
                p.holddown = Some(token);
            }
        }
    }

    /// A partial for an epoch the root already finalized.  Plain continuous
    /// queries drop it (best-effort soft state, as in PIER); windowed
    /// queries judge lateness per covering window, and the configured
    /// policy decides what happens to already-closed ones.
    fn absorb_late(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        epoch: u64,
        groups: Partials,
        contributors: u64,
    ) {
        let policy = self.config.window_late_policy;
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(wspec) = q.spec.kind.window_spec() else { return };
        let Some((group_exprs, aggs)) = q.spec.kind.partial_agg_parts() else { return };
        let mut dropped = false;
        let mut reemit: Vec<u64> = Vec::new();
        for w in wspec.windows_of(epoch) {
            if q.agg.closed.contains(&w) {
                match (policy, q.agg.windows.get_mut(&w)) {
                    (WindowLatePolicy::Patch, Some(win)) => {
                        // The late subtree never made it into the epoch's
                        // contributor total, so it adds here.
                        win.absorb(groups.clone(), contributors);
                        reemit.push(w);
                    }
                    // Drop policy, or Patch past its retention horizon: the
                    // window's state is gone.
                    _ => dropped = true,
                }
            } else {
                // The window is still open — the data is not late for *it*.
                // Fold it in; the window reports it when the watermark
                // closes it.
                q.agg
                    .windows
                    .entry(w)
                    .or_insert_with(|| Merged {
                        acc: GroupAggregator::new(group_exprs.to_vec(), aggs.to_vec()),
                        contributors: 0,
                    })
                    .absorb(groups.clone(), contributors);
            }
        }
        if dropped {
            self.stats.window_late_dropped += 1;
            q.trace.window_late_dropped += 1;
        }
        let patched = reemit.len() as u64;
        self.stats.window_late_patched += patched;
        q.trace.window_late_patched += patched;
        for w in reemit {
            self.emit_window(ctx, id, w, true);
        }
    }

    /// Ship the buffered partials for (query, epoch) one hop closer to the
    /// root, disarming their hold-down if the completion rule got there
    /// first.
    pub(super) fn forward_partials(&mut self, ctx: &mut Ctx<'_>, id: QueryId, epoch: u64) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(Pending { merged: mut buf, holddown }) = q.agg.pending.remove(&epoch) else {
            return;
        };
        if let Some(token) = holddown {
            self.timer_purposes.remove(&token);
        }
        let contributors = buf.contributors;
        let groups = buf.acc.take_partials();
        if groups.is_empty() && contributors == 0 {
            return;
        }
        match self.dht.route_next_hop(&agg_root_id(id)).map(|p| p.addr) {
            Some(next) if next != self.addr => {
                self.stats.partials_sent += 1;
                q.trace.partials_sent += 1;
                *q.agg.forwarded.entry(epoch).or_insert(0) += contributors;
                while q.agg.forwarded.len() > FORWARDED_RETAIN {
                    q.agg.forwarded.pop_first();
                }
                let payload = PierPayload::Partial { query: id, epoch, groups, contributors };
                self.stage_query_direct(id, next, payload);
            }
            _ => {
                // We became the root in the meantime: absorb locally.
                self.absorb_partials(ctx, id, epoch, groups, contributors, false);
            }
        }
    }

    /// The root's completion rule: once an epoch has as many contributors
    /// as the root finalized last epoch, arm a check that finalizes it one
    /// hold-down after its latest partial.  Runs on every root arrival, and
    /// for the next epoch when one finalizes (its expected count is only
    /// known then), so completion never finalizes an epoch before the one
    /// preceding it.
    fn arm_if_complete(&mut self, ctx: &mut Ctx<'_>, id: QueryId, epoch: u64) {
        let Some(q) = self.queries.get(&id) else { return };
        let Some(root) = q.agg.root.get(&epoch) else { return };
        let expected = q.agg.root_expected(epoch).filter(|_| closes_on_completion(&q.spec));
        if expected.is_some_and(|x| root.merged.contributors >= x) {
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

    /// Finalize an epoch at the aggregation root and ship the result rows.
    /// `complete` records which rule closed it.
    fn finalize_epoch(&mut self, ctx: &mut Ctx<'_>, id: QueryId, epoch: u64, complete: bool) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(root) = q.agg.root.remove(&epoch) else { return };
        q.agg.finalized.insert(epoch, root.merged.contributors);
        if complete {
            self.stats.finalized_on_completion += 1;
            q.trace.finalized_on_completion += 1;
        } else {
            self.stats.finalized_on_timer += 1;
            q.trace.finalized_on_timer += 1;
        }
        let spec = q.spec.clone();
        let Merged { acc, contributors } = root.merged;
        self.arm_if_complete(ctx, id, epoch + 1);

        if let Some(wspec) = spec.kind.window_spec() {
            // Windowed aggregate: the epoch's merged state is not reported
            // on its own — it is folded into every window covering it, and
            // whole windows are reported when the watermark closes them.
            self.fold_epoch_into_windows(ctx, id, epoch, acc, contributors, wspec);
            return;
        }
        // Both aggregation shapes finalize here: the classic single-table
        // aggregate, and the hierarchical aggregate terminating a join.
        let Some(finish) = spec.kind.agg_finish() else { return };
        let (rows, _) = having_top_k(&finish, acc.finalize(), false);
        // Rows ship pre-projection (hidden aggregates included) so the
        // origin can re-sort on any ORDER BY key; it projects afterwards.
        for row in rows {
            self.send_result(ctx, &spec, epoch, row);
        }
        let done = PierPayload::EpochDone { query: id, epoch, contributors };
        self.send_query_direct(ctx, id, spec.origin(), done);
        self.process_upcalls(ctx);
    }

    /// Fold one finalized epoch's root accumulator into every window
    /// covering it, advance the watermark, and close (report) every window
    /// the watermark has passed.
    fn fold_epoch_into_windows(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        epoch: u64,
        acc: GroupAggregator,
        contributors: u64,
        wspec: WindowSpec,
    ) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let agg = &mut q.agg;
        for w in wspec.windows_of(epoch) {
            if agg.closed.contains(&w) {
                // A straggler epoch whose windows all reported already; the
                // late-partial path owns that case.
                continue;
            }
            // "Responding nodes" for a window: the best (largest)
            // epoch-level turnout among the epochs it covers.
            match agg.windows.get_mut(&w) {
                Some(win) => {
                    win.acc.merge(&acc);
                    win.contributors = win.contributors.max(contributors);
                }
                None => {
                    agg.windows.insert(w, Merged { acc: acc.clone(), contributors });
                }
            }
        }
        let watermark = agg.watermark.map_or(epoch, |m| m.max(epoch));
        agg.watermark = Some(watermark);
        let mut close: Vec<u64> = agg
            .windows
            .keys()
            .copied()
            .filter(|&w| wspec.closing_epoch(w) <= watermark && !agg.closed.contains(&w))
            .collect();
        close.sort_unstable();
        for w in close {
            self.emit_window(ctx, id, w, false);
        }
    }

    /// Close one window at the aggregation root: finalize its merged state,
    /// apply HAVING / ORDER BY / LIMIT, ship the rows (tagged with the
    /// window id in the `epoch` slot of every result payload) plus an
    /// `EpochDone`, and publish alert tuples if the query has a `HAVING`
    /// trigger.  `reemit` marks a late-data correction under
    /// [`WindowLatePolicy::Patch`]: a [`PierPayload::WindowRetract`]
    /// precedes the corrected rows so the origin replaces, not appends.
    fn emit_window(&mut self, ctx: &mut Ctx<'_>, id: QueryId, window: u64, reemit: bool) {
        let retain = self.config.window_late_policy == WindowLatePolicy::Patch;
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(win) = q.agg.windows.get(&window) else { return };
        let rows = win.acc.finalize();
        let contributors = win.contributors;
        q.agg.closed.insert(window);
        if retain {
            // Keep a bounded horizon of closed-window state so late partials
            // can patch recent windows; anything older is freed (and further
            // late data for it degrades to Drop).
            let cutoff = window.saturating_sub(WINDOW_PATCH_RETAIN);
            let closed = &q.agg.closed;
            q.agg.windows.retain(|w, _| !(*w < cutoff && closed.contains(w)));
        } else {
            q.agg.windows.remove(&window);
        }
        if !reemit {
            q.trace.windows_closed += 1;
            self.stats.windows_closed += 1;
        }
        let spec = q.spec.clone();
        let Some(finish) = spec.kind.agg_finish() else { return };
        // Trigger form: every row surviving HAVING is an alert for this
        // window, captured before ORDER BY / LIMIT trim the report.
        let (rows, alert_rows) = having_top_k(&finish, rows, true);
        if reemit {
            let retract = PierPayload::WindowRetract { query: id, window };
            self.send_query_direct(ctx, id, spec.origin(), retract);
        }
        for row in rows {
            self.send_result(ctx, &spec, window, row);
        }
        let done = PierPayload::EpochDone { query: id, epoch: window, contributors };
        self.send_query_direct(ctx, id, spec.origin(), done);
        if !alert_rows.is_empty() {
            self.publish_alerts(ctx, &spec, &finish, window, alert_rows);
        }
        self.process_upcalls(ctx);
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
                let wspec = spec.kind.window_spec().unwrap_or(WindowSpec::tumbling(1));
                let span = c.period.as_micros().saturating_mul(4 * wspec.size as u64);
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
            self.note_payload(&payload);
            let sent = self.dht.put(ctx, key, payload, Some(ttl));
            self.stats.messages_sent += sent as u64;
            self.stats.alerts_emitted += 1;
            if let Some(q) = self.queries.get_mut(&spec.id) {
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
