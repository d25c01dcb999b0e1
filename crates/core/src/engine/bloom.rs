//! Bloom layer: the one semi-join handshake every Bloom-filtered stage
//! runs, whether it is stage 0 of a [`JoinStrategy::BloomFilter`] join or an
//! inner symmetric-hash stage the planner marked `inner_bloom`.
//!
//! 1. **Summaries.**  Stage 0's left-scan sites summarize the keys they
//!    ship; an inner stage's join sites summarize the intermediate keys that
//!    reach them, shipping once arrivals go quiet (and again if a late key
//!    reopens the summary).  Both go to the query origin.
//! 2. **Combine.**  The origin unions the summaries per (stage, epoch) and
//!    broadcasts the combined filter a collect delay after the first one.
//!    The union keeps accumulating: a late summary re-broadcasts the grown
//!    filter, and one that adds no bits re-broadcasts nothing.
//! 3. **Phase 2.**  Every right-relation scan site rehashes the rows the
//!    first filter passes and holds the rest.  A grown filter re-tests only
//!    the held rows, so no row ships twice.  If no filter has arrived by the
//!    hold-down deadline, the site ships its right side unfiltered — a lost
//!    summary costs traffic, never results.

use super::{scan_since, Ctx, PierNode, TimerPurpose};
use crate::bloom::BloomFilter;
use crate::payload::PierPayload;
use crate::query::{JoinStage, JoinStrategy, QueryId};
use crate::tuple::Tuple;
use crate::value::Value;
use pier_simnet::SimTime;
use std::collections::HashMap;

/// Hash functions per filter.
const BLOOM_K: u8 = 4;

/// Origin side: the union of one (stage, epoch)'s summaries so far.
struct Combine {
    filter: BloomFilter,
    /// The combine deadline is armed.
    armed: bool,
    /// The last combined filter broadcast, so a summary that adds no new
    /// bits does not trigger a redundant re-broadcast.
    sent: Option<(Vec<u64>, u8)>,
}

/// One join site's in-progress Bloom summary of the intermediate keys that
/// reached it for an inner join stage.
struct InnerSummary {
    filter: BloomFilter,
    /// Last time an intermediate key was folded in (quiescence check).
    last_update: SimTime,
    /// How many times shipping has been postponed for late arrivals.
    extensions: u32,
    /// Sent to the origin; later arrivals no longer make the filter.
    shipped: bool,
}

/// One query's Bloom handshake state at one node, per (stage, epoch).
#[derive(Default)]
pub(super) struct BloomQuery {
    /// Origin side: combined summaries.
    combine: HashMap<(u8, u64), Combine>,
    /// Join-site summaries of intermediate keys (inner stages).
    summaries: HashMap<(u8, u64), InnerSummary>,
    /// Scan-site phase 2: an entry exists once this node has rehashed the
    /// stage's right relation (through a combined filter or via the
    /// fallback, whichever fired first) and holds the rows the filter
    /// pruned, which a grown filter re-tests.  Dropped with the query.
    phase2: HashMap<(u8, u64), Vec<Tuple>>,
}

/// Does stage `k`'s right relation wait for a combined filter?  A stage-0
/// Bloom join always does; an inner symmetric-hash stage does when the
/// planner marked it [`JoinStage::inner_bloom`].
pub(super) fn bloom_gated(k: usize, stage: &JoinStage) -> bool {
    match stage.strategy {
        JoinStrategy::BloomFilter => true,
        JoinStrategy::SymmetricHash => k > 0 && stage.inner_bloom,
        JoinStrategy::FetchMatches => false,
    }
}

impl PierNode {
    /// The planner-sized geometry of a stage's filter, clamped to the
    /// configured bounds (all nodes clamp the same disseminated value, so
    /// their summaries union cleanly).
    fn bloom_bits(&self, suggested: u32) -> usize {
        (suggested as usize).max(self.config.bloom_bits_min).min(self.config.bloom_bits_max)
    }

    /// Phase 1 of a stage-0 Bloom join: the summary of one left scan's keys.
    pub(super) fn left_summary(&self, stage: &JoinStage, rows: &[Tuple]) -> (Vec<u64>, u8) {
        let mut bloom = BloomFilter::new(self.bloom_bits(stage.bloom_bits), BLOOM_K);
        for row in rows {
            let key = stage.left_key.eval(row);
            if !key.is_null() {
                bloom.insert(&key);
            }
        }
        bloom.to_words()
    }

    /// Ship one summary straight to the query origin now, charged to the
    /// query.
    pub(super) fn send_summary(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        stage: u8,
        epoch: u64,
        (bits, k): (Vec<u64>, u8),
    ) {
        let payload = PierPayload::Bloom { query: id, stage, epoch, bits, k, combined: false };
        self.charge_query(id, &payload, 1);
        self.dht.send_direct(ctx, id.origin(), payload);
    }

    /// Fold one intermediate key into this join site's inner-stage Bloom
    /// summary, creating it (and arming its quiescence timer) on first use.
    pub(super) fn note_inner_key(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        stage: u8,
        epoch: u64,
        suggested_bits: u32,
        key: &Value,
    ) {
        if key.is_null() {
            return;
        }
        let now = ctx.now();
        let bits = self.bloom_bits(suggested_bits);
        let Some(q) = self.queries.get_mut(&id) else { return };
        let mut arm = false;
        let entry = q.bloom.summaries.entry((stage, epoch)).or_insert_with(|| {
            arm = true;
            InnerSummary {
                filter: BloomFilter::new(bits, BLOOM_K),
                last_update: now,
                extensions: 0,
                shipped: false,
            }
        });
        if entry.shipped {
            if entry.filter.may_contain(key) {
                // Already covered (or a false positive, which passes scan
                // sites anyway); nothing to refresh.
                return;
            }
            // A key the shipped summary missed: reopen the handshake.  The
            // cumulative filter re-ships after a fresh quiescence window,
            // the origin re-broadcasts the grown combination, and scan sites
            // re-test their held rows — so no match is ever lost to summary
            // timing, only delayed.
            entry.shipped = false;
            entry.extensions = 0;
            arm = true;
        }
        entry.filter.insert(key);
        entry.last_update = now;
        if arm {
            let delay = self.config.holddown.saturating_mul(3);
            self.arm_timer(ctx, delay, TimerPurpose::InnerBloomSummary(id, stage, epoch));
        }
    }

    /// Quiescence-gated ship of an inner-stage summary: postpone while
    /// intermediates are still arriving, then send the filter to the origin.
    pub(super) fn ship_inner_summary(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        stage: u8,
        epoch: u64,
    ) {
        let quiet_after = self.config.holddown.saturating_mul(3);
        let now = ctx.now();
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(entry) = q.bloom.summaries.get_mut(&(stage, epoch)) else { return };
        if entry.shipped {
            return;
        }
        if now.saturating_since(entry.last_update) < quiet_after && entry.extensions < 8 {
            entry.extensions += 1;
            self.arm_timer(ctx, quiet_after, TimerPurpose::InnerBloomSummary(id, stage, epoch));
            return;
        }
        entry.shipped = true;
        let words = entry.filter.to_words();
        self.send_summary(ctx, id, stage, epoch, words);
        self.process_upcalls(ctx);
    }

    /// Origin side: union one summary into its (stage, epoch) collection and
    /// arm the combine deadline if it is not already pending.
    pub(super) fn on_bloom_summary(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        stage: u8,
        epoch: u64,
        bits: Vec<u64>,
        k: u8,
    ) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let incoming = BloomFilter::from_words(bits, k);
        let arm = match q.bloom.combine.get_mut(&(stage, epoch)) {
            Some(c) => {
                c.filter.union(&incoming);
                !std::mem::replace(&mut c.armed, true)
            }
            None => {
                let c = Combine { filter: incoming, armed: true, sent: None };
                q.bloom.combine.insert((stage, epoch), c);
                true
            }
        };
        if arm {
            let delay = self.config.bloom_collect_delay;
            self.arm_timer(ctx, delay, TimerPurpose::BloomCombine(id, stage, epoch));
        }
    }

    /// Origin side, at the combine deadline: broadcast the union so far,
    /// unless it adds no bits to the last broadcast.
    pub(super) fn broadcast_bloom_union(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        stage: u8,
        epoch: u64,
    ) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let Some(c) = q.bloom.combine.get_mut(&(stage, epoch)) else { return };
        c.armed = false;
        let words = c.filter.to_words();
        if c.sent.as_ref() == Some(&words) {
            return;
        }
        c.sent = Some(words.clone());
        let (bits, k) = words;
        self.dht.broadcast(
            ctx,
            PierPayload::Bloom { query: id, stage, epoch, bits, k, combined: true },
        );
        self.process_upcalls(ctx);
    }

    /// Phase 2 at a right-relation scan site: rehash the stage's right
    /// table, pruned through the combined filter — or unfiltered when the
    /// hold-down deadline fired first (`filter == None`).  Whichever trigger
    /// runs first wins.  Later, a grown filter re-tests only the held rows;
    /// a fallback after a completed phase 2 is a no-op, because held rows
    /// were pruned by a filter that only ever grows, so they are not owed to
    /// anyone until a refresh passes them.
    pub(super) fn run_phase2(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        stage: u8,
        epoch: u64,
        filter: Option<&BloomFilter>,
    ) {
        let key = (stage, epoch);
        let Some(q) = self.queries.get_mut(&id) else { return };
        let first = !q.bloom.phase2.contains_key(&key);
        if first {
            q.bloom.phase2.insert(key, Vec::new());
        }
        let spec = q.spec.clone();
        let Some(st) = spec.kind.join_stages().and_then(|s| s.get(stage as usize)) else { return };
        // A mid-flight re-plan may have swapped strategies; a Fetch-Matches
        // stage has no rehash for this to feed.
        if st.strategy == JoinStrategy::FetchMatches {
            return;
        }
        let rows = if first {
            let now = ctx.now();
            let kern = self.query_kernels(id);
            let right_filter = kern.as_deref().and_then(|c| c.right_filter(stage as usize));
            self.scan_filtered_traced(
                id,
                &st.right_table,
                now,
                scan_since(&spec, now),
                right_filter,
            )
        } else {
            if filter.is_none() {
                return;
            }
            let held = q.bloom.phase2.get_mut(&key).map(std::mem::take).unwrap_or_default();
            if held.is_empty() {
                return;
            }
            held
        };
        let ship = match filter {
            Some(f) => {
                // Null keys cannot equi-join anywhere; drop them outright.
                // Pruned rows are *held*, not discarded.
                let mut pass = Vec::new();
                let mut held = Vec::new();
                for r in rows {
                    let k = st.right_key.eval(&r);
                    if k.is_null() {
                        continue;
                    }
                    if f.may_contain(&k) {
                        pass.push(r);
                    } else {
                        held.push(r);
                    }
                }
                if let Some(q) = self.queries.get_mut(&id) {
                    *q.trace.stage_bloom_tested.entry(stage).or_insert(0) +=
                        (pass.len() + held.len()) as u64;
                    *q.trace.stage_bloom_passed.entry(stage).or_insert(0) += pass.len() as u64;
                    if !held.is_empty() {
                        q.bloom.phase2.insert(key, held);
                    }
                }
                pass
            }
            None => {
                // Hold-down fallback: the combined filter never arrived in
                // time.  Ship unfiltered — more traffic, identical results.
                if let Some(q) = self.queries.get_mut(&id) {
                    q.trace.bloom_fallbacks += 1;
                }
                rows
            }
        };
        if !first && ship.is_empty() {
            return;
        }
        let out = self.build_rehash(&spec, stage, epoch, 1, ship);
        self.send_rehash(ctx, id, out);
        self.process_upcalls(ctx);
    }
}
