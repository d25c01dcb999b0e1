//! The application payload PIER layers over the DHT.
//!
//! Everything PIER stores in or routes through the DHT is a [`PierPayload`]:
//! base-table tuples, disseminated query plans, partial aggregates climbing
//! the aggregation tree, rehashed join tuples, Bloom-filter summaries,
//! recursive-expansion requests, and result rows streaming back to the query
//! origin.  Rehashed join tuples and partials may also carry a [`Credit`],
//! the share of an epoch's work they stand for.

use crate::aggregate::AggState;
use crate::dataflow::ops::GroupKey;
use crate::encoding::TupleBlock;
use crate::query::{QueryId, QuerySpec, ResultRow};
use crate::stats::NodeStatsEntry;
use crate::trace::OpTrace;
use crate::tuple::Tuple;
use crate::value::Value;
use pier_simnet::{NodeAddr, WireSize};
use std::rc::Rc;

/// Application-level message / stored value.
///
/// Every stored item and every queued message holds one, so its size is paid
/// per tuple and per hop.  The two rare, large variants therefore hold their
/// contents behind a pointer: a disseminated plan (sent once per broadcast,
/// shared by every node that installs it) and an `EXPLAIN ANALYZE` trace
/// report.
#[derive(Clone, Debug, PartialEq)]
pub enum PierPayload {
    /// A base-table tuple stored in the DHT.
    Tuple(Tuple),
    /// Several base-table tuples of one relation that share a partitioning
    /// key, stored in the DHT as a single item.  Publishers coalesce
    /// same-destination tuples into one routed `put`; local scans and
    /// Fetch-Matches probes unbatch transparently via
    /// [`PierPayload::tuples`].  The block carries its wire encoding (plain
    /// row-major or compressed columnar) and sizes itself accordingly.
    TupleBatch(TupleBlock),
    /// A query plan being disseminated to all nodes.  Every node adopts the
    /// origin's shared spec as its running plan.
    Query(Rc<QuerySpec>),
    /// Tear down a (continuous) query everywhere.
    StopQuery(QueryId),
    /// Partial aggregation state climbing toward the query origin, every
    /// aggregate's root.
    Partial {
        /// Which query.
        query: QueryId,
        /// Which evaluation epoch.
        epoch: u64,
        /// Per-group mergeable states.
        groups: Vec<(GroupKey, Vec<AggState>)>,
        /// How many leaf nodes' data is reflected in these states.
        contributors: u64,
        /// The credit the sender returns with these states (none outside
        /// credit-tracked queries).
        credit: Credit,
    },
    /// One result row, streamed to the query origin.
    Result(ResultRow),
    /// A tuple rehashed to its join site (symmetric-hash and Bloom joins,
    /// plus intermediate tuples flowing between the stages of a multi-way
    /// join chain).
    JoinTuple {
        /// Which query.
        query: QueryId,
        /// Which join stage of the query's chain (0 for two-way joins).
        stage: u8,
        /// Which epoch.
        epoch: u64,
        /// 0 = left/intermediate input, 1 = right relation.
        side: u8,
        /// The join-key value (also determines the site).
        key: Value,
        /// The tuple itself.
        tuple: Tuple,
        /// The share of the epoch's credit this tuple carries.
        credit: Credit,
    },
    /// Several tuples of one join side that rehash to the *same* join-key
    /// value — and therefore to the same site — shipped as one message per
    /// (destination, query, epoch) instead of one per tuple.
    JoinBatch {
        /// Which query.
        query: QueryId,
        /// Which join stage of the query's chain (0 for two-way joins).
        stage: u8,
        /// Which epoch.
        epoch: u64,
        /// 0 = left/intermediate input, 1 = right relation.
        side: u8,
        /// The shared join-key value (also determines the site).
        key: Value,
        /// The tuples themselves, in the block's chosen wire encoding.
        tuples: TupleBlock,
        /// The share of the epoch's credit this batch carries.
        credit: Credit,
    },
    /// Several result rows of one (query, epoch) streamed to the origin in a
    /// single message.  Producers buffer rows while evaluating an epoch tick
    /// and flush once per destination.
    ResultBatch {
        /// Which query.
        query: QueryId,
        /// Which epoch.
        epoch: u64,
        /// The rows, in production order, in the block's chosen wire
        /// encoding.
        rows: TupleBlock,
    },
    /// A Bloom-filter summary of one node's join keys (phase 1, sent to the
    /// origin) or the combined filter (phase 2, broadcast).  Stage 0 runs the
    /// classic Bloom semi-join over the driving relation's keys; stages ≥ 1
    /// summarize the keys of intermediates that arrived at the stage's join
    /// sites, so the next right-relation scan can prune its rehash.
    Bloom {
        /// Which query.
        query: QueryId,
        /// Which join stage of the chain the summary belongs to.
        stage: u8,
        /// Which epoch.
        epoch: u64,
        /// Filter bit words.
        bits: Vec<u64>,
        /// Number of probe hashes.
        k: u8,
        /// `false` = node→origin summary, `true` = combined filter broadcast.
        combined: bool,
    },
    /// Recursive-query expansion: "follow the edges out of `vertex`".
    Expand {
        /// Which query.
        query: QueryId,
        /// The vertex whose outgoing edges should be followed.
        vertex: Value,
        /// Depth of `vertex` from the source.
        depth: u32,
    },
    /// `EXPLAIN ANALYZE`: the origin asks every node for its execution trace
    /// of a query (broadcast over the dissemination tree).
    TraceRequest {
        /// Which query.
        query: QueryId,
    },
    /// One node's per-operator execution trace, sent directly to the query
    /// origin in answer to a [`PierPayload::TraceRequest`].
    TraceReport {
        /// Which query.
        query: QueryId,
        /// The reporting node.
        node: NodeAddr,
        /// Its producer-side counters for the query.
        trace: Box<OpTrace>,
    },
    /// Automatic-statistics gossip: the sender's entire epoch-stamped view of
    /// per-node table summaries, pushed to a ring neighbour (anti-entropy).
    StatsGossip {
        /// Newest known entry per node, including the sender's own.
        entries: Vec<NodeStatsEntry>,
    },
}

impl WireSize for PierPayload {
    fn wire_size(&self) -> usize {
        1 + match self {
            PierPayload::Tuple(t) => t.wire_size(),
            // Blocks size themselves from their actual encoded form (the
            // plain encoding reproduces the legacy `4 + Σ tuple` accounting).
            PierPayload::TupleBatch(block) => block.wire_size(),
            PierPayload::Query(q) => q.wire_size(),
            PierPayload::StopQuery(_) => 8,
            PierPayload::Partial { groups, credit, .. } => {
                16 + 8
                    + credit.wire_size()
                    + groups
                        .iter()
                        .map(|(k, s)| {
                            k.iter().map(|v| v.wire_size()).sum::<usize>()
                                + s.iter().map(|x| x.wire_size()).sum::<usize>()
                        })
                        .sum::<usize>()
            }
            PierPayload::Result(r) => r.wire_size(),
            PierPayload::JoinTuple { key, tuple, credit, .. } => {
                19 + key.wire_size() + tuple.wire_size() + credit.wire_size()
            }
            PierPayload::JoinBatch { key, tuples, credit, .. } => {
                19 + key.wire_size() + tuples.wire_size() + credit.wire_size()
            }
            PierPayload::ResultBatch { rows, .. } => 16 + rows.wire_size(),
            PierPayload::Bloom { bits, .. } => 19 + bits.len() * 8,
            PierPayload::Expand { vertex, .. } => 20 + vertex.wire_size(),
            PierPayload::TraceRequest { .. } => 8,
            PierPayload::TraceReport { trace, .. } => 12 + trace.wire_size(),
            PierPayload::StatsGossip { entries } => {
                4 + entries.iter().map(|e| e.wire_size()).sum::<usize>()
            }
        }
    }
}

/// Termination credit (Mattern's weight throwing) for one epoch of a
/// credit-tracked query: a continuous hierarchical aggregate over
/// symmetric-hash joins.  Every node that runs the epoch injects one
/// [`Credit::UNIT`] and splits it over its rehash payloads; a join site
/// passes the credit it receives on to its outputs for the next stage and
/// returns what it cannot pass on toward the origin with its groups.
/// Credit is conserved, so the root holds `n` units only once every payload
/// the epoch's `n` nodes produced has been processed and every group has
/// arrived.
///
/// A credit is a sum of powers of two.  It travels as one exponent byte per
/// set bit; their count rides in spare bits of a byte the payload already
/// has (the side, the contributor count), so an absent credit costs nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Credit(u128);

impl Credit {
    /// No credit: the payload is not tracked.
    pub const NONE: Credit = Credit(0);
    /// What one node injects per epoch.  Leaves 96 halvings below it, and
    /// room above it for 2^32 nodes' units.
    pub const UNIT: Credit = Credit(1 << 96);

    /// `n` whole units.
    pub fn units(n: u64) -> Credit {
        Credit(Self::UNIT.0.saturating_mul(u128::from(n)))
    }

    /// How many units this credit makes, counting a fraction as a whole one.
    pub fn units_ceil(self) -> u64 {
        self.0.div_ceil(Self::UNIT.0) as u64
    }

    /// Is this the absent credit?
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Split this credit into `n` nonzero parts that sum to it exactly, by
    /// halving the largest piece until there are `n` pieces.  Every part is
    /// a single power of two, except the last when the credit already has
    /// more than `n` pieces: it takes all that are left.  `None` when the
    /// credit is absent or too finely divided already.
    pub fn split(self, n: usize) -> Option<Vec<Credit>> {
        if self.is_none() || n == 0 {
            return None;
        }
        // counts[k]: how many pieces of 2^k there are.
        let mut counts = [0u64; 128];
        for (k, c) in counts.iter_mut().enumerate() {
            *c = (self.0 >> k & 1) as u64;
        }
        let mut pieces = self.0.count_ones() as usize;
        let mut top = 127 - self.0.leading_zeros() as usize;
        while pieces < n {
            if top == 0 {
                return None;
            }
            counts[top] -= 1;
            counts[top - 1] += 2;
            pieces += 1;
            if counts[top] == 0 {
                top -= 1;
            }
        }
        let mut parts = Vec::with_capacity(n);
        let mut rest = 0u128;
        for k in (0..128).rev() {
            for _ in 0..counts[k] {
                if parts.len() + 1 < n {
                    parts.push(Credit(1 << k));
                } else {
                    rest += 1 << k;
                }
            }
        }
        parts.push(Credit(rest));
        Some(parts)
    }
}

impl std::ops::AddAssign for Credit {
    /// Saturating: a duplicated delivery can only push a sum past the count
    /// the root waits for, never wrap it back onto it.
    fn add_assign(&mut self, other: Credit) {
        self.0 = self.0.saturating_add(other.0);
    }
}

impl WireSize for Credit {
    fn wire_size(&self) -> usize {
        self.0.count_ones() as usize
    }
}

impl PierPayload {
    /// If this payload is a stored tuple, view it.
    pub fn as_tuple(&self) -> Option<&Tuple> {
        match self {
            PierPayload::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// Set the credit a rehashed join payload carries (other variants carry
    /// none, or get theirs when they are built).
    pub fn set_credit(&mut self, to: Credit) {
        if let PierPayload::JoinTuple { credit, .. } | PierPayload::JoinBatch { credit, .. } = self
        {
            *credit = to;
        }
    }

    /// The stored base-table tuples this payload carries: one for
    /// [`PierPayload::Tuple`], all of them for [`PierPayload::TupleBatch`],
    /// none for every other variant.  Scans and probes read through this so
    /// batched and unbatched storage are indistinguishable to operators.
    pub fn tuples(&self) -> &[Tuple] {
        match self {
            PierPayload::Tuple(t) => std::slice::from_ref(t),
            PierPayload::TupleBatch(block) => block.rows(),
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_simnet::NodeAddr;

    #[test]
    fn as_tuple() {
        let t = Tuple::new(vec![Value::Int(1)]);
        assert_eq!(PierPayload::Tuple(t.clone()).as_tuple(), Some(&t));
        assert_eq!(PierPayload::StopQuery(QueryId::new(NodeAddr(0), 1)).as_tuple(), None);
    }

    #[test]
    fn wire_sizes_scale() {
        let small = PierPayload::Tuple(Tuple::new(vec![Value::Int(1)]));
        let big = PierPayload::Tuple(Tuple::new(vec![Value::str("x".repeat(100))]));
        assert!(big.wire_size() > small.wire_size());
        let bloom = PierPayload::Bloom {
            query: QueryId::new(NodeAddr(0), 1),
            stage: 0,
            epoch: 0,
            bits: vec![0; 64],
            k: 4,
            combined: false,
        };
        assert!(bloom.wire_size() > 64 * 8);
    }

    #[test]
    fn payloads_and_messages_stay_small() {
        // Every stored item and queued message holds a payload; a variant
        // outgrowing these bounds belongs behind a pointer.
        assert!(std::mem::size_of::<PierPayload>() <= 128);
        assert!(std::mem::size_of::<crate::engine::PierMsg>() <= 256);
    }

    #[test]
    fn the_finest_credit_cannot_be_split() {
        assert_eq!(Credit(1).split(2), None);
        assert_eq!(Credit(3).split(2), Some(vec![Credit(2), Credit(1)]));
    }
}
