//! Sharded per-flow state for the bridges.
//!
//! The paper's bridges track one record per failover connection (§3).
//! The original implementation kept those records in unbounded
//! `HashMap`s keyed by hand-assembled tuples — fine for the paper's
//! one-client experiments, unusable at production flow counts. This
//! module replaces that with:
//!
//! * [`lifecycle::FlowState`] — an explicit per-flow lifecycle
//!   (Establishing → Replicated → Degraded/Closing → TimeWait →
//!   Reaped) replacing the implicit conn/tombstone dichotomy;
//! * [`table::FlowTable`] — a sharded table (power-of-two shard count,
//!   per-shard slab + hash index + intrusive LRU list) with O(1)
//!   lookup, configurable capacity, LRU eviction, timer-driven GC and
//!   per-shard statistics. Shards share nothing, so packet batches can
//!   fan out across shards on scoped threads
//!   (`tcpfo_net::exec::ShardExecutor`).
//!
//! Keys are [`FlowKey`]s ([`crate::designation::ConnKey`] is the same
//! type), parsed once at the filter boundary; the deterministic
//! [`FlowKey::hash64`] picks the shard, so a fixed seed maps every
//! flow to the same shard in every run.

pub mod lifecycle;
pub mod table;

pub use lifecycle::FlowState;
pub use table::{Evicted, FlowTable, FlowTableConfig, GcPolicy, Shard, ShardStats};
pub use tcpfo_tcp::filter::FlowKey;

use tcpfo_telemetry::{Gauge, Registry, Scope};

/// How often a bridge's timer-driven flow-table GC actually sweeps
/// (the host tick fires far more often), in sim nanoseconds.
pub const GC_INTERVAL_NANOS: u64 = 1_000_000_000;

/// Per-shard gauge names, in [`ShardGauges`] column order.
const SHARD_GAUGES: [&str; 6] = [
    "occupancy",
    "inserted",
    "evicted",
    "reaps",
    "lookups",
    "lru_depth",
];

/// A bridge's per-shard flow-table gauges, `<scope>.shard<i>.*`
/// (occupancy, inserts, LRU evictions, GC reaps, lookups, LRU chain
/// depth), created on demand as the shard count grows. Published from
/// the host tick, never per segment.
#[derive(Debug)]
pub struct ShardGauges {
    scope: Scope,
    shards: Vec<[Gauge; 6]>,
}

impl ShardGauges {
    /// Gauges under `scope` (e.g. `core.primary.flow`) of `registry`.
    pub fn new(registry: &Registry, scope: &str) -> Self {
        ShardGauges {
            scope: registry.scope(scope),
            shards: Vec::new(),
        }
    }

    /// Sets every shard's gauges from `flows` at sim time `now_nanos`.
    pub fn publish<T>(&mut self, flows: &FlowTable<T>, now_nanos: u64) {
        while self.shards.len() < flows.shard_count() {
            let i = self.shards.len();
            let scope = &self.scope;
            self.shards
                .push(SHARD_GAUGES.map(|name| scope.gauge(&format!("shard{i}.{name}"))));
        }
        for (i, gauges) in self.shards.iter().enumerate().take(flows.shard_count()) {
            let shard = flows.shard(i);
            let s = shard.stats;
            let values = [
                s.occupancy,
                s.inserted,
                s.evicted,
                s.reaped,
                s.lookups,
                shard.len() as u64,
            ];
            for (g, v) in gauges.iter().zip(values) {
                g.set_at(v, now_nanos);
            }
        }
    }
}
