#![warn(missing_docs)]

//! # tcpfo-core
//!
//! The contribution of *Transparent TCP Connection Failover* (Koch,
//! Hortikar, Moser, Melliar-Smith — DSN 2003): a *bridge* sublayer
//! between the TCP and IP layers of a primary and a secondary server
//! that lets a TCP server endpoint fail over at any point in a
//! connection's lifetime, transparently to an unmodified client and to
//! the actively-replicated server application.
//!
//! * [`primary`] — the primary bridge: output-queue matching, `Δseq`
//!   synchronisation, `min(ack)`/`min(win)` merging, the §3.4
//!   empty-ACK rule, §4 retransmission recognition, §8 termination,
//!   §6 secondary-failure degradation.
//! * [`secondary`] — the secondary bridge: promiscuous ingress
//!   `a_p → a_s` rewriting and egress `a_c → a_p` diversion with the
//!   original-destination option (incremental checksums throughout).
//! * [`queues`] — the primary/secondary output queues of Figure 2.
//! * [`designation`] — §7's two ways of marking failover connections.
//! * [`flow`] — the sharded flow table both bridges store per-flow
//!   state in: explicit lifecycle, capacity limits, LRU eviction,
//!   timer-driven GC, per-shard stats.
//! * [`detector`] — heartbeat parameters and wire format.
//! * [`chain`] — the replica control plane for every replication
//!   depth: heartbeat fault detection, the §5 takeover (IP takeover via
//!   gratuitous ARP + TCB re-keying), §6 degradation and rejoin, plus
//!   the bridge for head and middle links.
//! * [`replica`] — the one builder for every replica host (bridge by
//!   chain position, observers, controller, ARP priming).
//! * [`testbed`] — the paper's Figure-1 topology (client, router,
//!   shared segment, `replicas` servers head first, optional back-end
//!   T) as a one-call builder: the standard-TCP baseline (one server),
//!   the pair, daisy chains with standby reprovisioning, and the switch
//!   ablation.
//!
//! # Example
//!
//! ```
//! use tcpfo_core::testbed::{Testbed, TestbedConfig};
//! use tcpfo_net::time::SimDuration;
//!
//! // The paper's replicated testbed with port 80 designated (§7
//! // method 2), ready to run.
//! let mut tb = Testbed::new(TestbedConfig::default());
//! tb.run_for(SimDuration::from_millis(5));
//! assert_eq!(tb.replicas.len(), 2);
//! ```

pub mod chain;
pub mod designation;
pub mod detector;
pub mod flow;
pub mod primary;
pub mod queues;
pub mod replica;
pub mod reprovision;
pub mod secondary;
pub mod testbed;

pub use chain::{ChainBridge, ChainController, ChainStats, TakeoverState};
pub use designation::{ConnKey, FailoverConfig};
pub use detector::DetectorConfig;
pub use flow::{FlowKey, FlowState, FlowTable, FlowTableConfig};
pub use primary::{ConnRow, PrimaryBridge, PrimaryMode, PrimaryStats};
pub use reprovision::{FlowHandoff, ReprovisionPhase, ReprovisionTracker};
pub use secondary::{SecondaryBridge, SecondaryMode, SecondaryStats};
pub use testbed::{ChainConfig, ChainTestbed, SegmentKind, Testbed, TestbedConfig};
