//! Fault-detector parameters and the heartbeat wire format.
//!
//! "To detect the failure of a server process or server host, the
//! system employs a fault detector" (§2). Ours exchanges heartbeat
//! datagrams (IP protocol [`tcpfo_wire::ipv4::PROTO_HEARTBEAT`])
//! between replicas; silence longer than the timeout declares the
//! peer dead. The detector itself, and the §5/§6 procedures it
//! triggers, run in [`crate::chain::ChainController`] — the paper's
//! primary/secondary pair is a depth-2 chain.

use tcpfo_net::time::{SimDuration, SimTime};
use tcpfo_telemetry::HealthConfig;

/// Wire size of a v1 heartbeat: `"HB"` + sender seq (u64 LE) + echoed
/// peer seq (u64 LE, `u64::MAX` = nothing to echo) + echo hold time in
/// nanoseconds (u64 LE). Shorter payloads are legacy liveness-only
/// heartbeats and still count for the binary detector.
pub const HEARTBEAT_V1_LEN: usize = 26;

/// Entries in the sent-heartbeat ring used to match RTT echoes; echoes
/// older than this many intervals are dropped rather than mis-timed.
pub(crate) const HB_RING: usize = 8;

/// Heartbeat parameters.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Heartbeat transmission interval.
    pub interval: SimDuration,
    /// Silence longer than this declares the peer dead.
    pub timeout: SimDuration,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            interval: SimDuration::from_millis(10),
            timeout: SimDuration::from_millis(50),
        }
    }
}

impl DetectorConfig {
    /// §2 boundary: silence *strictly longer* than the timeout declares
    /// the peer dead. Silence exactly at the timeout does not — one
    /// nanosecond past does.
    pub fn silence_expired(&self, last: SimTime, now: SimTime) -> bool {
        now.duration_since(last) > self.timeout
    }

    /// Whole heartbeat intervals elapsed since `last` — the advisory
    /// consecutive-miss count fed to the health monitors. At exactly
    /// `k * interval` of silence the count is `k`, so with
    /// `timeout = miss_limit * interval` the score bottoms out at the
    /// limit while the binary detector fires only strictly past it.
    pub fn misses_since(&self, last: SimTime, now: SimTime) -> u64 {
        now.duration_since(last).as_nanos() / self.interval.as_nanos().max(1)
    }

    /// The health-monitor tunables derived from this detector: the
    /// advisory miss limit is exactly the number of heartbeat intervals
    /// in the binary timeout, so the score bottoms out at the instant
    /// the §2 decision is about to fire.
    pub fn health_config(&self) -> HealthConfig {
        let interval = self.interval.as_nanos().max(1);
        HealthConfig {
            miss_limit: (self.timeout.as_nanos() / interval).max(1) as u32,
            ..HealthConfig::default()
        }
    }
}
