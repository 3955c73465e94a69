//! The one attach point for a bridge's optional observers.
//!
//! Every bridge carries the same four observers — the invariant
//! auditor, the per-stage latency observatory, the health observatory
//! (replication-lag ledger) and the hot-path span sampler — in one
//! [`Observers`] bundle. Each observer is an `Option<Box<_>>`: detached
//! (the default) costs one branch at its use site and never allocates,
//! which is what the zero-alloc proofs rely on. [`Observers::new`] is
//! the only place the four are built, from [`ObserverFlags`] resolved
//! once per testbed.

use crate::audit::env_audit_enabled;
use crate::health::env_health_enabled;
use crate::latency::env_latency_enabled;
use crate::span::env_trace_enabled;
use crate::{
    AuditConfig, HealthObservatory, InvariantAuditor, LatencyObservatory, Registry, SpanSampler,
    Telemetry,
};

/// Which observers to attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserverFlags {
    /// The invariant auditor.
    pub audit: bool,
    /// The per-stage latency observatory.
    pub latency: bool,
    /// The health observatory (replication-lag ledger).
    pub health: bool,
    /// The hot-path span sampler.
    pub trace: bool,
}

impl ObserverFlags {
    /// Resolves each override against its environment knob: `None`
    /// follows `TCPFO_AUDIT` / `TCPFO_LATENCY` / `TCPFO_HEALTH` /
    /// `TCPFO_TRACE`, `Some(_)` wins.
    pub fn resolve(
        audit: Option<bool>,
        latency: Option<bool>,
        health: Option<bool>,
        trace: Option<bool>,
    ) -> Self {
        ObserverFlags {
            audit: audit.unwrap_or_else(env_audit_enabled),
            latency: latency.unwrap_or_else(env_latency_enabled),
            health: health.unwrap_or_else(env_health_enabled),
            trace: trace.unwrap_or_else(env_trace_enabled),
        }
    }
}

/// A bridge's four optional observers.
#[derive(Debug, Default)]
pub struct Observers {
    /// Online invariant auditor.
    pub audit: Option<Box<InvariantAuditor>>,
    /// Per-stage latency observatory.
    pub latency: Option<Box<LatencyObservatory>>,
    /// Health observatory (replication-lag ledger).
    pub health: Option<Box<HealthObservatory>>,
    /// Hot-path span sampler, recording into the hub's span ring.
    pub trace: Option<Box<SpanSampler>>,
}

impl Observers {
    /// The observers `flags` asks for: the auditor labelled
    /// `audit_label` and reporting to `hub`, the sampler recording into
    /// `hub`'s span ring.
    pub fn new(flags: ObserverFlags, audit_label: &str, hub: &Telemetry) -> Self {
        Observers {
            audit: flags.audit.then(|| {
                Box::new(InvariantAuditor::new(AuditConfig::from_env(audit_label)).with_hub(hub))
            }),
            latency: flags.latency.then(|| Box::new(LatencyObservatory::new())),
            health: flags.health.then(|| Box::new(HealthObservatory::new())),
            trace: flags
                .trace
                .then(|| Box::new(SpanSampler::with_default_period(hub.trace.clone()))),
        }
    }

    /// The attached auditor, if any.
    pub fn audit(&self) -> Option<&InvariantAuditor> {
        self.audit.as_deref()
    }

    /// The attached latency observatory, if any.
    pub fn latency(&self) -> Option<&LatencyObservatory> {
        self.latency.as_deref()
    }

    /// The attached health observatory, if any.
    pub fn health(&self) -> Option<&HealthObservatory> {
        self.health.as_deref()
    }

    /// The attached span sampler, if any.
    pub fn trace(&self) -> Option<&SpanSampler> {
        self.trace.as_deref()
    }

    /// Publishes the latency and health observatories under `scope`,
    /// and keeps the auditor's health snapshot (captured in every
    /// flight-recorder bundle) current. Host-tick path, not per packet.
    pub fn publish(&mut self, registry: &Registry, scope: &str, now_ns: u64) {
        if let Some(obs) = self.latency.as_deref_mut() {
            obs.publish(&registry.scope(scope), now_ns);
        }
        if let Some(obs) = self.health.as_deref_mut() {
            obs.publish(&registry.scope(scope), now_ns);
            if let Some(aud) = self.audit.as_deref_mut() {
                aud.set_health_snapshot(obs.to_json());
            }
        }
    }
}
