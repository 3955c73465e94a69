//! Application-level chain reprovisioning (PR9): composes the
//! [`Testbed`] reprovisioning primitives with the [`SourceServer`]'s
//! deterministic stream to restore chain redundancy after a takeover.
//!
//! The core testbed owns the protocol's stack half — spawning the
//! standby, synthesising the adopted TCBs, converting the old tail
//! into a middle link ([`tcpfo_core::reprovision`] documents the
//! three phases). What it cannot know is the *application* half: which
//! connections exist, where each response stream stands, and how to
//! resume it. For the deterministic pattern source that half is three
//! calls — `conn_progress` (snapshot), `adopt_conn` (resume), and
//! nothing else, because the pattern is a pure function of the offset.

use crate::stream::SourceServer;
use tcpfo_core::testbed::Testbed;
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::host::Host;

/// How long the freshly spawned standby runs before the handoff: its
/// host boots, its controller joins the heartbeat mesh, and the
/// reprovision clock accrues the provisioning cost the tracker
/// separates from catch-up.
pub const STANDBY_BOOT: SimDuration = SimDuration::from_millis(50);

/// Runs one full tail-reprovisioning round against a chain whose
/// replicas serve [`SourceServer`] streams (app index 0): spawns a
/// standby and lets it boot for [`STANDBY_BOOT`], then — atomically,
/// with no sim time in between — snapshots the tail's live flows,
/// rebuilds the TCBs and resumes each response stream at its
/// handed-off offset, and converts the old tail into a middle link.
/// Returns the standby's replica index.
///
/// On return the round is in its catch-up phase; drive it with
/// [`Testbed::run_until_restored`] (or poll
/// [`Testbed::catchup_lag`] yourself) until the converted link's
/// backlog drains to zero.
///
/// # Panics
///
/// Panics if the tail host's app 0 is not a [`SourceServer`], or on a
/// testbed that cannot take a standby ([`Testbed::spawn_standby`]).
pub fn reprovision_tail(tb: &mut Testbed) -> usize {
    let tail = tb.tail_index();
    let tail_node = tb.replicas[tail];
    let port = tb
        .sim
        .with::<Host, _>(tail_node, |h, _| h.app_mut::<SourceServer>(0).port());
    let standby = tb.spawn_standby();
    let standby_node = tb.replicas[standby];
    tb.sim.with::<Host, _>(standby_node, move |h, _| {
        h.add_app(Box::new(SourceServer::new(port)));
    });
    tb.run_for(STANDBY_BOOT);
    // From here to `convert_tail_to_middle` no sim time passes: the
    // snapshot cursor stays the tail's live `snd_nxt`.
    let progress = tb.sim.with::<Host, _>(tail_node, |h, _| {
        h.app_mut::<SourceServer>(0).conn_progress()
    });
    let handoffs = tb.snapshot_handoffs(tail, &progress);
    let ids = tb.adopt_on_standby(standby, &handoffs);
    let resume: Vec<_> = ids
        .iter()
        .zip(&handoffs)
        .map(|(&id, ho)| (id, ho.offset, ho.remaining))
        .collect();
    tb.sim.with::<Host, _>(standby_node, move |h, _| {
        let app = h.app_mut::<SourceServer>(0);
        for (id, offset, remaining) in resume {
            app.adopt_conn(id, offset, remaining);
        }
    });
    tb.convert_tail_to_middle(standby, &handoffs);
    standby
}
