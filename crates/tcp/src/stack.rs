//! The per-host TCP stack: demultiplexing, listeners, port and ISN
//! allocation, and the outbox feeding the TCP/IP-boundary filter.
//!
//! The stack is deliberately I/O-free: segments arrive through
//! [`TcpStack::on_segment`] and leave through [`TcpStack::take_outbox`];
//! the [`crate::host::Host`] device moves them through the
//! [`crate::filter::SegmentFilter`] and the IP layer.

use crate::config::TcpConfig;
use crate::filter::{AddressedSegment, FailoverRule};
use crate::socket::{Socket, TcpState};
use crate::types::{FourTuple, ListenerId, SocketAddr, SocketId};
use std::collections::{HashMap, HashSet, VecDeque};
use tcpfo_net::time::SimTime;
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::{verify_segment_checksum, TcpFlags, TcpSegment};

/// Errors returned by stack API calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackError {
    /// The port is already bound by a listener.
    AddrInUse,
    /// No ephemeral ports are available.
    PortsExhausted,
    /// The socket handle does not refer to a live socket.
    BadSocket,
}

impl std::fmt::Display for StackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StackError::AddrInUse => f.write_str("address already in use"),
            StackError::PortsExhausted => f.write_str("ephemeral ports exhausted"),
            StackError::BadSocket => f.write_str("invalid socket handle"),
        }
    }
}

impl std::error::Error for StackError {}

/// A passive-open endpoint with its accept backlog.
#[derive(Debug)]
struct Listener {
    port: u16,
    backlog: VecDeque<SocketId>,
    failover: bool,
}

/// Deterministic ISN: a hash of the stack seed and the 4-tuple, so a
/// replica deterministically re-derives the same ISN for the same
/// connection regardless of arrival interleaving — while replicas with
/// *different* seeds produce different ISNs (giving a non-trivial
/// `Δseq` for the bridge to compensate, §3.3).
fn initial_sequence(seed: u64, tuple: &FourTuple) -> u32 {
    let mut x = seed
        ^ (u64::from(u32::from(tuple.local.ip)) << 32)
        ^ (u64::from(u32::from(tuple.remote.ip)))
        ^ (u64::from(tuple.local.port) << 48)
        ^ (u64::from(tuple.remote.port) << 16);
    // splitmix64 finaliser.
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x as u32
}

/// The TCP stack of one host.
///
/// # Example
///
/// ```
/// use tcpfo_net::time::SimTime;
/// use tcpfo_tcp::config::TcpConfig;
/// use tcpfo_tcp::stack::TcpStack;
/// use tcpfo_tcp::types::SocketAddr;
/// use tcpfo_wire::ipv4::Ipv4Addr;
///
/// // Two stacks wired back to back (no simulator needed for a demo).
/// let now = SimTime::ZERO;
/// let (a_ip, b_ip) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
/// let mut server = TcpStack::new(TcpConfig::default().with_isn_seed(1));
/// let listener = server.listen(80, false)?;
/// let mut client = TcpStack::new(TcpConfig::default().with_isn_seed(2));
/// let conn = client.connect(a_ip, SocketAddr::new(b_ip, 80), false, now)?;
/// // Shuttle segments until the handshake settles.
/// for _ in 0..8 {
///     for seg in client.take_outbox() { server.on_segment(&seg, now); }
///     for seg in server.take_outbox() { client.on_segment(&seg, now); }
/// }
/// assert!(client.socket(conn).unwrap().is_established());
/// assert!(server.accept(listener).is_some());
/// # Ok::<(), tcpfo_tcp::stack::StackError>(())
/// ```
pub struct TcpStack {
    cfg: TcpConfig,
    sockets: Vec<Option<Socket>>,
    demux: HashMap<FourTuple, usize>,
    listeners: Vec<Option<Listener>>,
    next_ephemeral: u16,
    outbox: Vec<AddressedSegment>,
    /// Ports designated for failover by configuration (§7 method 2).
    failover_ports: HashSet<u16>,
    /// Designations newly made via the socket option (§7 method 1),
    /// drained by the host into the filter. A failover *listener*
    /// designates its port (the bridges must recognise SYNs before any
    /// socket exists); a failover *connect* designates its 4-tuple.
    pub(crate) pending_designations: Vec<FailoverRule>,
    /// Segments dropped due to bad checksums (observability — a bridge
    /// bug would show up here first).
    pub checksum_drops: u64,
    /// Segments that matched no socket and were answered with RST.
    pub rst_sent: u64,
    /// Retransmits carried by sockets that have since been reaped, so
    /// [`TcpStack::total_retransmits`] never goes backwards.
    retired_retransmits: u64,
    /// RTO expiries carried by reaped sockets.
    retired_rto_expiries: u64,
}

impl TcpStack {
    /// Creates a stack.
    pub fn new(cfg: TcpConfig) -> Self {
        let next_ephemeral = cfg.ephemeral_start;
        TcpStack {
            cfg,
            sockets: Vec::new(),
            demux: HashMap::new(),
            listeners: Vec::new(),
            next_ephemeral,
            outbox: Vec::new(),
            failover_ports: HashSet::new(),
            pending_designations: Vec::new(),
            checksum_drops: 0,
            rst_sent: 0,
            retired_retransmits: 0,
            retired_rto_expiries: 0,
        }
    }

    /// The stack's configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Adds `port` to the failover port set (§7 method 2). The same
    /// set must be configured on the primary and the secondary.
    pub fn add_failover_port(&mut self, port: u16) {
        self.failover_ports.insert(port);
    }

    /// Whether `port` is in the failover port set.
    pub fn is_failover_port(&self, port: u16) -> bool {
        self.failover_ports.contains(&port)
    }

    // ---------------------------------------------------------------
    // Socket API
    // ---------------------------------------------------------------

    /// Opens a listener on `port`. With `failover`, every accepted
    /// connection is designated a failover connection (§7 method 1).
    ///
    /// # Errors
    ///
    /// [`StackError::AddrInUse`] if the port is already listening.
    pub fn listen(&mut self, port: u16, failover: bool) -> Result<ListenerId, StackError> {
        if self.listeners.iter().flatten().any(|l| l.port == port) {
            return Err(StackError::AddrInUse);
        }
        if failover {
            // The socket option on a listening socket designates every
            // connection it will accept — the bridges must treat the
            // port as a failover port from this moment (the secondary
            // has to claim the very first client SYN).
            self.pending_designations.push(FailoverRule::Port(port));
            self.failover_ports.insert(port);
        }
        self.listeners.push(Some(Listener {
            port,
            backlog: VecDeque::new(),
            failover,
        }));
        Ok(ListenerId(self.listeners.len() - 1))
    }

    /// Dequeues an established connection from a listener's backlog.
    pub fn accept(&mut self, listener: ListenerId) -> Option<SocketId> {
        let l = self.listeners.get_mut(listener.0)?.as_mut()?;
        // Only hand out connections that completed the handshake.
        let pos = l.backlog.iter().position(|sid| {
            self.sockets
                .get(sid.0)
                .and_then(|s| s.as_ref())
                .map(|s| s.is_established())
                .unwrap_or(false)
        })?;
        l.backlog.remove(pos)
    }

    /// Initiates an active open from `local_ip` to `remote`.
    ///
    /// # Errors
    ///
    /// [`StackError::PortsExhausted`] when no ephemeral port is free.
    pub fn connect(
        &mut self,
        local_ip: Ipv4Addr,
        remote: SocketAddr,
        failover: bool,
        now: SimTime,
    ) -> Result<SocketId, StackError> {
        self.connect_from(local_ip, None, remote, failover, now)
    }

    /// Initiates an active open binding a specific local port (e.g.
    /// FTP's active-mode data connections originate from port 20).
    /// `None` allocates a deterministic ephemeral port.
    ///
    /// # Errors
    ///
    /// [`StackError::AddrInUse`] if the explicit 4-tuple is taken;
    /// [`StackError::PortsExhausted`] when no ephemeral port is free.
    pub fn connect_from(
        &mut self,
        local_ip: Ipv4Addr,
        local_port: Option<u16>,
        remote: SocketAddr,
        failover: bool,
        now: SimTime,
    ) -> Result<SocketId, StackError> {
        let port = match local_port {
            Some(p) => {
                let tuple = FourTuple::new(SocketAddr::new(local_ip, p), remote);
                if self.demux.contains_key(&tuple) {
                    return Err(StackError::AddrInUse);
                }
                p
            }
            None => self.alloc_ephemeral(local_ip, remote)?,
        };
        let tuple = FourTuple::new(SocketAddr::new(local_ip, port), remote);
        let iss = initial_sequence(self.cfg.isn_seed, &tuple);
        let mut sock = Socket::client(tuple, iss, &self.cfg);
        // Server-initiated failover connections (§7.2) are designated
        // by *our* port (e.g. FTP data port 20); outbound connections
        // to a replicated service by the remote port.
        let designated = failover
            || self.failover_ports.contains(&remote.port)
            || self.failover_ports.contains(&port);
        sock.failover = designated;
        if designated {
            self.pending_designations.push(FailoverRule::Tuple(tuple));
        }
        let id = self.insert_socket(sock);
        self.run_output(id, now);
        Ok(id)
    }

    /// Adopts a mid-connection flow from a reprovisioning handoff (PR9
    /// chain catch-up): the socket is synthesised `Established` at the
    /// snapshot's sequence positions — no handshake, no SYN on the
    /// wire — and designated for failover so the local bridge diverts
    /// everything it produces.
    ///
    /// # Errors
    ///
    /// [`StackError::AddrInUse`] if the 4-tuple is already tracked.
    pub fn adopt(
        &mut self,
        local: SocketAddr,
        remote: SocketAddr,
        snd_nxt: u32,
        rcv_nxt: u32,
        peer_mss: u16,
        peer_wnd: u16,
    ) -> Result<SocketId, StackError> {
        let tuple = FourTuple::new(local, remote);
        if self.demux.contains_key(&tuple) {
            return Err(StackError::AddrInUse);
        }
        let sock = Socket::adopted(tuple, snd_nxt, rcv_nxt, peer_mss, peer_wnd, &self.cfg);
        self.pending_designations.push(FailoverRule::Tuple(tuple));
        Ok(self.insert_socket(sock))
    }

    /// Writes bytes; returns how many were accepted into the send
    /// buffer (the paper's §9 send-call semantics).
    pub fn send(&mut self, id: SocketId, data: &[u8], now: SimTime) -> Result<usize, StackError> {
        let sock = self.socket_mut(id)?;
        let n = sock.send(data);
        self.run_output(id, now);
        Ok(n)
    }

    /// Reads up to `max` bytes of in-order data.
    pub fn recv(&mut self, id: SocketId, max: usize, now: SimTime) -> Result<Vec<u8>, StackError> {
        let cfg = self.cfg.clone();
        let sock = self.socket_mut(id)?;
        let data = sock.recv(max, &cfg);
        self.run_output(id, now); // may emit a window update
        Ok(data)
    }

    /// Half-closes the send direction (FIN after queued data).
    pub fn close(&mut self, id: SocketId, now: SimTime) -> Result<(), StackError> {
        self.socket_mut(id)?.close();
        self.run_output(id, now);
        Ok(())
    }

    /// Aborts with RST.
    pub fn abort(&mut self, id: SocketId, now: SimTime) -> Result<(), StackError> {
        self.socket_mut(id)?.abort();
        self.run_output(id, now);
        self.reap(id);
        Ok(())
    }

    /// Releases a socket handle the application is done with. Closed
    /// and TIME-WAIT sockets are reaped silently; live ones are
    /// aborted (RST) first.
    pub fn release(&mut self, id: SocketId, now: SimTime) {
        if let Ok(sock) = self.socket_mut(id) {
            if !matches!(sock.state, TcpState::Closed | TcpState::TimeWait) {
                sock.abort();
                self.run_output(id, now);
            }
        }
        self.reap(id);
    }

    /// Immutable access to a socket (state queries).
    pub fn socket(&self, id: SocketId) -> Option<&Socket> {
        self.sockets.get(id.0).and_then(|s| s.as_ref())
    }

    fn socket_mut(&mut self, id: SocketId) -> Result<&mut Socket, StackError> {
        self.sockets
            .get_mut(id.0)
            .and_then(|s| s.as_mut())
            .ok_or(StackError::BadSocket)
    }

    /// Iterates over the ids of all live sockets.
    pub fn socket_ids(&self) -> Vec<SocketId> {
        self.sockets
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| SocketId(i)))
            .collect()
    }

    // ---------------------------------------------------------------
    // Segment input / timers / outbox
    // ---------------------------------------------------------------

    /// Processes a TCP segment addressed to this stack. The checksum is
    /// verified against the addressed pair (bridge-patched segments must
    /// still verify — this catches incremental-checksum bugs).
    pub fn on_segment(&mut self, seg: &AddressedSegment, now: SimTime) {
        if !verify_segment_checksum(seg.src, seg.dst, &seg.bytes) {
            self.checksum_drops += 1;
            return;
        }
        let Ok(parsed) = TcpSegment::decode(&seg.bytes) else {
            self.checksum_drops += 1;
            return;
        };
        let tuple = FourTuple::new(
            SocketAddr::new(seg.dst, parsed.dst_port),
            SocketAddr::new(seg.src, parsed.src_port),
        );
        if let Some(&idx) = self.demux.get(&tuple) {
            let id = SocketId(idx);
            if let Some(sock) = self.sockets[idx].as_mut() {
                sock.on_segment(&parsed, now, &self.cfg);
                self.run_output(id, now);
                self.maybe_undemux(id);
            }
            return;
        }
        // New connection?
        if parsed.flags.contains(TcpFlags::SYN) && !parsed.flags.contains(TcpFlags::ACK) {
            let listener_info = self
                .listeners
                .iter()
                .enumerate()
                .find(|(_, l)| l.as_ref().is_some_and(|l| l.port == parsed.dst_port))
                .map(|(i, l)| (i, l.as_ref().unwrap().failover));
            if let Some((lidx, l_failover)) = listener_info {
                let iss = initial_sequence(self.cfg.isn_seed, &tuple);
                let mut sock = Socket::server(tuple, iss, &parsed, &self.cfg);
                let designated = l_failover || self.failover_ports.contains(&parsed.dst_port);
                sock.failover = designated;
                if designated {
                    self.pending_designations.push(FailoverRule::Tuple(tuple));
                }
                let id = self.insert_socket(sock);
                self.listeners[lidx].as_mut().unwrap().backlog.push_back(id);
                self.run_output(id, now);
                return;
            }
        }
        // No socket, no listener: RST (RFC 793), unless it is an RST.
        if !parsed.flags.contains(TcpFlags::RST) {
            self.rst_sent += 1;
            let mut b = TcpSegment::builder(parsed.dst_port, parsed.src_port).flags(TcpFlags::RST);
            if parsed.flags.contains(TcpFlags::ACK) {
                b = b.seq(parsed.ack);
            } else {
                b = b.ack(parsed.seq.wrapping_add(parsed.seq_len()));
            }
            let rst = b.build();
            let bytes = rst.encode(seg.dst, seg.src);
            self.outbox
                .push(AddressedSegment::new(seg.dst, seg.src, bytes));
        }
    }

    /// Fires due timers on every socket.
    pub fn on_tick(&mut self, now: SimTime) {
        for idx in 0..self.sockets.len() {
            if self.sockets[idx].is_some() {
                let id = SocketId(idx);
                if let Some(sock) = self.sockets[idx].as_mut() {
                    sock.on_tick(now, &self.cfg);
                }
                self.run_output(id, now);
                self.maybe_undemux(id);
            }
        }
    }

    /// Takes every segment the stack wants transmitted.
    pub fn take_outbox(&mut self) -> Vec<AddressedSegment> {
        std::mem::take(&mut self.outbox)
    }

    /// Takes newly made designations (socket-option method).
    pub fn take_designations(&mut self) -> Vec<FailoverRule> {
        std::mem::take(&mut self.pending_designations)
    }

    /// Re-keys every *failover* socket bound to `old` onto `new`.
    ///
    /// This is the clarified final step of IP takeover (§5): after the
    /// secondary takes over `a_p`, its TCBs — keyed by `a_s` while the
    /// bridge translated addresses — must answer to `a_p`. On the wire
    /// nothing changes: sequence numbers, ACKs and windows are already
    /// the ones the client has seen all along.
    pub fn rebind_local_ip(&mut self, old: Ipv4Addr, new: Ipv4Addr) -> usize {
        let mut rebound = 0;
        let mut updates = Vec::new();
        for (tuple, &idx) in &self.demux {
            if tuple.local.ip == old {
                if let Some(sock) = self.sockets[idx].as_ref() {
                    if sock.failover {
                        updates.push((*tuple, idx));
                    }
                }
            }
        }
        for (old_tuple, idx) in updates {
            self.demux.remove(&old_tuple);
            let mut new_tuple = old_tuple;
            new_tuple.local.ip = new;
            if let Some(sock) = self.sockets[idx].as_mut() {
                sock.tuple = new_tuple;
            }
            self.demux.insert(new_tuple, idx);
            rebound += 1;
        }
        rebound
    }

    /// Kicks every *failover* socket at takeover (§5): each one
    /// retransmits from `snd_una` if it has anything outstanding and
    /// sends an ACK otherwise, instead of leaving the stream idle until
    /// a retransmission timer fires. The segments land in the outbox
    /// and leave through the bridge like any other output. Returns the
    /// number of sockets kicked.
    pub fn kick_failover_sockets(&mut self, now: SimTime) -> usize {
        let mut kicked = 0;
        for idx in 0..self.sockets.len() {
            let Some(sock) = self.sockets[idx].as_mut() else {
                continue;
            };
            if !sock.failover || sock.state == TcpState::Closed {
                continue;
            }
            sock.takeover_kick(now, &self.cfg);
            let id = SocketId(idx);
            self.run_output(id, now);
            self.maybe_undemux(id);
            kicked += 1;
        }
        kicked
    }

    // ---------------------------------------------------------------
    // Internals
    // ---------------------------------------------------------------

    fn insert_socket(&mut self, sock: Socket) -> SocketId {
        let tuple = sock.tuple;
        let idx = self
            .sockets
            .iter()
            .position(|s| s.is_none())
            .unwrap_or_else(|| {
                self.sockets.push(None);
                self.sockets.len() - 1
            });
        self.sockets[idx] = Some(sock);
        self.demux.insert(tuple, idx);
        SocketId(idx)
    }

    /// Runs the socket's output routine and encodes results into the
    /// outbox.
    fn run_output(&mut self, id: SocketId, now: SimTime) {
        let Some(sock) = self.sockets.get_mut(id.0).and_then(|s| s.as_mut()) else {
            return;
        };
        let mut segs = Vec::new();
        sock.output(now, &self.cfg, &mut segs);
        let (src, dst) = (sock.tuple.local.ip, sock.tuple.remote.ip);
        for seg in segs {
            let bytes = seg.encode(src, dst);
            self.outbox.push(AddressedSegment::new(src, dst, bytes));
        }
    }

    /// Removes the demux entry once a socket is fully closed so the
    /// tuple can be reused; the socket object stays until released.
    fn maybe_undemux(&mut self, id: SocketId) {
        if let Some(sock) = self.sockets.get(id.0).and_then(|s| s.as_ref()) {
            if sock.state == TcpState::Closed {
                self.demux.remove(&sock.tuple);
            }
        }
    }

    fn reap(&mut self, id: SocketId) {
        if let Some(Some(sock)) = self.sockets.get(id.0) {
            self.retired_retransmits += sock.retransmits;
            self.retired_rto_expiries += sock.rto_expiries;
            self.demux.remove(&sock.tuple);
            self.sockets[id.0] = None;
        }
    }

    /// Segments retransmitted across all sockets, including ones that
    /// have since been released (monotone over the stack's lifetime).
    pub fn total_retransmits(&self) -> u64 {
        self.retired_retransmits
            + self
                .sockets
                .iter()
                .flatten()
                .map(|s| s.retransmits)
                .sum::<u64>()
    }

    /// Retransmission-timer expiries across all sockets, including
    /// released ones (monotone over the stack's lifetime).
    pub fn total_rto_expiries(&self) -> u64 {
        self.retired_rto_expiries
            + self
                .sockets
                .iter()
                .flatten()
                .map(|s| s.rto_expiries)
                .sum::<u64>()
    }

    fn alloc_ephemeral(
        &mut self,
        local_ip: Ipv4Addr,
        remote: SocketAddr,
    ) -> Result<u16, StackError> {
        let start = self.next_ephemeral;
        loop {
            let port = self.next_ephemeral;
            self.next_ephemeral = if port == u16::MAX {
                self.cfg.ephemeral_start
            } else {
                port + 1
            };
            let tuple = FourTuple::new(SocketAddr::new(local_ip, port), remote);
            if !self.demux.contains_key(&tuple) {
                return Ok(port);
            }
            if self.next_ephemeral == start {
                return Err(StackError::PortsExhausted);
            }
        }
    }

    /// Test/bench helper: delivers a raw already-encoded segment.
    pub fn inject(&mut self, src: Ipv4Addr, dst: Ipv4Addr, seg: &TcpSegment, now: SimTime) {
        let bytes = seg.encode(src, dst);
        self.on_segment(&AddressedSegment::new(src, dst, bytes), now);
    }

    /// Test helper: the parsed segments currently in the outbox,
    /// without draining it.
    pub fn peek_outbox(&self) -> Vec<(Ipv4Addr, Ipv4Addr, TcpSegment)> {
        self.outbox
            .iter()
            .map(|s| {
                (
                    s.src,
                    s.dst,
                    TcpSegment::decode(&s.bytes).expect("own segment"),
                )
            })
            .collect()
    }
}

impl std::fmt::Debug for TcpStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpStack")
            .field("sockets", &self.sockets.iter().flatten().count())
            .field("listeners", &self.listeners.iter().flatten().count())
            .field("outbox", &self.outbox.len())
            .finish()
    }
}

/// Convenience: is this segment (by ports) on a failover connection
/// according to a port set? Used by bridges configured with method 2.
pub fn port_set_matches(ports: &HashSet<u16>, src_port: u16, dst_port: u16) -> bool {
    ports.contains(&src_port) || ports.contains(&dst_port)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::SocketError;
    use bytes::Bytes as B;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn cfg(seed: u64) -> TcpConfig {
        TcpConfig {
            delayed_ack: None,
            nagle: false,
            ..TcpConfig::default().with_isn_seed(seed)
        }
    }

    /// Moves outbox segments from one stack into the other.
    fn exchange(a: &mut TcpStack, b: &mut TcpStack, now: SimTime) {
        for _ in 0..400 {
            let from_a = a.take_outbox();
            let from_b = b.take_outbox();
            if from_a.is_empty() && from_b.is_empty() {
                return;
            }
            for seg in from_a {
                b.on_segment(&seg, now);
            }
            for seg in from_b {
                a.on_segment(&seg, now);
            }
        }
        panic!("exchange did not quiesce");
    }

    fn connected_pair() -> (TcpStack, SocketId, TcpStack, SocketId) {
        connected_pair_with(false)
    }

    /// A connected pair whose server socket is (or is not) a failover
    /// connection.
    fn connected_pair_with(failover: bool) -> (TcpStack, SocketId, TcpStack, SocketId) {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        let listener = server.listen(80, failover).unwrap();
        let mut client = TcpStack::new(cfg(3));
        let cs = client
            .connect(A, SocketAddr::new(B_IP, 80), false, now)
            .unwrap();
        exchange(&mut client, &mut server, now);
        let ss = server.accept(listener).expect("accepted");
        assert!(client.socket(cs).unwrap().is_established());
        assert!(server.socket(ss).unwrap().is_established());
        (client, cs, server, ss)
    }

    #[test]
    fn listen_connect_accept_transfer() {
        let now = SimTime::ZERO;
        let (mut client, cs, mut server, ss) = connected_pair();
        client.send(cs, b"ping", now).unwrap();
        exchange(&mut client, &mut server, now);
        assert_eq!(server.recv(ss, 100, now).unwrap(), b"ping");
        server.send(ss, b"pong", now).unwrap();
        exchange(&mut client, &mut server, now);
        assert_eq!(client.recv(cs, 100, now).unwrap(), b"pong");
    }

    #[test]
    fn duplicate_listen_rejected() {
        let mut s = TcpStack::new(cfg(1));
        s.listen(80, false).unwrap();
        assert_eq!(s.listen(80, false).unwrap_err(), StackError::AddrInUse);
        s.listen(81, false).unwrap();
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        let mut client = TcpStack::new(cfg(3));
        let cs = client
            .connect(A, SocketAddr::new(B_IP, 9999), false, now)
            .unwrap();
        exchange(&mut client, &mut server, now);
        assert_eq!(server.rst_sent, 1);
        let sock = client.socket(cs).unwrap();
        assert_eq!(sock.state, TcpState::Closed);
        assert_eq!(sock.error, Some(SocketError::Reset));
    }

    #[test]
    fn checksum_corruption_dropped() {
        let now = SimTime::ZERO;
        let (mut client, _cs, mut server, _ss) = connected_pair();
        client.send(SocketId(0), b"data", now).unwrap();
        let mut segs = client.take_outbox();
        assert_eq!(segs.len(), 1);
        let mut corrupted = segs[0].bytes.to_vec();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xff;
        segs[0].bytes = corrupted.into();
        server.on_segment(&segs[0], now);
        assert_eq!(server.checksum_drops, 1);
    }

    #[test]
    fn deterministic_isns_differ_across_seeds() {
        let t = FourTuple::new(SocketAddr::new(A, 1000), SocketAddr::new(B_IP, 80));
        assert_eq!(initial_sequence(1, &t), initial_sequence(1, &t));
        assert_ne!(initial_sequence(1, &t), initial_sequence(2, &t));
        let t2 = FourTuple::new(SocketAddr::new(A, 1001), SocketAddr::new(B_IP, 80));
        assert_ne!(initial_sequence(1, &t), initial_sequence(1, &t2));
    }

    #[test]
    fn ephemeral_ports_deterministic_across_replicas() {
        // Two stacks with the same ephemeral_start allocate the same
        // ports for the same sequence of connects — required for
        // server-initiated failover connections (§7.2).
        let now = SimTime::ZERO;
        let mut p = TcpStack::new(cfg(1));
        let mut s = TcpStack::new(cfg(2));
        for _ in 0..5 {
            let a = p
                .connect(A, SocketAddr::new(B_IP, 5432), false, now)
                .unwrap();
            let b = s
                .connect(B_IP, SocketAddr::new(A, 5432), false, now)
                .unwrap();
            assert_eq!(
                p.socket(a).unwrap().tuple.local.port,
                s.socket(b).unwrap().tuple.local.port
            );
        }
    }

    #[test]
    fn failover_designation_via_port_set() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        server.add_failover_port(80);
        server.listen(80, false).unwrap();
        let mut client = TcpStack::new(cfg(3));
        client
            .connect(A, SocketAddr::new(B_IP, 80), false, now)
            .unwrap();
        exchange(&mut client, &mut server, now);
        let des = server.take_designations();
        assert_eq!(des.len(), 1);
        assert!(matches!(des[0], FailoverRule::Tuple(t) if t.local.port == 80));
    }

    #[test]
    fn failover_designation_via_socket_option() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        server.listen(443, true).unwrap(); // listener opts in
        let mut client = TcpStack::new(cfg(3));
        let cs = client
            .connect(A, SocketAddr::new(B_IP, 443), true, now) // client opts in
            .unwrap();
        assert_eq!(client.take_designations().len(), 1);
        exchange(&mut client, &mut server, now);
        // The listener designated its port at listen() time, and the
        // accepted connection adds its tuple.
        let des = server.take_designations();
        assert_eq!(des.len(), 2, "{des:?}");
        assert!(matches!(des[0], FailoverRule::Port(443)));
        assert!(matches!(des[1], FailoverRule::Tuple(_)));
        assert!(client.socket(cs).unwrap().failover);
    }

    #[test]
    fn orderly_close_and_tuple_reuse() {
        let now = SimTime::ZERO;
        let (mut client, cs, mut server, ss) = connected_pair();
        client.close(cs, now).unwrap();
        exchange(&mut client, &mut server, now);
        server.close(ss, now).unwrap();
        exchange(&mut client, &mut server, now);
        assert_eq!(server.socket(ss).unwrap().state, TcpState::Closed);
        assert_eq!(client.socket(cs).unwrap().state, TcpState::TimeWait);
        // TIME-WAIT expiry frees the tuple.
        let later = now + client.config().time_wait + tcpfo_net::time::SimDuration::from_millis(2);
        client.on_tick(later);
        assert_eq!(client.socket(cs).unwrap().state, TcpState::Closed);
        assert!(client.demux.is_empty());
    }

    #[test]
    fn rebind_local_ip_moves_only_failover_sockets() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        server.listen(80, true).unwrap(); // failover
        server.listen(81, false).unwrap(); // plain
        let mut client = TcpStack::new(cfg(3));
        let c1 = client
            .connect(A, SocketAddr::new(B_IP, 80), false, now)
            .unwrap();
        let c2 = client
            .connect(A, SocketAddr::new(B_IP, 81), false, now)
            .unwrap();
        exchange(&mut client, &mut server, now);
        let new_ip = Ipv4Addr::new(10, 0, 0, 99);
        let moved = server.rebind_local_ip(B_IP, new_ip);
        assert_eq!(moved, 1, "only the failover socket is re-keyed");
        let _ = (c1, c2);
        let moved_tuples: Vec<_> = server
            .demux
            .keys()
            .filter(|t| t.local.ip == new_ip)
            .collect();
        assert_eq!(moved_tuples.len(), 1);
        assert_eq!(moved_tuples[0].local.port, 80);
    }

    #[test]
    fn takeover_kick_retransmits_from_snd_una() {
        let now = SimTime::ZERO;
        let (_client, _cs, mut server, ss) = connected_pair_with(true);
        server.send(ss, b"lost with the primary", now).unwrap();
        let first = server.peek_outbox();
        server.take_outbox(); // never reaches the client
        let una = server.socket(ss).unwrap().snd_una();
        assert_eq!(server.kick_failover_sockets(now), 1);
        let out = server.peek_outbox();
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].2.seq, una);
        assert_eq!(out[0].2.payload, first[0].2.payload);
        assert_eq!(server.socket(ss).unwrap().rto_expiries, 1);
    }

    #[test]
    fn takeover_kick_acks_from_idle_socket() {
        let now = SimTime::ZERO;
        let (mut client, cs, mut server, ss) = connected_pair_with(true);
        client.send(cs, b"upload", now).unwrap();
        exchange(&mut client, &mut server, now);
        assert_eq!(server.kick_failover_sockets(now), 1);
        let out = server.peek_outbox();
        assert_eq!(out.len(), 1, "exactly one pure ACK: {out:?}");
        assert_eq!(out[0].2.flags, TcpFlags::ACK);
        assert!(out[0].2.payload.is_empty());
        assert_eq!(out[0].2.ack, server.socket(ss).unwrap().rcv_nxt());
        assert_eq!(server.socket(ss).unwrap().rto_expiries, 0);
    }

    #[test]
    fn takeover_kick_skips_plain_and_closed_sockets() {
        let now = SimTime::ZERO;
        let (_client, _cs, mut server, ss) = connected_pair();
        server.send(ss, b"plain", now).unwrap();
        server.take_outbox();
        assert_eq!(server.kick_failover_sockets(now), 0);
        assert!(server.peek_outbox().is_empty());

        let (mut client, cs, mut server, ss) = connected_pair_with(true);
        client.close(cs, now).unwrap();
        exchange(&mut client, &mut server, now);
        server.close(ss, now).unwrap();
        exchange(&mut client, &mut server, now);
        assert_eq!(server.socket(ss).unwrap().state, TcpState::Closed);
        assert_eq!(server.kick_failover_sockets(now), 0);
        assert!(server.peek_outbox().is_empty());
    }

    #[test]
    fn release_aborts_live_socket() {
        let now = SimTime::ZERO;
        let (mut client, cs, mut server, ss) = connected_pair();
        client.release(cs, now);
        exchange(&mut client, &mut server, now);
        assert!(client.socket(cs).is_none());
        let sock = server.socket(ss).unwrap();
        assert_eq!(sock.state, TcpState::Closed);
        assert_eq!(sock.error, Some(SocketError::Reset));
    }

    #[test]
    fn inject_and_peek_helpers() {
        let now = SimTime::ZERO;
        let mut server = TcpStack::new(cfg(7));
        server.listen(80, false).unwrap();
        let syn = TcpSegment::builder(5555, 80)
            .seq(9)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .window(1000)
            .payload(B::new())
            .build();
        server.inject(A, B_IP, &syn, now);
        let out = server.peek_outbox();
        assert_eq!(out.len(), 1);
        assert!(out[0].2.flags.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert_eq!(out[0].2.ack, 10);
    }
}
