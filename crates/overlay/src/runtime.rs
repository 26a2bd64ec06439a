//! The node driver: the one place that spawns threads, reads the clock
//! and the socket, injects faults, and waits. See `docs/RUNTIME.md`.
//!
//! The [`Driver`] holds the node's [`NodeCore`] behind the node's **one**
//! lock, takes it once per event — a datagram, a timer pass, a session's
//! send, a handle's query — reads the clock once, lets the core say what
//! should happen, and carries those [`Actions`] out before letting go,
//! so a link's wire order is its sequence order. Frames go out through
//! the node's [`Carrier`], which applies the fault plan and parks what
//! it delays, under the same lock. A node is crash-only: a panic in a
//! core call poisons the lock, nothing enters that core again, and both
//! threads exit; a fresh node on the same port is the only recovery.

use crate::carrier::Carrier;
use crate::clock::now_us;
use crate::config::NodeConfig;
use crate::core::{Actions, NodeCore};
use crate::fault::FaultPlan;
use crate::pool::BufferPool;
use crate::session::{Delivery, FlowReceiver, DELIVERY_QUEUE};
use crate::wire;
use crate::OverlayError;
use bytes::Bytes;
use dg_core::Flow;
use dg_topology::{Graph, Micros, NodeId};
use std::collections::HashMap;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the receive thread blocks before re-checking for shutdown.
const RECV_TIMEOUT: Duration = Duration::from_millis(10);

/// How long the timer thread may park at `now`: until the earliest
/// parked departure (`head`) or the core's next protocol `deadline`. A
/// stopping node waits for departures only, and `None` says the last
/// one has left.
fn next_wake(
    running: bool,
    now: Micros,
    head: Option<Micros>,
    deadline: Micros,
) -> Option<Duration> {
    let wake = if running { Some(head.map_or(deadline, |h| h.min(deadline))) } else { head };
    wake.map(|at| Duration::from_micros(at.saturating_sub(now).as_micros()))
}

/// What the node's one lock guards: the core, and what the driver needs
/// to carry its actions out.
struct Driven {
    core: NodeCore,
    actions: Actions,
    carrier: Carrier,
    /// The delivery queue of each open receiving session, with the id
    /// that tells a replaced session's close from its successor's.
    receivers: HashMap<Flow, (u64, SyncSender<Delivery>)>,
    receivers_opened: u64,
}

/// A node as the rest of the crate holds it: the core behind its lock,
/// and everything about the outside world the core must not know.
pub(crate) struct Driver {
    pub(crate) config: Arc<NodeConfig>,
    pub(crate) graph: Arc<Graph>,
    pub(crate) socket: UdpSocket,
    running: AtomicBool,
    /// The timer thread, unparked when the queue gains an earlier head.
    timer: OnceLock<std::thread::Thread>,
    pub(crate) faults: FaultPlan,
    /// Poisoned once a core call has panicked under it: the node has
    /// crashed.
    state: Mutex<Driven>,
}

impl std::fmt::Debug for Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Driver({} at {:?})", self.config.node, self.socket.local_addr())
    }
}

impl Driver {
    pub(crate) fn new(config: NodeConfig, graph: Arc<Graph>, socket: UdpSocket) -> Driver {
        let config = Arc::new(config);
        Driver {
            socket,
            running: AtomicBool::new(true),
            timer: OnceLock::new(),
            faults: FaultPlan::with_seed(config.fault_seed),
            state: Mutex::new(Driven {
                core: NodeCore::new(Arc::clone(&config), Arc::clone(&graph), now_us()),
                actions: Actions::default(),
                carrier: Carrier::default(),
                receivers: HashMap::new(),
                receivers_opened: 0,
            }),
            graph,
            config,
        }
    }

    /// One event: takes the lock, reads the clock, lets `f` at the core
    /// with the instant, the data backlog and the action list, and
    /// carries out what the core asked for before releasing the lock.
    ///
    /// # Errors
    ///
    /// [`OverlayError::Shutdown`] once the node has stopped or crashed:
    /// nothing enters its core again.
    pub(crate) fn event<R>(
        &self,
        f: impl FnOnce(&mut NodeCore, Micros, u64, &mut Actions) -> R,
    ) -> Result<R, OverlayError> {
        let mut guard = self.state.lock().map_err(|_| OverlayError::Shutdown)?;
        // Checked under the lock: an event that got in before `stop`
        // has parked what it sends before the timer thread's last look.
        if !self.running.load(Ordering::SeqCst) {
            return Err(OverlayError::Shutdown);
        }
        let st = &mut *guard;
        let now = now_us();
        let result = f(&mut st.core, now, st.carrier.backlog(), &mut st.actions);
        self.flush(st, now);
        Ok(result)
    }

    /// The lock read through the poison: for queries, a post-mortem
    /// snapshot, and what a `Drop` must do without panicking.
    fn lock_any(&self) -> MutexGuard<'_, Driven> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the lock, through the poison, for a query or a session's
    /// closing: core calls that emit no actions.
    pub(crate) fn with_core<R>(&self, f: impl FnOnce(&mut NodeCore) -> R) -> R {
        f(&mut self.lock_any().core)
    }

    /// Carries the pending actions out: the frames through the carrier
    /// to the socket, then each delivery to its session's queue (a full
    /// one sheds, counted here).
    fn flush(&self, st: &mut Driven, now: Micros) {
        let Driven { core, actions, carrier, receivers, .. } = st;
        let NodeCore { stats, frame_pool, .. } = core;
        let head = carrier.head();
        let shipper_queue = self.config.shipper_queue as u64;
        carrier.carry(now, &mut actions.frames, &self.faults, stats, shipper_queue, |to, frame| {
            self.send_now(frame_pool, to, frame)
        });
        // The timer thread computed its wait from the old head.
        if carrier.head().is_some_and(|at| head.is_none_or(|was| at < was)) {
            self.wake_timer();
        }
        // A frame's deliveries are mostly one flow's: look its queue up
        // once a stretch, not once a packet.
        let mut open: Option<(Flow, &SyncSender<Delivery>)> = None;
        for (class, delivery) in actions.deliveries.drain(..) {
            if open.map(|(flow, _)| flow) != Some(delivery.flow) {
                open = receivers.get(&delivery.flow).map(|(_, tx)| (delivery.flow, tx));
            }
            let Some((_, tx)) = open else { continue };
            // The delivery queue is bounded: an application that stops
            // draining sheds load instead of wedging the node.
            if let Err(TrySendError::Full(_)) = tx.try_send(delivery) {
                stats.shed(class, 1);
                stats.counters.delivery_drops += 1;
            }
        }
    }

    /// Puts `frame` on the wire to `to` and, a data frame, hands its
    /// buffer back; `false` when the socket refused it. (A frame for a
    /// neighbour with no address here evaporates, as synthetic backlog
    /// does.) Only data frames are framed in pooled buffers; a control
    /// frame's few bytes taken in would leave the pool full of buffers
    /// that data frames then grow and strand idle.
    fn send_now(&self, pool: &mut BufferPool, to: NodeId, frame: Bytes) -> bool {
        let sent = match self.config.peers.get(&to) {
            Some(addr) => self.socket.send_to(&frame, addr).is_ok(),
            None => true,
        };
        if wire::is_data_frame(&frame) {
            pool.recycle(frame);
        }
        sent
    }

    /// The shipper duty: sends every parked frame that is due; `Err`
    /// when the node crashed, which flushes nothing.
    fn service_departures(&self) -> Result<(), OverlayError> {
        let mut guard = self.state.lock().map_err(|_| OverlayError::Shutdown)?;
        let Driven { core, carrier, .. } = &mut *guard;
        let NodeCore { stats, frame_pool, .. } = core;
        stats.counters.send_errors +=
            carrier.service(now_us(), |to, frame| self.send_now(frame_pool, to, frame));
        Ok(())
    }

    /// Parks synthetic backlog that evaporates `dwell` from now (see
    /// [`Carrier::inject_overload`]).
    pub(crate) fn inject_overload(&self, shipments: usize, dwell: Duration) {
        let depart_at = now_us().saturating_add(Micros::from_micros(dwell.as_micros() as u64));
        self.lock_any().carrier.inject_overload(shipments, depart_at);
        self.wake_timer();
    }

    /// Opens `flow`'s receiving session, replacing any earlier one.
    pub(crate) fn open_receiver(self: &Arc<Self>, flow: Flow) -> FlowReceiver {
        let (tx, rx) = mpsc::sync_channel(DELIVERY_QUEUE);
        let mut st = self.lock_any();
        st.receivers_opened += 1;
        let id = st.receivers_opened;
        st.receivers.insert(flow, (id, tx));
        st.core.receivers.insert(flow);
        FlowReceiver::new(rx, Arc::clone(self), flow, id)
    }

    /// Closes receiving session `id` of `flow`, unless a later one has
    /// taken its place.
    pub(crate) fn close_receiver(&self, flow: Flow, id: u64) {
        let mut st = self.lock_any();
        if st.receivers.get(&flow).is_some_and(|(open, _)| *open == id) {
            st.receivers.remove(&flow);
            st.core.receivers.remove(&flow);
        }
    }

    fn wake_timer(&self) {
        if let Some(timer) = self.timer.get() {
            timer.unpark();
        }
    }

    /// True until shutdown has been requested or a core call panicked.
    pub(crate) fn is_running(&self) -> bool {
        self.running.load(Ordering::SeqCst) && !self.state.is_poisoned()
    }

    /// Requests shutdown: no event enters the core after this. The timer
    /// thread wakes at once to flush what is parked; the receive thread
    /// notices within one read timeout.
    pub(crate) fn stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.wake_timer();
    }
}

/// Starts a node's two threads — the timer thread, then the receive
/// thread: by the time a datagram can be handled, a parked reply has a
/// thread to unpark. Joining both, once [`Driver::stop`] was called,
/// means every shipment parked before it has left. After a crash both
/// exit within one read timeout and one hello interval, flushing
/// nothing.
pub(crate) fn spawn_threads(driver: &Arc<Driver>) -> std::io::Result<[JoinHandle<()>; 2]> {
    driver.socket.set_read_timeout(Some(RECV_TIMEOUT))?;
    let node = driver.config.node;
    let timer_driver = Arc::clone(driver);
    let timer = std::thread::Builder::new()
        .name(format!("dg-timer-{node}"))
        .spawn(move || timer_loop(&timer_driver))?;
    driver.timer.set(timer.thread().clone()).expect("a node is spawned once");
    let rx_driver = Arc::clone(driver);
    let receive = std::thread::Builder::new().name(format!("dg-rx-{node}")).spawn(move || {
        receive_loop(&rx_driver);
        // A crash elsewhere is seen here within a read timeout; the
        // timer thread need not sleep out its wait to see it too.
        rx_driver.wake_timer();
    })?;
    Ok([receive, timer])
}

/// Runs until the node stops or crashes: a refused event or, when the
/// socket is quiet, a read timeout notices either.
fn receive_loop(driver: &Driver) {
    let mut buf = vec![0u8; 65_536];
    loop {
        // Blocks for at most the socket's read timeout; with a datagram
        // already queued it returns at once, so a burst is read back to
        // back with no mode switch in between.
        match driver.socket.recv_from(&mut buf) {
            Ok((len, _addr)) => {
                let handled = driver.event(|core, now, backlog, out| {
                    core.handle_datagram(now, &buf[..len], backlog, out)
                });
                if handled.is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if !driver.is_running() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn timer_loop(driver: &Driver) {
    // The core's next protocol deadline; a fresh node's hello is due.
    let mut deadline = Micros::ZERO;
    loop {
        // A crashed node flushes nothing.
        if driver.service_departures().is_err() {
            return;
        }
        let running = driver.is_running();
        if running {
            // A `stop` since refuses the pass; the next turn flushes.
            if let Ok(next) = driver.event(NodeCore::poll_timers) {
                deadline = next;
            }
        }
        // Read after `running`: whatever an event let in before `stop`
        // had parked is here. A frame parked ahead of the head since
        // (the ticker's own hellos included) left an unpark token: the
        // park returns at once and the next pass picks it up.
        let head = driver.lock_any().carrier.head();
        match next_wake(running, now_us(), head, deadline) {
            Some(wait) => std::thread::park_timeout(wait),
            None => return,
        }
    }
}

/// What is left of the pluggable-runtime API, kept only because
/// `benchmark/` names a runtime per workload and is not edited by the
/// PR that removed the second runtime: a unit handle, every descriptor
/// yields the one driver. The next benchmark PR deletes it together
/// with [`crate::cluster::Cluster::launch_on`] (ROADMAP item 4).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct Runtime;

impl Runtime {
    #[doc(hidden)]
    pub fn from_descriptor(_descriptor: &str) -> Runtime {
        Runtime
    }

    #[doc(hidden)]
    pub fn shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::GraphBuilder;
    use std::time::Instant;

    #[test]
    fn next_wake_is_the_earliest_departure_or_protocol_deadline() {
        let at = |ms: u64| Micros::from_millis(1_000 + ms);
        let wait = |ms| Some(Duration::from_millis(ms));
        let now = at(0);
        assert_eq!(next_wake(true, now, None, at(50)), wait(50), "only the protocol deadline");
        assert_eq!(next_wake(true, now, Some(at(70)), at(50)), wait(50), "deadline before head");
        assert_eq!(next_wake(true, now, Some(at(3)), at(50)), wait(3), "the queue's head beats it");
        assert_eq!(next_wake(true, at(9), Some(at(3)), at(50)), wait(0), "overdue wakes at once");
        // A stopping node waits for departures only, then for nothing.
        assert_eq!(next_wake(false, now, Some(at(3)), at(1)), wait(3));
        assert_eq!(next_wake(false, now, None, at(1)), None);
    }

    /// A node is crash-only: a core call that unwinds inside the lock
    /// stops the node for good. Both threads exit within a read timeout
    /// and a hello interval, nothing enters the core again, and the
    /// post-mortem snapshot still reads. (A restart is a fresh node:
    /// `protocol.rs::a_restarted_node_refills_its_link_state_database`.)
    #[test]
    fn a_core_call_that_panics_stops_its_node() {
        let mut b = GraphBuilder::new();
        let (a, z) = (b.add_node("A"), b.add_node("Z"));
        b.add_link(a, z, Micros::from_millis(1), 1).expect("a link");
        let graph = Arc::new(b.build());
        let bind = || UdpSocket::bind("127.0.0.1:0").expect("bind");
        let (socket_a, socket_z) = (bind(), bind());
        let (at_a, at_z) = (socket_a.local_addr().unwrap(), socket_z.local_addr().unwrap());
        let spawn = |me, socket: UdpSocket, peer, at| {
            let listen = socket.local_addr().unwrap();
            let config =
                NodeConfig { peers: HashMap::from([(peer, at)]), ..NodeConfig::new(me, listen) };
            let driver = Arc::new(Driver::new(config, Arc::clone(&graph), socket));
            let threads = spawn_threads(&driver).expect("threads start");
            (driver, threads)
        };
        let (node, threads) = spawn(a, socket_a, z, at_z);
        let (peer, peer_threads) = spawn(z, socket_z, a, at_a);
        let acked = || node.with_core(|core| core.stats.counters.hello_acks_received > 0);
        let started = Instant::now();
        while !acked() {
            assert!(started.elapsed() < Duration::from_secs(5), "the pair never exchanged hellos");
            std::thread::sleep(Duration::from_millis(5));
        }

        let crasher = Arc::clone(&node);
        let unwound = std::thread::spawn(move || {
            crasher.event(|_, _, _, _| -> () { panic!("a core call unwinds") })
        })
        .join();
        assert!(unwound.is_err(), "the panic unwinds out of its thread");
        let crashed = Instant::now();
        for thread in threads {
            thread.join().expect("a node thread exits, not unwinds");
        }
        let bound = RECV_TIMEOUT + node.config.hello_interval;
        assert!(crashed.elapsed() < bound, "threads took {:?} to stop", crashed.elapsed());
        assert!(!node.is_running());
        assert!(matches!(node.event(|_, _, _, _| ()), Err(OverlayError::Shutdown)));
        let post_mortem = node.with_core(|core| core.snapshot());
        assert_eq!(post_mortem.node, a);
        assert!(post_mortem.counters.hellos_sent > 0, "{post_mortem:?}");

        assert!(peer.is_running(), "a neighbour's crash is not its own");
        peer.stop();
        for thread in peer_threads {
            thread.join().expect("a node thread exits");
        }
    }
}
