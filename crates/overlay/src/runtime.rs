//! The node driver: the one place that spawns threads, reads the clock
//! and the socket, injects faults, and waits. See `docs/RUNTIME.md`.
//!
//! The [`Driver`] holds the node's [`NodeCore`] behind the node's **one**
//! lock, takes it once per event — a datagram, a timer pass, a session's
//! send, a handle's query — reads the clock once, lets the core say what
//! should happen, and carries those [`Actions`] out before letting go,
//! so a link's wire order is its sequence order. Frames go out through
//! the node's [`Carrier`], which applies the fault plan and parks what
//! it delays, under the same lock. A panic in a core call unwinds
//! through the guard without poisoning it, into the duty's supervision.

use crate::carrier::Carrier;
use crate::clock::now_us;
use crate::config::NodeConfig;
use crate::core::{Actions, NodeCore};
use crate::fault::FaultPlan;
use crate::metrics::{EventKind, MetricsSnapshot, NodeThread};
use crate::pool::BufferPool;
use crate::session::{Delivery, FlowReceiver, DELIVERY_QUEUE};
use crate::wire;
use bytes::Bytes;
use crossbeam::channel::{self, Sender, TrySendError};
use dg_core::Flow;
use dg_topology::{Graph, Micros, NodeId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::UdpSocket;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
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
    receivers: HashMap<Flow, (u64, Sender<Delivery>)>,
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
    /// Last heartbeat per supervised duty (indexed by [`NodeThread`]),
    /// in microseconds on the [`now_us`] clock.
    heartbeats: [AtomicU64; 3],
    /// Set to make the matching duty panic at its next checkpoint
    /// (for tests and chaos).
    panic_requests: [AtomicBool; 3],
    /// The node reports itself degraded until this instant after a
    /// crash, giving operators a visible window even when the restart
    /// is instant.
    degraded_until: AtomicU64,
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
        let now = now_us();
        let beat = || AtomicU64::new(now.as_micros());
        Driver {
            socket,
            running: AtomicBool::new(true),
            timer: OnceLock::new(),
            faults: FaultPlan::with_seed(config.fault_seed),
            heartbeats: [beat(), beat(), beat()],
            panic_requests: Default::default(),
            degraded_until: AtomicU64::new(0),
            state: Mutex::new(Driven {
                core: NodeCore::new(Arc::clone(&config), Arc::clone(&graph), now),
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
    pub(crate) fn event<R>(
        &self,
        f: impl FnOnce(&mut NodeCore, Micros, u64, &mut Actions) -> R,
    ) -> R {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let now = now_us();
        let result = f(&mut st.core, now, st.carrier.backlog(), &mut st.actions);
        self.flush(st, now);
        result
    }

    /// Takes the lock for a query or a session's opening or closing:
    /// core calls that emit no actions.
    pub(crate) fn with_core<R>(&self, f: impl FnOnce(&mut NodeCore) -> R) -> R {
        f(&mut self.state.lock().core)
    }

    /// The node at one instant — everything the core reports, read under
    /// one hold of the lock — plus the degradation flag.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.with_core(|core| core.snapshot());
        snap.degraded = self.degraded();
        snap
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
        let mut open: Option<(Flow, &Sender<Delivery>)> = None;
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

    /// The shipper duty: sends every parked frame that is due.
    fn service_departures(&self) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let Driven { core, carrier, .. } = st;
        let NodeCore { stats, frame_pool, .. } = core;
        stats.counters.send_errors +=
            carrier.service(now_us(), |to, frame| self.send_now(frame_pool, to, frame));
    }

    /// Parks synthetic backlog that evaporates `dwell` from now (see
    /// [`Carrier::inject_overload`]).
    pub(crate) fn inject_overload(&self, shipments: usize, dwell: Duration) {
        let depart_at = now_us().saturating_add(Micros::from_micros(dwell.as_micros() as u64));
        self.state.lock().carrier.inject_overload(shipments, depart_at);
        self.wake_timer();
    }

    /// Data frames parked toward the wire.
    pub(crate) fn backlog(&self) -> u64 {
        self.state.lock().carrier.backlog()
    }

    /// Opens `flow`'s receiving session, replacing any earlier one.
    pub(crate) fn open_receiver(self: &Arc<Self>, flow: Flow) -> FlowReceiver {
        let (tx, rx) = channel::bounded(DELIVERY_QUEUE);
        let mut st = self.state.lock();
        st.receivers_opened += 1;
        let id = st.receivers_opened;
        st.receivers.insert(flow, (id, tx));
        st.core.receivers.insert(flow);
        FlowReceiver::new(rx, Arc::clone(self), flow, id)
    }

    /// Closes receiving session `id` of `flow`, unless a later one has
    /// taken its place.
    pub(crate) fn close_receiver(&self, flow: Flow, id: u64) {
        let mut st = self.state.lock();
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

    /// Stamps the calling supervised duty's heartbeat.
    fn beat(&self, thread: NodeThread) {
        self.heartbeats[thread as usize].store(now_us().as_micros(), Ordering::Relaxed);
    }

    /// Makes `thread` panic at its next checkpoint.
    pub(crate) fn request_panic(&self, thread: NodeThread) {
        self.panic_requests[thread as usize].store(true, Ordering::Relaxed);
    }

    /// Panics if a panic was injected for `thread` (fault injection for
    /// supervision tests); consumes the request either way.
    fn maybe_injected_panic(&self, thread: NodeThread) {
        if self.panic_requests[thread as usize].swap(false, Ordering::Relaxed) {
            panic!("injected panic in {thread:?} thread");
        }
    }

    /// True until shutdown has been requested.
    fn is_running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    /// Requests shutdown. The timer thread wakes at once to flush what
    /// is parked; the receive thread notices within one read timeout.
    pub(crate) fn stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.wake_timer();
    }

    /// Accounts one supervised-duty panic: counts it, journals it, and
    /// opens the degradation window. The crash instant counts as a
    /// heartbeat — the restart is immediate, so the duty is degraded,
    /// not dead.
    fn note_thread_crash(&self, thread: NodeThread) {
        let now = now_us();
        self.with_core(|core| {
            core.stats.counters.thread_crashes += 1;
            core.stats.record_at(now, EventKind::ThreadCrash { thread });
        });
        let until =
            now.as_micros().saturating_add(self.config.watchdog_stale_after.as_micros() as u64);
        self.degraded_until.fetch_max(until, Ordering::Relaxed);
        self.beat(thread);
    }

    /// True while the node is running without a full complement of
    /// healthy duties: either a crash happened recently (within the
    /// watchdog horizon) or some supervised duty has stopped
    /// heartbeating entirely.
    pub(crate) fn degraded(&self) -> bool {
        let now = now_us().as_micros();
        if now < self.degraded_until.load(Ordering::Relaxed) {
            return true;
        }
        let stale = self.config.watchdog_stale_after.as_micros() as u64;
        self.is_running()
            && self.heartbeats.iter().any(|h| now.saturating_sub(h.load(Ordering::Relaxed)) > stale)
    }
}

/// Starts a node's two threads — the timer thread, then the receive
/// thread: by the time a datagram can be handled, a parked reply has a
/// thread to unpark. Joining both, once [`Driver::stop`] was called,
/// means every shipment parked before it has left.
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
        while catch_unwind(AssertUnwindSafe(|| receive_loop(&rx_driver))).is_err()
            && rx_driver.is_running()
        {
            rx_driver.note_thread_crash(NodeThread::Receive);
        }
    })?;
    Ok([receive, timer])
}

fn receive_loop(driver: &Driver) {
    let mut buf = vec![0u8; 65_536];
    while driver.is_running() {
        driver.beat(NodeThread::Receive);
        driver.maybe_injected_panic(NodeThread::Receive);
        // Blocks for at most the socket's read timeout; with a datagram
        // already queued it returns at once, so a burst is read back to
        // back with no mode switch in between.
        match driver.socket.recv_from(&mut buf) {
            Ok((len, _addr)) => driver.event(|core, now, backlog, out| {
                core.handle_datagram(now, &buf[..len], backlog, out)
            }),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
}

/// Runs one pass of a timer-thread duty under panic supervision.
/// Returns `false` when the pass panicked.
fn supervised(driver: &Driver, thread: NodeThread, pass: impl FnOnce()) -> bool {
    driver.beat(thread);
    let ok = catch_unwind(AssertUnwindSafe(|| {
        driver.maybe_injected_panic(thread);
        pass();
    }))
    .is_ok();
    if !ok && driver.is_running() {
        driver.note_thread_crash(thread);
    }
    ok
}

fn timer_loop(driver: &Driver) {
    // The core's next protocol deadline; a fresh node's hello is due.
    let mut deadline = Micros::ZERO;
    loop {
        let shipped = supervised(driver, NodeThread::Shipper, || driver.service_departures());
        let running = driver.is_running();
        if running {
            supervised(driver, NodeThread::Ticker, || {
                deadline = driver.event(NodeCore::poll_timers);
            });
        } else if !shipped {
            // A shipper duty that panics while flushing forfeits the
            // rest rather than holding shutdown up.
            return;
        }
        // A frame parked ahead of the head since (the ticker's own
        // hellos included) left an unpark token: the park returns at
        // once and the next pass picks it up.
        let head = driver.state.lock().carrier.head();
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
/// with [`crate::cluster::Cluster::launch_on`] (ROADMAP item 6).
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
}
