//! The node driver: the one place that spawns threads, reads the clock
//! and the socket, injects faults, and waits. See `docs/RUNTIME.md`.
//!
//! The [`Driver`] holds the node's [`NodeCore`] behind the node's **one**
//! lock, takes it once per event — a datagram, a timer pass, a session's
//! send, a handle's query — reads the clock once, lets the core say what
//! should happen, and carries those [`Actions`] out before letting go,
//! so a link's wire order is its sequence order. The fault plan is
//! applied here, to frames on their way out; one it delays parks in the
//! departure queue under the same lock. A panic in a core call unwinds
//! through the guard without poisoning it, into the duty's supervision.

use crate::clock::now_us;
use crate::config::NodeConfig;
use crate::core::{Actions, NodeCore};
use crate::fault::{corrupt_in_place, FaultPlan};
use crate::metrics::{EventKind, MetricsSnapshot, NodeStats, NodeThread};
use crate::session::{Delivery, FlowReceiver, DELIVERY_QUEUE};
use bytes::Bytes;
use crossbeam::channel::{self, Sender, TrySendError};
use dg_core::Flow;
use dg_topology::{Graph, Micros, NodeId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::net::UdpSocket;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Most datagrams the receive thread drains per socket wakeup before
/// re-arming the blocking wait, so a burst costs one timeout cycle.
const RX_BATCH: usize = 32;

/// How long the receive thread blocks before re-checking for shutdown.
const RECV_TIMEOUT: Duration = Duration::from_millis(10);

/// The departure queue: frames the fault plan delayed, keyed by
/// departure instant and then by arrival, so the first entry leaves
/// first and an instant's frames leave in the order they came.
#[derive(Default)]
struct Departures {
    /// `(to, datagram, counts as data)` per departure.
    queue: BTreeMap<(Micros, u64), (NodeId, Bytes, bool)>,
    /// Data frames queued — the `backlog` the core's shed bands and
    /// overload detector are told. Control frames do not count.
    data: u64,
    pushed: u64,
}

impl Departures {
    fn push(&mut self, to: NodeId, datagram: Bytes, depart_at: Micros, data: bool) {
        self.data += u64::from(data);
        self.pushed += 1;
        self.queue.insert((depart_at, self.pushed), (to, datagram, data));
    }

    /// When the earliest parked frame leaves.
    fn head(&self) -> Option<Micros> {
        self.queue.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Takes the earliest parked frame if it is due.
    fn pop_due(&mut self, now: Micros) -> Option<(NodeId, Bytes)> {
        let (to, datagram, data) = self.queue.first_entry().filter(|e| e.key().0 <= now)?.remove();
        self.data -= u64::from(data);
        Some((to, datagram))
    }
}

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

/// Accounts one wire transmission, node-wide and on its link.
fn account_send(stats: &mut NodeStats, to: NodeId, len: usize) {
    stats.counters.datagrams_sent += 1;
    stats.counters.bytes_sent += len as u64;
    let link = stats.link(to);
    link.datagrams += 1;
    link.bytes += len as u64;
}

/// What the node's one lock guards: the core, and what the driver needs
/// to carry its actions out.
struct Driven {
    core: NodeCore,
    actions: Actions,
    parked: Departures,
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
                parked: Departures::default(),
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
        let result = f(&mut st.core, now, st.parked.data, &mut st.actions);
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

    /// Carries the pending actions out: each frame through the fault
    /// plan to the wire or the departure queue, then each delivery to
    /// its session's queue. What only the carrier sees — a wire send, a
    /// fault verdict, a parked or delivery shed — is counted into the
    /// core's statistics here.
    fn flush(&self, st: &mut Driven, now: Micros) {
        let Driven { core, actions, parked, receivers, .. } = st;
        let (stats, shipper_queue) = (&mut core.stats, self.config.shipper_queue as u64);
        let head = parked.head();
        for (to, datagram, class) in actions.frames.drain(..) {
            let verdict = self.faults.decide(to);
            if verdict.drop {
                stats.counters.fault_drops += 1;
                continue;
            }
            let datagram = if verdict.corrupt {
                stats.counters.fault_corruptions += 1;
                let mut bytes = datagram.to_vec();
                corrupt_in_place(&mut bytes, verdict.corrupt_seed);
                Bytes::from(bytes)
            } else {
                datagram
            };
            // The hot path: no delay, so no queue and no context
            // switch — the frame leaves on the calling thread.
            if verdict.delay == Micros::ZERO && !verdict.duplicate {
                account_send(stats, to, datagram.len());
                self.send_now(to, &datagram);
                core.frame_pool.recycle(datagram);
                continue;
            }
            // A delayed frame parks and is accounted as sent — or, a
            // data frame finding `shipper_queue` of them parked, is shed
            // against its class, uncounted. Control frames (no class)
            // never are: data cannot starve hellos into a link-down.
            let depart_at = now.saturating_add(verdict.delay);
            let mut park = |stats: &mut NodeStats, datagram: Bytes| {
                if let Some(class) = class.filter(|_| parked.data >= shipper_queue) {
                    stats.shed(class, 1);
                    stats.counters.shipper_drops += 1;
                    return;
                }
                account_send(stats, to, datagram.len());
                parked.push(to, datagram, depart_at, class.is_some());
            };
            if verdict.duplicate {
                stats.counters.fault_duplicates += 1;
                park(stats, datagram.clone());
            }
            park(stats, datagram);
        }
        // The timer thread computed its wait from the old head.
        if parked.head().is_some_and(|at| head.is_none_or(|was| at < was)) {
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

    fn send_now(&self, to: NodeId, datagram: &[u8]) {
        if let Some(addr) = self.config.peers.get(&to) {
            let _ = self.socket.send_to(datagram, addr);
        }
    }

    /// The shipper duty: sends every parked frame that is due.
    fn service_departures(&self) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let now = now_us();
        while let Some((to, datagram)) = st.parked.pop_due(now) {
            self.send_now(to, &datagram);
            st.core.frame_pool.recycle(datagram);
        }
    }

    /// Parks `shipments` synthetic bulk-class frames addressed to no
    /// peer (they evaporate at departure, `dwell` from now):
    /// deterministic backlog for chaos and soak tests, past the bound so
    /// the injection itself is never shed.
    pub(crate) fn inject_overload(&self, shipments: usize, dwell: Duration) {
        let depart_at = now_us().saturating_add(Micros::from_micros(dwell.as_micros() as u64));
        let mut st = self.state.lock();
        for _ in 0..shipments {
            st.parked.push(NodeId::new(u32::MAX), Bytes::new(), depart_at, true);
        }
        drop(st);
        self.wake_timer();
    }

    /// Data frames parked toward the wire.
    pub(crate) fn backlog(&self) -> u64 {
        self.state.lock().parked.data
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
    let handle = |datagram: &[u8]| {
        driver.event(|core, now, backlog, out| core.handle_datagram(now, datagram, backlog, out));
    };
    // A panic mid-drain can leave the socket non-blocking; restore
    // blocking mode so a restarted loop does not spin.
    let _ = driver.socket.set_nonblocking(false);
    while driver.is_running() {
        driver.beat(NodeThread::Receive);
        driver.maybe_injected_panic(NodeThread::Receive);
        // Block (bounded by the socket read timeout) for the first
        // datagram of a burst...
        match driver.socket.recv_from(&mut buf) {
            Ok((len, _addr)) => handle(&buf[..len]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
        // ...then opportunistically drain the rest of it without
        // blocking. The read timeout only applies in blocking mode, so
        // toggling non-blocking on and off preserves it.
        if driver.socket.set_nonblocking(true).is_err() {
            continue;
        }
        for _ in 1..RX_BATCH {
            match driver.socket.recv_from(&mut buf) {
                Ok((len, _addr)) => handle(&buf[..len]),
                Err(_) => break,
            }
        }
        if driver.socket.set_nonblocking(false).is_err() {
            break;
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
        let head = driver.state.lock().parked.head();
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
    use crate::fault::LinkFault;
    use dg_core::SlaClass;
    use dg_topology::presets;

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

    #[test]
    fn the_queue_head_is_the_earliest_departure_and_data_counts_as_backlog() {
        let mut parked = Departures::default();
        assert_eq!(parked.head(), None);
        parked.push(NodeId::new(1), Bytes::new(), Micros::from_millis(7), true);
        parked.push(NodeId::new(2), Bytes::new(), Micros::from_millis(3), false);
        parked.push(NodeId::new(3), Bytes::new(), Micros::from_millis(7), true);
        assert_eq!((parked.head(), parked.data), (Some(Micros::from_millis(3)), 2));
        assert!(parked.pop_due(Micros::from_millis(2)).is_none());
        let due: Vec<u32> = std::iter::from_fn(|| parked.pop_due(Micros::from_millis(7)))
            .map(|(to, _)| to.index() as u32)
            .collect();
        assert_eq!(due, [2, 1, 3], "earliest first, FIFO within an instant");
        assert_eq!((parked.head(), parked.data), (None, 0));
    }

    /// A delayed data frame finding the queue full is shed against its
    /// class and is not on the books as a transmission; control frames
    /// are parked regardless.
    #[test]
    fn a_shed_frame_is_not_counted_sent() {
        let graph = Arc::new(presets::ring(3, Micros::from_millis(2)));
        let socket = UdpSocket::bind("127.0.0.1:0").expect("binds");
        let (me, peer) = (NodeId::new(0), NodeId::new(1));
        let mut config = NodeConfig::new(me, socket.local_addr().expect("bound"));
        config.peers.insert(peer, config.listen);
        config.shipper_queue = 2;
        let driver = Driver::new(config, graph, socket);
        driver.faults.set(peer, LinkFault::delayed(Micros::from_secs(60)));
        let frame = Bytes::from_static(b"frame");
        driver.event(|_, _, backlog, out| {
            assert_eq!(backlog, 0);
            out.frames.extend([Some(SlaClass::Bulk); 3].map(|class| (peer, frame.clone(), class)));
            out.frames.push((peer, frame.clone(), None));
            out.frames.push((peer, frame.clone(), Some(SlaClass::Surgical)));
        });
        let counters = driver.snapshot().counters;
        assert_eq!(driver.backlog(), 2, "the bound holds");
        assert_eq!((counters.shed_bulk, counters.shed_surgical, counters.shipper_drops), (1, 1, 2));
        assert_eq!(counters.datagrams_sent, 3, "two data frames and the control frame");
        assert_eq!(counters.bytes_sent, 3 * frame.len() as u64);
        driver.event(|_, _, backlog, _| assert_eq!(backlog, 2, "and is what the core is told"));
    }
}
