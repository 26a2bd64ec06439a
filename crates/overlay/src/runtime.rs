//! The node driver: the one place that spawns threads, reads the socket
//! and waits.
//!
//! Every [`crate::OverlayNode`] runs on two threads:
//!
//! - the **receive thread** blocks in `recv_from` and handles each
//!   datagram inline — decode, dedup, deliver, forward — so an idle hop
//!   costs one wake-up, never a poll nap;
//! - the **timer thread** owns the node's [`Timers`] (departure heap,
//!   both shipment lanes, hello / link-state / digest deadlines), runs
//!   the shipper and ticker duties, and parks until the earliest
//!   departure or protocol deadline. `Shared::ship` unparks it when
//!   either lane gains a shipment; `Shared::stop` unparks it to flush.
//!
//! Each duty is supervised on its own: a panic is caught, counted,
//! journaled as a `ThreadCrash` against the duty's [`NodeThread`] and
//! opens the degraded window, and the duty runs again. The timer
//! thread's state lives outside the unwind boundary, so a crashed
//! shipper duty keeps its parked shipments.
//!
//! See `docs/RUNTIME.md`.

use crate::clock::now_us;
use crate::metrics::NodeThread;
use crate::node::{Shared, Timers};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most datagrams the receive thread drains per socket wakeup before
/// re-arming the blocking wait, so a burst costs one timeout cycle.
const RX_BATCH: usize = 32;

/// How long the receive thread blocks before re-checking for shutdown.
const RECV_TIMEOUT: Duration = Duration::from_millis(10);

/// A running node's two threads.
pub(crate) struct NodeThreads {
    receive: JoinHandle<()>,
    timer: JoinHandle<()>,
}

impl NodeThreads {
    /// Starts the timer thread, then the receive thread: by the time a
    /// datagram can be handled, `Shared::ship` has a thread to unpark.
    pub(crate) fn spawn(shared: &Arc<Shared>, mut timers: Timers) -> std::io::Result<NodeThreads> {
        shared.socket.set_read_timeout(Some(RECV_TIMEOUT))?;
        let node = shared.config.node;
        let timer_shared = Arc::clone(shared);
        let timer = std::thread::Builder::new()
            .name(format!("dg-timer-{node}"))
            .spawn(move || timer_loop(&timer_shared, &mut timers))?;
        shared.timer.set(timer.thread().clone()).expect("a node is spawned once");
        let rx_shared = Arc::clone(shared);
        let receive =
            std::thread::Builder::new().name(format!("dg-rx-{node}")).spawn(move || {
                while catch_unwind(AssertUnwindSafe(|| receive_loop(&rx_shared))).is_err()
                    && rx_shared.is_running()
                {
                    rx_shared.note_thread_crash(NodeThread::Receive);
                }
            })?;
        Ok(NodeThreads { receive, timer })
    }

    /// Waits for both threads of a node that was asked to stop; once
    /// this returns every shipment parked before `Shared::stop` has
    /// left.
    pub(crate) fn join(self) {
        let _ = self.receive.join();
        let _ = self.timer.join();
    }
}

fn receive_loop(shared: &Shared) {
    let mut buf = vec![0u8; 65_536];
    // A panic mid-drain can leave the socket non-blocking; restore
    // blocking mode so a restarted loop does not spin.
    let _ = shared.socket.set_nonblocking(false);
    while shared.is_running() {
        shared.beat(NodeThread::Receive);
        shared.maybe_injected_panic(NodeThread::Receive);
        // Block (bounded by the socket read timeout) for the first
        // datagram of a burst...
        match shared.socket.recv_from(&mut buf) {
            Ok((len, _addr)) => shared.handle_datagram(&buf[..len]),
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
        if shared.socket.set_nonblocking(true).is_err() {
            continue;
        }
        for _ in 1..RX_BATCH {
            match shared.socket.recv_from(&mut buf) {
                Ok((len, _addr)) => shared.handle_datagram(&buf[..len]),
                Err(_) => break,
            }
        }
        if shared.socket.set_nonblocking(false).is_err() {
            break;
        }
    }
}

/// Runs one pass of a timer-thread duty under panic supervision.
/// Returns `false` when the pass panicked.
fn supervised(shared: &Shared, thread: NodeThread, pass: impl FnOnce()) -> bool {
    shared.beat(thread);
    let ok = catch_unwind(AssertUnwindSafe(|| {
        shared.maybe_injected_panic(thread);
        pass();
    }))
    .is_ok();
    if !ok && shared.is_running() {
        shared.note_thread_crash(thread);
    }
    ok
}

fn timer_loop(shared: &Shared, timers: &mut Timers) {
    loop {
        let shipped = supervised(shared, NodeThread::Shipper, || shared.service_shipper(timers));
        let running = shared.is_running();
        if running {
            supervised(shared, NodeThread::Ticker, || shared.service_ticker(timers));
        } else if !shipped {
            // A shipper duty that panics while flushing forfeits the
            // rest rather than holding shutdown up.
            return;
        }
        // A shipment enqueued since the shipper pass (the ticker's own
        // hellos included) left an unpark token: the park returns at
        // once and the next pass picks it up.
        match timers.next_wake(running, now_us(), Instant::now()) {
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
