//! Multi-process emulation harness for the overlay transport.
//!
//! Everything multi-node in this workspace so far runs inside one
//! process (`dg_overlay::cluster::Cluster`) — convenient, but a whole
//! class of real failures is invisible there: process death, startup
//! races, partial config, partial metrics files, a restarted daemon
//! re-joining with a fresh link-state epoch. This crate closes the gap
//! the way the paper's own deployment did, at laptop scale: it turns a
//! topology into a **real multi-process deployment on localhost**, one
//! `dg-node` OS process per overlay node on real UDP sockets.
//!
//! The pipeline ([`harness::EmuRun`]):
//!
//! 1. **Distribute.** Auto-assign a UDP port per node ([`ports`]),
//!    cross-wire every node's peer table, and write per-node
//!    [`dg_overlay::NodeFileConfig`] JSON files plus the shared
//!    topology and SLA-plan files.
//! 2. **Deploy.** Spawn one `dg-node` process per node and wait for
//!    each one's machine-parseable `READY` line with bounded retry and
//!    exponential backoff.
//! 3. **Disrupt.** Drive a scripted chaos schedule: link impairments
//!    are sharded into per-node `--chaos-json` slices the daemons
//!    replay themselves ([`dg_overlay::chaos::ChaosSchedule::shard_for_node`]);
//!    crash/restart events are executed by the harness as hard process
//!    kills (SIGKILL-equivalent) and respawns on the same port, with
//!    the respawned daemon's deadlines rebased so the whole deployment
//!    stays on one absolute timeline.
//! 4. **Collect.** On teardown — graceful first, per-process timeouts,
//!    forced kill as a last resort — gather every surviving daemon's
//!    atomically-written metrics snapshots (a mid-run baseline and the
//!    final dump).
//! 5. **Verify.** Run the convergence verifier ([`verify()`]): all
//!    surviving nodes must report byte-identical link-state digests,
//!    post-heal delivery on every surviving flow must clear a
//!    threshold, and every daemon the schedule did not kill must have
//!    exited 0 at its run limit.
//!
//! The harness is the scenario soak bed ROADMAP item 5 asks for: the
//! chaos machinery (PR 2) and the resilient control plane (PR 4)
//! finally get exercised across real process boundaries, driven by an
//! RTP-like fixed-rate control-stream workload (`--traffic-pps`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod ports;
pub mod schedule;
pub mod verify;

pub use harness::{EmuError, EmuOptions, EmuReport, EmuRun};
pub use schedule::kill_heal_schedule;
pub use verify::{verify, FlowDelivery, NodeReport, Verdict};

/// Locates the `dg-node` binary a deployment should spawn, in priority
/// order: the `DG_NODE_BIN` environment variable, then a `dg-node`
/// sibling of the current executable, then a `dg-node` next to the
/// executable's parent directory (the layout when the caller is a test
/// binary under `target/<profile>/deps/`).
pub fn resolve_node_bin() -> Option<std::path::PathBuf> {
    if let Ok(path) = std::env::var("DG_NODE_BIN") {
        let path = std::path::PathBuf::from(path);
        if path.is_file() {
            return Some(path);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    [dir.join("dg-node"), dir.parent()?.join("dg-node")]
        .into_iter()
        .find(|candidate| candidate.is_file())
}
