//! Smoke tests of the standalone `dg-node` daemon binary.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Duration;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dg-node")
}

#[test]
fn emit_topology_writes_a_loadable_graph() {
    let dir = std::env::temp_dir().join("dg_node_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let topo = dir.join("topology.json");
    let status = Command::new(bin())
        .args(["--emit-topology", topo.to_str().unwrap()])
        .status()
        .expect("binary runs");
    assert!(status.success());
    let raw = std::fs::read_to_string(&topo).unwrap();
    let graph: dg_topology::Graph = serde_json::from_str(&raw).unwrap();
    assert_eq!(graph.node_count(), 12);
    assert_eq!(graph.edge_count(), 60);
    std::fs::remove_file(&topo).unwrap();
}

#[test]
fn bad_usage_exits_nonzero() {
    let status = Command::new(bin()).status().expect("binary runs");
    assert!(!status.success());
}

#[test]
fn two_daemons_start_and_exchange_traffic() {
    let dir = std::env::temp_dir().join("dg_node_cli_pair");
    std::fs::create_dir_all(&dir).unwrap();
    let topo = dir.join("topology.json");
    assert!(Command::new(bin())
        .args(["--emit-topology", topo.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    // Two fixed loopback ports for NYC and JHU (directly linked).
    let (port_a, port_b) = (47_311u16, 47_312u16);
    let config = |node: &str, me: u16, peer_name: &str, peer: u16| {
        let path = dir.join(format!("{node}.json"));
        std::fs::write(
            &path,
            format!(
                r#"{{"topology": "{}", "node": "{node}", "listen": "127.0.0.1:{me}",
                    "peers": {{"{peer_name}": "127.0.0.1:{peer}"}},
                    "hello_interval_ms": 20, "link_state_interval_ms": 60}}"#,
                topo.display()
            ),
        )
        .unwrap();
        path
    };
    let cfg_a = config("NYC", port_a, "JHU", port_b);
    let cfg_b = config("JHU", port_b, "NYC", port_a);

    let mut a = Command::new(bin())
        .args(["--config", cfg_a.to_str().unwrap()])
        .stdout(Stdio::piped())
        .spawn()
        .expect("NYC daemon starts");
    let mut b = Command::new(bin())
        .args(["--config", cfg_b.to_str().unwrap()])
        .stdout(Stdio::piped())
        .spawn()
        .expect("JHU daemon starts");

    // Let hellos flow for a moment, then stop both.
    std::thread::sleep(Duration::from_millis(800));
    a.kill().unwrap();
    b.kill().unwrap();
    let mut out_a = String::new();
    a.stdout.take().unwrap().read_to_string(&mut out_a).unwrap();
    let _ = a.wait();
    let _ = b.wait();
    assert!(out_a.contains("dg-node NYC listening on 127.0.0.1"), "unexpected banner: {out_a:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Grabs two free loopback UDP ports (released again before use; tests
/// in this file use high fixed ports or this helper, never both).
fn two_free_ports() -> (u16, u16) {
    let a = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let b = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    (a.local_addr().unwrap().port(), b.local_addr().unwrap().port())
}

/// The full deployment contract over real UDP: both daemons print a
/// machine-parseable `READY <node> <addr>` line once their
/// sockets are bound, converge their hello/link-state protocols, exit
/// on their `--run-ms` deadline, and dump metrics snapshots that
/// deserialize back into [`dg_overlay::MetricsSnapshot`] with evidence
/// of the convergence (hello exchange, a two-origin link-state digest).
#[test]
fn real_udp_pair_reports_ready_converges_and_dumps_metrics() {
    let dir = std::env::temp_dir().join(format!("dg_node_cli_ready_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let topo = dir.join("topology.json");
    assert!(Command::new(bin())
        .args(["--emit-topology", topo.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    let (port_a, port_b) = two_free_ports();
    let write_config = |node: &str, me: u16, peer_name: &str, peer: u16| {
        let path = dir.join(format!("{node}.json"));
        std::fs::write(
            &path,
            format!(
                r#"{{"topology": "{}", "node": "{node}", "listen": "127.0.0.1:{me}",
                    "peers": {{"{peer_name}": "127.0.0.1:{peer}"}},
                    "hello_interval_ms": 20, "link_state_interval_ms": 60}}"#,
                topo.display()
            ),
        )
        .unwrap();
        path
    };
    let cfg_a = write_config("NYC", port_a, "JHU", port_b);
    let cfg_b = write_config("JHU", port_b, "NYC", port_a);
    let metrics_a = dir.join("NYC.metrics.json");
    let metrics_b = dir.join("JHU.metrics.json");

    let spawn = |cfg: &std::path::Path, metrics: &std::path::Path| {
        Command::new(bin())
            .args(["--config", cfg.to_str().unwrap()])
            .args(["--run-ms", "1500"])
            .args(["--metrics-json", metrics.to_str().unwrap()])
            .stdout(Stdio::piped())
            .spawn()
            .expect("daemon starts")
    };
    let mut a = spawn(&cfg_a, &metrics_a);
    let mut b = spawn(&cfg_b, &metrics_b);

    // Both exit on their own --run-ms deadline.
    let status_a = a.wait().expect("NYC daemon exits");
    let status_b = b.wait().expect("JHU daemon exits");

    let mut out_a = String::new();
    a.stdout.take().unwrap().read_to_string(&mut out_a).unwrap();
    let ready = out_a.lines().next().expect("daemon printed output");
    let fields: Vec<&str> = ready.split_whitespace().collect();
    assert_eq!(fields.first(), Some(&"READY"), "first line is the readiness line: {ready:?}");
    assert_eq!(fields.get(1), Some(&"NYC"));
    assert_eq!(fields.get(2), Some(&format!("127.0.0.1:{port_a}").as_str()));
    assert_eq!(fields.len(), 3, "READY <node> <addr> and nothing else: {ready:?}");

    for (name, path, status) in [("NYC", &metrics_a, status_a), ("JHU", &metrics_b, status_b)] {
        let raw =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name} metrics missing: {e}"));
        let snap: dg_overlay::MetricsSnapshot =
            serde_json::from_str(&raw).unwrap_or_else(|e| panic!("{name} snapshot: {e}"));
        assert!(snap.counters.hellos_sent > 0, "{name} sent hellos");
        assert!(snap.counters.hello_acks_received > 0, "{name} heard its peer echo");
        assert_eq!(snap.link_state.len(), 2, "{name} digest covers both origins");
        assert!(status.success(), "{name} exited at its run limit, not with {status}");
        assert!(snap.links.iter().any(|l| l.datagrams > 0), "{name} shipped datagrams to its peer");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Operator-input failures exit with code 1 and a diagnostic naming
/// the offending file — never a panic, never a bare abort.
#[test]
fn bad_inputs_exit_one_with_file_naming_diagnostics() {
    let dir = std::env::temp_dir().join(format!("dg_node_cli_diag_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let topo = dir.join("topology.json");
    assert!(Command::new(bin())
        .args(["--emit-topology", topo.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    let run = |args: &[&str]| {
        let output =
            Command::new(bin()).args(args).stderr(Stdio::piped()).output().expect("binary runs");
        (output.status.code(), String::from_utf8_lossy(&output.stderr).into_owned())
    };
    let valid_config = dir.join("valid.json");
    std::fs::write(
        &valid_config,
        format!(r#"{{"topology": "{}", "node": "NYC", "listen": "127.0.0.1:0"}}"#, topo.display()),
    )
    .unwrap();

    // Missing config file.
    let (code, err) = run(&["--config", "/nonexistent/node.json"]);
    assert_eq!(code, Some(1), "stderr: {err}");
    assert!(err.contains("/nonexistent/node.json") && err.contains("cannot read"), "{err}");

    // Config that is not JSON.
    let broken = dir.join("broken.json");
    std::fs::write(&broken, "{not json").unwrap();
    let (code, err) = run(&["--config", broken.to_str().unwrap()]);
    assert_eq!(code, Some(1), "stderr: {err}");
    assert!(err.contains("broken.json") && err.contains("bad config"), "{err}");

    // Config naming a node the topology does not contain.
    let ghost = dir.join("ghost.json");
    std::fs::write(
        &ghost,
        format!(
            r#"{{"topology": "{}", "node": "ATLANTIS", "listen": "127.0.0.1:0"}}"#,
            topo.display()
        ),
    )
    .unwrap();
    let (code, err) = run(&["--config", ghost.to_str().unwrap()]);
    assert_eq!(code, Some(1), "stderr: {err}");
    assert!(err.contains("ATLANTIS"), "diagnostic names the offender: {err}");

    // Config with a key the daemon does not read (here a typo): an
    // error naming the key, not a run at defaults.
    let typo = dir.join("typo.json");
    std::fs::write(
        &typo,
        format!(
            r#"{{"topology": "{}", "node": "NYC", "listen": "127.0.0.1:0",
                "hello_intervall_ms": 20}}"#,
            topo.display()
        ),
    )
    .unwrap();
    let (code, err) = run(&["--config", typo.to_str().unwrap()]);
    assert_eq!(code, Some(1), "stderr: {err}");
    assert!(err.contains("typo.json") && err.contains("hello_intervall_ms"), "{err}");

    // Valid config, corrupt chaos schedule.
    let chaos = dir.join("chaos.json");
    std::fs::write(&chaos, "[]").unwrap();
    let (code, err) =
        run(&["--config", valid_config.to_str().unwrap(), "--chaos-json", chaos.to_str().unwrap()]);
    assert_eq!(code, Some(1), "stderr: {err}");
    assert!(err.contains("chaos.json") && err.contains("bad chaos schedule"), "{err}");

    // Valid config, well-formed chaos schedules the topology (60 edges,
    // 12 sites) cannot carry, or with a probability that is none.
    for (action, rule) in [
        (r#"{"HealEdge": {"edge": 60}}"#, "event 1: edge must be an edge"),
        (r#"{"CrashNode": {"node": 12}}"#, "event 1: node must be a site"),
        (r#"{"ImpairNode": {"node": 0, "fault": {"loss": 1.5}}}"#, "event 1: loss, reorder"),
    ] {
        let sound = r#"{"at_ms": 0, "action": {"HealNode": {"node": 11}}}"#;
        let events = format!(r#"[{sound}, {{"at_ms": 10, "action": {action}}}]"#);
        std::fs::write(&chaos, format!(r#"{{"seed": 1, "events": {events}}}"#)).unwrap();
        let config = valid_config.to_str().unwrap();
        let (code, err) = run(&["--config", config, "--chaos-json", chaos.to_str().unwrap()]);
        assert_eq!(code, Some(1), "{action}: stderr: {err}");
        assert!(err.contains("chaos.json") && err.contains(rule), "{action}: {err}");
    }

    // Valid config, corrupt SLA plan.
    let sla = dir.join("sla.json");
    std::fs::write(&sla, "3").unwrap();
    let (code, err) =
        run(&["--config", valid_config.to_str().unwrap(), "--sla-json", sla.to_str().unwrap()]);
    assert_eq!(code, Some(1), "stderr: {err}");
    assert!(err.contains("sla.json") && err.contains("bad sla plan"), "{err}");

    // Usage errors stay distinct: unknown flags exit 2, not 1.
    let (code, _) = run(&["--no-such-flag"]);
    assert_eq!(code, Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}
