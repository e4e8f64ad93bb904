//! The benchmark's own checks: its schedule, its open-loop timing, its
//! metric list and its correctness gate.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::Duration;

use com_datagen::{generate, synthetic, SyntheticParams};
use com_serve::{ByeMsg, ClientMsg, WireFormat};
use perfbench::bench::{END_TO_END, PER_LAYER};
use perfbench::drive::{drive, Pace, Wire};
use perfbench::gate::{check_bye, reference};
use perfbench::schedule::{due_ns, ladder_rate, poisson_offsets, search_ladder, LADDER_RUNGS};
use perfbench::spans::SpanLog;
use perfbench::wire::Conn;
use serde::Content;

#[test]
fn arrival_schedule_is_deterministic_per_seed() {
    let a = poisson_offsets(7, 0, 5000);
    assert_eq!(a, poisson_offsets(7, 0, 5000));
    assert_ne!(a, poisson_offsets(8, 0, 5000));
    assert_ne!(
        a,
        poisson_offsets(7, 1, 5000),
        "connections get their own stream"
    );
    assert!(a.windows(2).all(|w| w[0] < w[1]));
    // Unit rate: 5000 arrivals take about 5000 s; at 1000/s, about 5 s.
    let due = due_ns(&a, 1000.0);
    let last = *due.last().unwrap() as f64 / 1e9;
    assert!((4.5..5.5).contains(&last), "last arrival at {last} s");
}

#[test]
fn ladder_search_finds_the_knee() {
    for knee in [0usize, 3, 57, 58, 61, 120, LADDER_RUNGS - 1] {
        let mut probes = 0;
        let found = search_ladder(60, |rung| {
            probes += 1;
            Ok(rung <= knee)
        })
        .unwrap();
        assert_eq!(found, Some(knee));
        assert!(probes <= 40, "{probes} probes for knee {knee}");
    }
    assert_eq!(search_ladder(60, |_| Ok(false)).unwrap(), None);
    // Neighbouring rungs are 4% apart: near any knee, well within 10%.
    assert!((ladder_rate(58) / ladder_rate(57) - 1.04).abs() < 1e-9);
}

/// A stub server that answers every line with `"ok"`, but stalls
/// `stall_ms` before answering line `stall_at`.
fn stub_server(stall_at: usize, stall_ms: u64) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut out = stream.try_clone().unwrap();
        for (i, line) in BufReader::new(stream).lines().enumerate() {
            if line.is_err() {
                return;
            }
            if i == stall_at {
                std::thread::sleep(Duration::from_millis(stall_ms));
            }
            if out.write_all(b"\"ok\"\n").is_err() {
                return;
            }
        }
    });
    addr
}

#[test]
fn a_stall_delays_every_request_queued_behind_it() {
    // 300 messages due 1 ms apart; the server stalls 60 ms on message 50.
    let addr = stub_server(50, 60);
    let mut conns = vec![Conn::connect(&addr).unwrap()];
    let msgs = vec![ClientMsg::stats; 300];
    let wires = vec![Wire::encode(&[None], &msgs, WireFormat::Ndjson)];
    let due: Vec<u64> = (0..300).map(|k| k * 1_000_000).collect();
    let paces = [Pace::Open { due: &due }];
    let (passes, _) = drive(&mut conns, &wires, &paces, &mut SpanLog::new(false)).unwrap();
    let p = &passes[0];
    assert!(!p.aborted);
    // Message 50 is answered no earlier than 110 ms, so message k in
    // 50..110 waits at least (110 − k) ms from its due time, although
    // its own service took microseconds.
    for k in [50usize, 70, 90, 100] {
        let waited = p.latency_ns(k) as f64 / 1e6;
        let floor = (110 - k) as f64 - 1.0;
        assert!(
            waited >= floor,
            "message {k} waited {waited} ms, expected ≥ {floor}"
        );
    }
    // Long after the stall the latency is back to normal.
    assert!(
        p.latency_ns(250) < 20_000_000,
        "latency {} ns",
        p.latency_ns(250)
    );
}

fn json_file(path: &str) -> Content {
    let text = std::fs::read_to_string(path).unwrap();
    serde_json::parse_content(&text).unwrap()
}

fn field<'a>(c: &'a Content, key: &str) -> &'a Content {
    match c {
        Content::Map(entries) => entries
            .iter()
            .find(|(k, _)| matches!(k, Content::Str(s) if s == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {key}")),
        _ => panic!("not an object"),
    }
}

fn names_and_units(list: &Content) -> Vec<(String, String)> {
    let Content::Seq(items) = list else {
        panic!("not a list")
    };
    items
        .iter()
        .map(|m| match (field(m, "name"), field(m, "unit")) {
            (Content::Str(n), Content::Str(u)) => (n.clone(), u.clone()),
            _ => panic!("bad metric entry"),
        })
        .collect()
}

#[test]
fn every_metric_in_benchmark_json_is_emitted() {
    let spec = json_file(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    // The untraced run selects exactly END_TO_END and the traced run
    // exactly PER_LAYER, refusing to print a result with one missing.
    assert_eq!(
        names_and_units(field(&spec, "end_to_end")),
        own(&END_TO_END)
    );
    assert_eq!(names_and_units(field(&spec, "per_layer")), own(&PER_LAYER));
    let Content::Seq(workloads) = field(&spec, "workloads") else {
        panic!()
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| match field(w, "name") {
            Content::Str(s) => s.as_str(),
            _ => panic!(),
        })
        .collect();
    // Every driven workload exists; `mux-tota` is run by hand only.
    for name in &names {
        assert!(
            perfbench::workload::find(name).is_some(),
            "unknown workload {name}"
        );
    }
    assert_eq!(names, ["city-demcom", "fed-ramcom-rec"]);
}

#[test]
fn gate_trips_on_a_tampered_digest() {
    let instance = generate(&synthetic(SyntheticParams {
        n_requests: 60,
        n_workers: 20,
        ..SyntheticParams::default()
    }));
    let truth = reference(&instance, "demcom", 3).unwrap();
    let bye = ByeMsg {
        algorithm: "DemCOM".into(),
        revenue: truth.revenue,
        completed: 0,
        cooperative: 0,
        events: instance.stream.len() as u64,
        refused: 0,
        audit_findings: Vec::new(),
        canonical: serde_json::from_str(&truth.canonical).unwrap(),
        digest: truth.digest.clone(),
        fed: None,
    };
    assert!(check_bye(&truth, &bye, "s").is_empty());

    let mut tampered = bye.clone();
    tampered.digest.push('0');
    let failures = check_bye(&truth, &tampered, "s");
    assert_eq!(failures.len(), 1);
    assert!(failures[0].contains("digest"), "{failures:?}");

    let smaller = generate(&synthetic(SyntheticParams {
        n_requests: 40,
        n_workers: 20,
        ..SyntheticParams::default()
    }));
    let other = reference(&smaller, "demcom", 3).unwrap();
    let mut swapped = bye.clone();
    swapped.canonical = serde_json::from_str(&other.canonical).unwrap();
    let failures = check_bye(&truth, &swapped, "s");
    assert_eq!(failures.len(), 1);
    assert!(failures[0].contains("canonical"), "{failures:?}");

    let mut audited = bye;
    audited.audit_findings.push("finding".into());
    assert!(!check_bye(&truth, &audited, "s").is_empty());
}
