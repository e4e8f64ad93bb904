//! End-to-end loopback test: an in-process `matchd` server on an
//! ephemeral port serves a real datagen scenario streamed by the
//! `matchload` client library, and the served run is *exactly* the batch
//! `try_run_online` run — same decisions, same payments, same canonical
//! JSON — with a silent auditor and zero backpressure drops.

use com_core::identity::{canonical_run_json, canonical_text};
use com_core::{try_run_online, MatcherRegistry};
use com_datagen::{generate, synthetic, SyntheticParams};
use com_serve::{drive, serve, DriveOptions, ServerConfig, ServerMsg};
use com_sim::Instance;

fn quick_instance() -> Instance {
    generate(&synthetic(SyntheticParams {
        n_requests: 200,
        n_workers: 60,
        ..SyntheticParams::default()
    }))
}

#[test]
fn served_run_equals_batch_run_and_audits_clean() {
    let instance = quick_instance();
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let options = DriveOptions {
        matcher: "demcom".into(),
        seed: 9,
        ..DriveOptions::default()
    };
    let report = drive(&options.lanes(&addr, &instance), &instance, options.window)
        .expect("loopback replay");
    let lane = &report.lanes[0];

    // The auditor is silent and nothing was dropped.
    assert_eq!(lane.bye.audit_findings, Vec::<String>::new());
    assert_eq!(report.busy, 0);
    assert_eq!(handle.counters().dropped(), 0);

    // Per-request accounting is consistent end to end.
    assert_eq!(report.events, instance.stream.len());
    assert_eq!(lane.assigned as u64, lane.bye.completed);
    assert_eq!(lane.refused as u64, lane.bye.refused);
    assert!(report.request_rtt_ns.count() as usize == instance.request_count());

    // The served run IS the batch run.
    let registry = MatcherRegistry::builtin();
    let mut matcher = registry.resolve("demcom").unwrap()();
    let batch = try_run_online(&instance, matcher.as_mut(), 9);
    assert_eq!(
        canonical_text(&canonical_run_json(&batch)),
        canonical_text(&lane.bye.canonical),
    );
    assert_eq!(lane.bye.revenue, batch.total_revenue());

    assert_eq!(handle.counters().connections(), 1);
    assert_eq!(handle.counters().sessions_finished(), 1);
    assert_eq!(handle.counters().protocol_errors(), 0);
    // Shutdown joins every thread; returning at all is the leak check.
    handle.shutdown();
}

#[test]
fn sequential_sessions_on_one_server_are_independent() {
    let instance = quick_instance();
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let mut canonicals = Vec::new();
    for _ in 0..2 {
        let options = DriveOptions {
            matcher: "ramcom".into(),
            seed: 4242,
            ..DriveOptions::default()
        };
        let report = drive(&options.lanes(&addr, &instance), &instance, options.window)
            .expect("loopback replay");
        let bye = &report.lanes[0].bye;
        assert_eq!(bye.audit_findings, Vec::<String>::new());
        canonicals.push(canonical_text(&bye.canonical));
    }
    // Same seed, fresh session: deterministic across connections.
    assert_eq!(canonicals[0], canonicals[1]);
    assert_eq!(handle.counters().sessions_finished(), 2);
    handle.shutdown();
}

#[test]
fn stats_reports_live_counters_mid_session() {
    let instance = quick_instance();
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let mut client = com_serve::Client::connect(&addr).expect("connect");
    let hello = com_serve::ClientMsg::hello(com_serve::Hello {
        matcher: "tota".into(),
        seed: 1,
        world: instance.config.clone(),
        platforms: instance.platform_names.clone(),
        max_value: instance.max_value(),
        origin: None,
        frame: None,
        fed: None,
    });
    let (response, _) = client.rpc(&hello).expect("hello");
    assert!(matches!(response, ServerMsg::welcome { .. }));

    let mut sent = 0u64;
    for event in instance.stream.iter().take(50) {
        let msg = match event {
            com_sim::ArrivalEvent::Worker(spec) => {
                com_serve::ClientMsg::worker(com_serve::WorkerMsg {
                    spec: *spec,
                    history: instance.histories.get(&spec.id).cloned(),
                })
            }
            com_sim::ArrivalEvent::Request(spec) => com_serve::ClientMsg::request(*spec),
        };
        client.rpc(&msg).expect("event");
        sent += 1;
    }
    let (response, _) = client.rpc(&com_serve::ClientMsg::stats).expect("stats");
    let ServerMsg::stats(stats) = response else {
        panic!("expected stats, got {response:?}");
    };
    assert_eq!(stats.events, sent);
    assert_eq!(stats.dropped, 0);

    let (response, _) = client
        .rpc(&com_serve::ClientMsg::shutdown)
        .expect("shutdown");
    assert!(matches!(response, ServerMsg::bye(_)));
    handle.shutdown();
}
