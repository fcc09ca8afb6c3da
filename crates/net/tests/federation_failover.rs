//! Federation fault injection over real sockets: kill a replica
//! mid-run and watch the front-door degrade the way the design says it
//! must.
//!
//! The in-process conformance suite (`seu-metasearch
//! tests/federation_conformance.rs`) proves the bit-identity invariant;
//! this suite proves the *wire* half of the tentpole:
//!
//! - the engine-lifecycle orders (install / export / remove) round-trip
//!   through a [`ReplicaServer`], idempotently, with typed errors;
//! - killing a replica's process (its server and every live socket)
//!   makes the next federated query fail over to the ring successor
//!   and still answer **bit-identically** to a flat control broker,
//!   with the failure captured per replica as a typed
//!   [`TransportError`];
//! - per-replica circuit breakers open after `failure_threshold`
//!   consecutive failures and half-open after the cooldown — driven by
//!   a [`ManualClock`], so the test never sleeps;
//! - replica joins and leaves (rebalances shipping engines over TCP)
//!   keep the federated answer bit-identical throughout.
//! - malformed input at the replica listener (a length-lying frame
//!   header, a garbage payload, a non-Hello opening frame, an
//!   engine-only request kind) gets a typed error and a closed
//!   connection, and the replica keeps serving fresh clients.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::federation::{
    BreakerState, EngineSource, FrontDoor, FrontDoorConfig, InstallSpec, ManualClock, ReplicaClient,
};
use seu_metasearch::{
    Broker, RemoteTransport, SearchRequest, SearchResponse, SelectionPolicy, TransportErrorKind,
};
use seu_net::{EngineServer, RemoteEngine, RemoteReplica, ReplicaServer};
use seu_text::Analyzer;
use std::sync::Arc;

const SEED: u64 = 0xFA11_0BE8;

/// xorshift64* — tiny, seedable, stable across platforms.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const WORDS: &[&str] = &[
    "database",
    "query",
    "index",
    "vector",
    "soup",
    "mushroom",
    "bread",
    "forest",
    "network",
    "gradient",
    "retrieval",
    "estimate",
    "shard",
    "broker",
    "epoch",
    "cosine",
    "socket",
    "frame",
];

fn engine_of(rng: &mut Rng) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for i in 0..2 + rng.below(4) {
        let len = 4 + rng.below(6);
        let text = (0..len)
            .map(|_| WORDS[rng.below(WORDS.len())])
            .collect::<Vec<_>>()
            .join(" ");
        b.add_document(&format!("d{i}"), &text);
    }
    SearchEngine::new(b.build())
}

fn queries(n: usize) -> Vec<String> {
    let mut rng = Rng::new(SEED ^ 0x9E37_79B9);
    (0..n)
        .map(|_| {
            let len = 1 + rng.below(3);
            (0..len)
                .map(|_| WORDS[rng.below(WORDS.len())])
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// `n` engines, each on its own [`EngineServer`] socket.
fn engine_fleet(n: usize) -> Vec<(String, EngineServer)> {
    let mut rng = Rng::new(SEED);
    (0..n)
        .map(|i| {
            let name = format!("engine-{i:03}");
            let server = EngineServer::bind(&name, engine_of(&mut rng), "127.0.0.1:0")
                .expect("bind engine server");
            (name, server)
        })
        .collect()
}

fn replica_broker() -> Arc<Broker<SubrangeEstimator>> {
    Arc::new(Broker::new(SubrangeEstimator::paper_six_subrange()))
}

/// A replica on a socket plus its front-door-side client.
fn replica(id: &str) -> (ReplicaServer, RemoteReplica) {
    let server = ReplicaServer::bind(id, replica_broker(), "127.0.0.1:0").expect("bind replica");
    let client = RemoteReplica::new(server.addr()).expect("dial replica");
    (server, client)
}

/// A flat control broker over the same engine servers, registered in
/// the same global order.
fn control_broker(fleet: &[(String, EngineServer)]) -> Broker<SubrangeEstimator> {
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    for (name, server) in fleet {
        let registered = broker
            .register_remote(Arc::new(RemoteEngine::new(server.addr()).expect("dial")))
            .expect("register control engine");
        assert_eq!(&registered, name);
    }
    broker
}

fn register_fleet(fd: &FrontDoor, fleet: &[(String, EngineServer)]) {
    for (name, server) in fleet {
        fd.register_engine(
            name,
            EngineSource::Remote {
                endpoint: server.addr().to_string(),
            },
        )
        .expect("register on front door");
    }
}

fn request(query: &str, policy: SelectionPolicy) -> SearchRequest {
    SearchRequest::new(query)
        .threshold(0.1)
        .policy(policy)
        .with_estimates(true)
}

const POLICIES: &[SelectionPolicy] = &[SelectionPolicy::All, SelectionPolicy::TopK(3)];

fn assert_responses_identical(control: &SearchResponse, fed: &SearchResponse, ctx: &str) {
    assert_eq!(
        control.estimates.len(),
        fed.estimates.len(),
        "{ctx}: estimate count"
    );
    for (c, f) in control.estimates.iter().zip(&fed.estimates) {
        assert_eq!(c.engine, f.engine, "{ctx}: estimate order");
        assert_eq!(
            c.usefulness.no_doc.to_bits(),
            f.usefulness.no_doc.to_bits(),
            "{ctx}: est_NoDoc for {}",
            c.engine
        );
        assert_eq!(
            c.usefulness.avg_sim.to_bits(),
            f.usefulness.avg_sim.to_bits(),
            "{ctx}: est_AvgSim for {}",
            c.engine
        );
    }
    assert_eq!(control.hits.len(), fed.hits.len(), "{ctx}: hit count");
    for (c, f) in control.hits.iter().zip(&fed.hits) {
        assert_eq!((&c.engine, &c.doc), (&f.engine, &f.doc), "{ctx}: hit order");
        assert_eq!(
            c.sim.to_bits(),
            f.sim.to_bits(),
            "{ctx}: sim for {}/{}",
            c.engine,
            c.doc
        );
    }
}

/// Full conformance sweep: every query × policy, no degradation
/// allowed.
fn assert_clean_conformance(control: &Broker<SubrangeEstimator>, fd: &FrontDoor, label: &str) {
    for query in queries(4) {
        for &policy in POLICIES {
            let req = request(&query, policy);
            let (fed, report) = fd.execute_with_report(&req);
            assert!(
                report.failures.is_empty() && report.unresolved.is_empty(),
                "{label}, query={query:?}: unexpected degradation: {report:?}"
            );
            assert_responses_identical(
                &control.execute(&req),
                &fed,
                &format!("{label}, query={query:?}, policy={policy:?}"),
            );
        }
    }
}

#[test]
fn engine_lifecycle_round_trips_over_the_wire() {
    let fleet = engine_fleet(1);
    let (name, server) = &fleet[0];
    let broker = replica_broker();
    let replica_server =
        ReplicaServer::bind("r0", broker.clone(), "127.0.0.1:0").expect("bind replica");
    let client = RemoteReplica::new(replica_server.addr()).expect("dial replica");

    client.ping().expect("ping");

    // Install by endpoint: the replica dials the engine itself.
    let spec = InstallSpec {
        name: name.clone(),
        source: Some(EngineSource::Remote {
            endpoint: server.addr().to_string(),
        }),
        snapshot: None,
    };
    client.install(&spec).expect("install");
    assert_eq!(broker.engine_names(), vec![name.clone()]);
    // Idempotent: a second identical install is a no-op, not an error.
    client.install(&spec).expect("re-install");
    assert_eq!(broker.engine_names().len(), 1);

    // The exported snapshot is the engine's own statistics, bit for
    // bit — what makes a post-rebalance replica answer identically.
    let exported = client.export_engine(name).expect("export");
    let direct = RemoteEngine::new(server.addr())
        .expect("dial engine")
        .fetch_snapshot()
        .expect("fetch snapshot");
    assert_eq!(
        exported.fingerprint, direct.fingerprint,
        "snapshot fingerprint drifted"
    );

    // Estimates served through the replica match a flat broker's over
    // the same engine server.
    let estimates = client
        .estimate_subset("database query soup", 0.1, std::slice::from_ref(name))
        .expect("estimate");
    let local = Broker::new(SubrangeEstimator::paper_six_subrange());
    local
        .register_remote(Arc::new(RemoteEngine::new(server.addr()).expect("dial")))
        .expect("register control engine");
    let control = local.execute(&request("database query soup", SelectionPolicy::All));
    assert_eq!(estimates.len(), 1);
    assert_eq!(
        estimates[0].usefulness.no_doc.to_bits(),
        control.estimates[0].usefulness.no_doc.to_bits(),
        "wire estimate drifted from local"
    );

    // A name/advertisement mismatch is refused and leaves nothing
    // behind.
    let err = client
        .install(&InstallSpec {
            name: "imposter".to_string(),
            source: Some(EngineSource::Remote {
                endpoint: server.addr().to_string(),
            }),
            snapshot: None,
        })
        .expect_err("mismatched install must fail");
    assert_eq!(err.kind, TransportErrorKind::Remote, "{err}");
    assert_eq!(
        broker.engine_names(),
        vec![name.clone()],
        "imposter left residue"
    );

    // Removal round-trips and is idempotent in the Ok(false) sense.
    assert!(client.remove_engine(name).expect("remove"));
    assert!(!client.remove_engine(name).expect("re-remove"));
    let err = client
        .export_engine(name)
        .expect_err("export after removal");
    assert_eq!(err.kind, TransportErrorKind::Remote, "{err}");
}

#[test]
fn killed_replica_fails_over_to_the_ring_successor() {
    let fleet = engine_fleet(8);
    let control = control_broker(&fleet);
    let fd = FrontDoor::new(FrontDoorConfig::default());
    let (server0, client0) = replica("replica-0");
    let (server1, client1) = replica("replica-1");
    fd.add_replica("replica-0", Arc::new(client0));
    fd.add_replica("replica-1", Arc::new(client1));
    register_fleet(&fd, &fleet);

    // Both replicas must be primary for something, or the kill proves
    // nothing; with 8 names on a 192-vnode ring this holds.
    let placements = fd.placements();
    let primaries = |id: &str| placements.iter().filter(|(_, h)| h[0] == id).count();
    assert!(
        primaries("replica-0") > 0,
        "replica-0 owns nothing: {placements:?}"
    );
    assert!(
        primaries("replica-1") > 0,
        "replica-1 owns nothing: {placements:?}"
    );

    assert_clean_conformance(&control, &fd, "both replicas up");

    // Kill replica-1: listener closed, every live connection severed.
    server1.shutdown();

    for query in queries(4) {
        for &policy in POLICIES {
            let req = request(&query, policy);
            let ctx = format!("replica-1 dead, query={query:?}, policy={policy:?}");
            let (fed, report) = fd.execute_with_report(&req);
            // Failover serves every engine from the surviving holder —
            // the answer stays bit-identical, not just "close".
            assert_responses_identical(&control.execute(&req), &fed, &ctx);
            assert!(
                report.unresolved.is_empty(),
                "{ctx}: unresolved {:?}",
                report.unresolved
            );
            assert!(report.failovers >= 1, "{ctx}: no failover recorded");
            assert!(!report.failures.is_empty(), "{ctx}: failure not captured");
            for failure in &report.failures {
                assert_eq!(failure.replica, "replica-1", "{ctx}: wrong replica blamed");
                assert!(
                    matches!(
                        failure.error.kind,
                        TransportErrorKind::ConnectionLost
                            | TransportErrorKind::Refused
                            | TransportErrorKind::Timeout
                    ),
                    "{ctx}: untyped failure {:?}",
                    failure.error
                );
                assert!(
                    !failure.engines.is_empty(),
                    "{ctx}: failure names no engines"
                );
            }
        }
    }
    drop(server0);
}

#[test]
fn breaker_opens_after_failures_and_half_opens_on_cooldown() {
    let fleet = engine_fleet(6);
    let control = control_broker(&fleet);
    let clock = ManualClock::new();
    let config = FrontDoorConfig::default();
    let threshold = config.breaker.failure_threshold;
    let cooldown = config.breaker.cooldown_ms;
    let fd = FrontDoor::with_clock(config, clock.clone());
    let (server0, client0) = replica("replica-0");
    let (server1, client1) = replica("replica-1");
    fd.add_replica("replica-0", Arc::new(client0));
    fd.add_replica("replica-1", Arc::new(client1));
    register_fleet(&fd, &fleet);
    assert_clean_conformance(&control, &fd, "breaker warm-up");

    server1.shutdown();

    let state_of = |fd: &FrontDoor, id: &str| {
        fd.replica_states()
            .into_iter()
            .find(|(r, _)| r == id)
            .map(|(_, s)| s)
            .expect("replica listed")
    };

    // Dead-replica connects fail fast (connection refused), so queries
    // charge the breaker without any timeout sleeps. A single query can
    // record several failures against the dead replica (estimate and
    // search phases fail independently), so the breaker needs at most
    // `failure_threshold` queries — every one still answering
    // bit-identically off the standby.
    let req = request(&queries(1)[0], SelectionPolicy::All);
    let mut failing_queries = 0u32;
    while state_of(&fd, "replica-1") == BreakerState::Closed {
        assert!(
            failing_queries < threshold,
            "breaker still closed after {failing_queries} failing queries"
        );
        let (fed, report) = fd.execute_with_report(&req);
        failing_queries += 1;
        assert_responses_identical(
            &control.execute(&req),
            &fed,
            &format!("failing query {failing_queries}"),
        );
        assert!(report.failures.iter().all(|f| f.replica == "replica-1"));
        assert!(
            !report.failures.is_empty(),
            "dead replica produced no failures"
        );
    }
    assert_eq!(
        state_of(&fd, "replica-1"),
        BreakerState::Open,
        "breaker did not open"
    );
    assert_eq!(
        state_of(&fd, "replica-0"),
        BreakerState::Closed,
        "healthy breaker tripped"
    );

    // While open, the replica is skipped up front: the failure capture
    // says Refused/"breaker open", no socket is dialed, and the query
    // still answers bit-identically from the standby.
    let (fed, report) = fd.execute_with_report(&req);
    assert_responses_identical(&control.execute(&req), &fed, "breaker open");
    let refusal = report
        .failures
        .iter()
        .find(|f| f.replica == "replica-1")
        .expect("open breaker must be reported");
    assert_eq!(
        refusal.error.kind,
        TransportErrorKind::Refused,
        "{refusal:?}"
    );
    assert!(
        refusal.error.to_string().contains("breaker open"),
        "refusal detail lost: {}",
        refusal.error
    );

    // Cooldown elapses on the injected clock — no sleeping.
    clock.advance(cooldown + 1);
    assert_eq!(
        state_of(&fd, "replica-1"),
        BreakerState::HalfOpen,
        "no half-open trial"
    );

    // The half-open probe fails (the replica is still dead) and the
    // breaker snaps back open.
    let probes = fd.probe_once();
    let dead = probes
        .iter()
        .find(|(id, _)| id == "replica-1")
        .expect("probed");
    assert!(!dead.1, "probe of a dead replica reported healthy");
    assert_eq!(
        state_of(&fd, "replica-1"),
        BreakerState::Open,
        "failed probe left breaker ajar"
    );
    let live = probes
        .iter()
        .find(|(id, _)| id == "replica-0")
        .expect("probed");
    assert!(live.1, "probe of a live replica reported dead");
    drop(server0);
}

#[test]
fn rebalance_over_tcp_keeps_answers_bit_identical() {
    let fleet = engine_fleet(8);
    let control = control_broker(&fleet);
    let fd = FrontDoor::new(FrontDoorConfig::default());
    let (server0, client0) = replica("replica-0");
    let (server1, client1) = replica("replica-1");
    fd.add_replica("replica-0", Arc::new(client0));
    fd.add_replica("replica-1", Arc::new(client1));
    register_fleet(&fd, &fleet);
    assert_clean_conformance(&control, &fd, "2 replicas");

    // A third replica joins: the rebalance ships its share of engines
    // over the wire (snapshot + endpoint installs).
    let (server2, client2) = replica("replica-2");
    let report = fd
        .add_replica("replica-2", Arc::new(client2))
        .expect("join rebalances");
    assert!(
        report.moves.iter().any(|m| m.to == "replica-2"),
        "join moved nothing onto the new replica: {report:?}"
    );
    assert!(
        fd.placements()
            .iter()
            .any(|(_, h)| h.contains(&"replica-2".to_string())),
        "replica-2 holds nothing"
    );
    assert_clean_conformance(&control, &fd, "after join");

    // A graceful leave moves its engines back to the survivors.
    fd.remove_replica("replica-2").expect("leave rebalances");
    server2.shutdown();
    assert!(
        fd.placements()
            .iter()
            .all(|(_, h)| !h.contains(&"replica-2".to_string())),
        "departed replica still holds engines"
    );
    assert_clean_conformance(&control, &fd, "after leave");
    drop(server0);
    drop(server1);
}

/// Every sabotage below gets one typed `Error` frame, then the server
/// closes the connection; between sabotages a fresh client must still
/// be served, so no malformed peer can panic or wedge the listener.
#[test]
fn replica_listener_rejects_malformed_input_and_keeps_serving() {
    use seu_net::frame::{read_frame, write_frame_corr, MAGIC, MAX_FRAME_BYTES, PROTOCOL_VERSION};
    use seu_net::wire::Message;
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Duration;

    let fleet = engine_fleet(1);
    let (name, engine_server) = &fleet[0];
    let server = ReplicaServer::bind("r0", replica_broker(), "127.0.0.1:0").expect("bind replica");
    RemoteReplica::new(server.addr())
        .expect("dial replica")
        .install(&InstallSpec {
            name: name.clone(),
            source: Some(EngineSource::Remote {
                endpoint: engine_server.addr().to_string(),
            }),
            snapshot: None,
        })
        .expect("install");

    let estimate = Message::ReplicaEstimate {
        query: "database query".to_string(),
        threshold: 0.1,
        engines: vec![name.clone()],
    };
    let send = |s: &mut TcpStream, message: &Message| {
        let (kind, payload) = message.encode();
        write_frame_corr(s, 7, kind, &payload).expect("send frame");
    };
    let hello = |s: &mut TcpStream| {
        send(s, &Message::Hello { subscribe: false });
        let ack = read_frame(s).expect("handshake ack");
        assert!(
            matches!(
                Message::decode(ack.kind, &ack.payload),
                Ok(Message::HelloAck { .. })
            ),
            "replica did not ack the handshake"
        );
    };
    type Sabotage<'a> = Box<dyn Fn(&mut TcpStream) + 'a>;
    let cases: Vec<(&str, Sabotage)> = vec![
        (
            "length-lying frame header",
            Box::new(|s| {
                hello(s);
                let mut header = Vec::new();
                header.extend_from_slice(&MAGIC.to_be_bytes());
                header.push(PROTOCOL_VERSION);
                header.push(estimate.encode().0);
                header.extend_from_slice(&8u64.to_be_bytes());
                header.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
                s.write_all(&header).expect("send header");
            }),
        ),
        (
            "garbage payload",
            Box::new(|s| {
                hello(s);
                write_frame_corr(s, 8, estimate.encode().0, &[0xFF; 11]).expect("send frame");
            }),
        ),
        ("non-Hello opening frame", Box::new(|s| send(s, &estimate))),
        (
            "engine-only request kind",
            Box::new(|s| {
                hello(s);
                send(
                    s,
                    &Message::SearchDocs {
                        query: "database".to_string(),
                        threshold: 0.0,
                    },
                );
            }),
        ),
    ];

    for (label, sabotage) in &cases {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        sabotage(&mut stream);
        let reply =
            read_frame(&mut stream).unwrap_or_else(|e| panic!("{label}: no reply frame ({e})"));
        match Message::decode(reply.kind, &reply.payload) {
            Ok(Message::Error { detail }) => assert!(!detail.is_empty(), "{label}: empty detail"),
            other => panic!("{label}: expected a typed Error, got {other:?}"),
        }
        let after = read_frame(&mut stream).expect_err("connection must close after the error");
        assert_eq!(
            after.kind,
            TransportErrorKind::ConnectionLost,
            "{label}: connection left open ({after})"
        );

        let fresh = RemoteReplica::new(server.addr()).expect("dial replica");
        fresh
            .ping()
            .unwrap_or_else(|e| panic!("{label}: ping after sabotage: {e}"));
        let estimates = fresh
            .estimate_subset("database query", 0.1, std::slice::from_ref(name))
            .unwrap_or_else(|e| panic!("{label}: estimate after sabotage: {e}"));
        assert_eq!(estimates.len(), 1, "{label}");
    }
}
