//! `seu-net`: the networked broker — remote engine transport, push
//! invalidation, and an HTTP admin/metrics server.
//!
//! The paper's metasearch architecture (Meng et al., ICDE 1999 §1) is a
//! broker *distinct from* the search engines it brokers: engines expose
//! only compact representatives and per-query results, and the broker
//! estimates usefulness from the representatives alone. Everything in
//! `seu-metasearch` keeps that split as an in-process abstraction; this
//! crate makes it literal with `std::net` TCP — no external
//! networking stack.
//!
//! One frame transport carries every broker↔node call: a single
//! readiness event loop ([`server`]) is the only listener that speaks
//! frames, and a single multiplexed connection pool ([`client`]) is the
//! only client. The pieces built on them:
//!
//! * **[`EngineServer`]** puts one [`SearchEngine`](seu_engine::SearchEngine)
//!   on a socket behind the event loop (one poll thread plus a small
//!   worker pool), serving search / true-usefulness (single or
//!   batched) / snapshot requests and pushing
//!   [invalidation notices](wire::Message::InvalidateNotice) to
//!   subscribed brokers when its collection changes.
//! * **[`RemoteEngine`]** is the broker-side client: it implements
//!   [`RemoteTransport`](seu_metasearch::RemoteTransport), so
//!   `Broker::register_remote` treats a process across the wire exactly
//!   like a local engine — same planning, same estimates (byte-identical,
//!   because snapshots ship full-precision f64 statistics), same
//!   dispatch, with transport failures captured per-engine instead of
//!   failing the query. Clones share a connection pool, and because
//!   every frame carries a correlation id, one connection pipelines
//!   many concurrent requests.
//! * **[`ReplicaServer`]** / **[`RemoteReplica`]** are the federation
//!   endpoints ([`federation`]) on the same loop and pool: a back-end
//!   broker on a socket serving subset estimates, subset searches, and
//!   engine-lifecycle orders for a [`FrontDoor`](seu_metasearch::FrontDoor), and the matching
//!   [`ReplicaClient`](seu_metasearch::ReplicaClient) the front-door
//!   dials — same placement, failover, and bit-identity guarantees as
//!   the in-process cluster.
//! * **[`AdminServer`]** is a minimal HTTP/1.1 server over a broker:
//!   `GET /metrics` (Prometheus exposition of the process-global
//!   [`seu_obs`] registry), `GET /healthz`, `GET /engines`,
//!   `POST /search` (with an inline span tree under `"explain"`), and
//!   `GET /traces` for retained request traces.
//!
//! The wire format is a length-prefixed binary framing ([`frame`]) with
//! a small fixed message vocabulary ([`wire`]); every length read off
//! the wire is validated before allocation, and malformed traffic
//! surfaces as typed
//! [`TransportError`](seu_metasearch::TransportError)s.
//!
//! # Loopback example
//!
//! ```
//! use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
//! use seu_metasearch::Broker;
//! use seu_net::{EngineServer, RemoteEngine};
//! use seu_core::SubrangeEstimator;
//! use seu_text::Analyzer;
//! use std::sync::Arc;
//!
//! let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
//! b.add_document("d0", "estimating search engine usefulness");
//! let server = EngineServer::bind("demo", SearchEngine::new(b.build()), "127.0.0.1:0").unwrap();
//!
//! let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
//! let client = RemoteEngine::new(server.addr()).unwrap();
//! let name = broker.register_remote(Arc::new(client)).unwrap();
//! assert_eq!(name, "demo");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod federation;
pub mod frame;
pub mod http;
mod metrics;
pub mod server;
mod timer;
pub mod wire;

pub use client::{RemoteEngine, RemoteEngineConfig, Subscription};
pub use federation::{RemoteReplica, ReplicaServer};
pub use http::{AdminServer, BrokerAdmin};
pub use metrics::register_metrics;
pub use server::{EngineServer, ServerConfig};

use seu_core::UsefulnessEstimator;
use seu_metasearch::{Broker, TransportError};
use std::sync::{Arc, Weak};

/// Registers a remote engine with `broker` **and** wires a push
/// subscription so collection changes on the engine side reach the
/// broker as [`Broker::apply_invalidation`] calls — no staleness sweep
/// required. Returns the advertised engine name and the live
/// [`Subscription`] (dropping it stops the push flow; the registration
/// stays).
///
/// The subscription holds only a [`Weak`] broker reference, so it never
/// keeps a dropped broker alive.
pub fn register_and_subscribe<E>(
    broker: &Arc<Broker<E>>,
    client: RemoteEngine,
) -> Result<(String, Subscription), TransportError>
where
    E: UsefulnessEstimator + Send + Sync + 'static,
{
    let name = broker.register_remote(Arc::new(client.clone()))?;
    let weak: Weak<Broker<E>> = Arc::downgrade(broker);
    let subscription = client.subscribe_with(move |name, fingerprint, _epoch| {
        if let Some(broker) = weak.upgrade() {
            let _ = broker.apply_invalidation(name, fingerprint);
        }
    })?;
    Ok((name, subscription))
}
