//! Federation over the wire: the back-end [`ReplicaServer`] and the
//! front-door-side [`RemoteReplica`] client.
//!
//! `seu_metasearch::FrontDoor` speaks to its back-end broker replicas
//! through the [`ReplicaClient`] trait. In process that is
//! `LocalReplica`; this module makes the split literal with the same
//! frame protocol, listener and client pool the engine transport uses —
//! message kinds 17–25 of [`crate::wire`]:
//!
//! * **[`ReplicaServer`]** puts one broker on a socket as a federation
//!   replica: the engine server's event loop with a replica answer
//!   function. It answers subset estimates and subset searches for the
//!   engines it holds, and the engine-lifecycle orders (install /
//!   remove / export) the front-door's rebalance path sends. Installs
//!   that ship an [`EngineSnapshot`] hydrate planning state without
//!   re-registration; installs that name an engine endpoint make the
//!   replica dial the engine itself (a [`RemoteEngine`] transport), so
//!   its estimates stay **bit-identical** to every other replica's —
//!   both paths plan from the same shipped full-precision statistics.
//!   Every request but ping runs on the loop's worker pool, whose size
//!   ([`ServerConfig::workers`]) is the per-replica capacity model: the
//!   federated benchmark pins it to 1 so a 4-replica cluster has exactly
//!   4× the compute of one replica.
//! * **[`RemoteReplica`]** implements [`ReplicaClient`] over the same
//!   multiplexed connection pool as [`RemoteEngine`], so a front-door
//!   treats a process across the wire exactly like an in-process
//!   replica: same placement, same failover, same typed
//!   [`TransportError`] capture when the replica dies mid-dispatch.
//!
//! The module also wires [`FrontDoor`] into the HTTP admin server by
//! implementing [`BrokerAdmin`] for it, so `seu front-door` serves the
//! same `/healthz`, `/engines`, `/metrics`, and `/search` routes a
//! single broker does.

use crate::client::{unexpected, Pool, RemoteEngine, RemoteEngineConfig};
use crate::frame::io_error;
use crate::http::BrokerAdmin;
use crate::metrics::metrics;
use crate::server::{FrameServer, ServerConfig};
use crate::wire::Message;
use seu_core::UsefulnessEstimator;
use seu_metasearch::federation::{InstallSpec, LocalReplica, ReplicaClient, SubsetResults};
use seu_metasearch::{
    Broker, CacheStats, EngineEstimate, EngineSnapshot, EngineStatus, FrontDoor, RegistrySnapshot,
    SearchRequest, SearchResponse, TransportError, TransportErrorKind,
};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// One broker on a socket as a federation replica (kinds 17–25);
/// serving stops when dropped.
pub struct ReplicaServer {
    server: FrameServer,
}

impl ReplicaServer {
    /// Binds `addr` (port 0 for ephemeral) and serves `broker` as the
    /// replica advertised as `id`, with the default configuration.
    pub fn bind<E>(
        id: &str,
        broker: Arc<Broker<E>>,
        addr: impl ToSocketAddrs,
    ) -> Result<ReplicaServer, TransportError>
    where
        E: UsefulnessEstimator + Send + Sync + 'static,
    {
        ReplicaServer::bind_with(id, broker, addr, ServerConfig::default())
    }

    /// [`ReplicaServer::bind`] with explicit capacity and deadlines.
    pub fn bind_with<E>(
        id: &str,
        broker: Arc<Broker<E>>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<ReplicaServer, TransportError>
    where
        E: UsefulnessEstimator + Send + Sync + 'static,
    {
        let replica = LocalReplica::new(broker);
        let server = FrameServer::bind(
            id.to_string(),
            addr,
            config,
            Box::new(move |request| serve_message(&replica, request)),
        )
        .map_err(|e| io_error(&e, "binding replica"))?;
        Ok(ReplicaServer { server })
    }

    /// The advertised replica id.
    pub fn id(&self) -> &str {
        self.server.name()
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops accepting, severs every live connection (in-flight calls on
    /// them fail with [`TransportErrorKind::ConnectionLost`] on the
    /// caller's side), and joins the loop and its workers. This is the
    /// "kill a replica" primitive the fault-injection suite uses.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl std::fmt::Debug for ReplicaServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaServer")
            .field("id", &self.id())
            .field("addr", &self.addr())
            .finish()
    }
}

/// The replica's answer function (ping is answered by the loop itself).
fn serve_message<E>(replica: &LocalReplica<E>, message: Message) -> Option<Message>
where
    E: UsefulnessEstimator + Send + Sync + 'static,
{
    let reply = match message {
        Message::ReplicaEstimate {
            query,
            threshold,
            engines,
        } => replica
            .estimate_subset(&query, threshold, &engines)
            .map(|estimates| Message::ReplicaEstimates { estimates }),
        Message::ReplicaSearch {
            query,
            threshold,
            engines,
        } => replica.search_subset(&query, threshold, &engines).map(|r| {
            Message::ReplicaSearchResults {
                hits: r.hits,
                stats: r.stats,
            }
        }),
        Message::InstallEngine {
            name,
            snapshot,
            endpoint,
        } => install_engine(replica, &name, snapshot, endpoint)
            .map(|()| Message::InstallAck { name }),
        Message::RemoveEngine { name } => replica
            .remove_engine(&name)
            .map(|removed| Message::RemoveAck { removed }),
        Message::ExportEngine { name } => replica
            .export_engine(&name)
            .map(|snapshot| Message::Representative { snapshot }),
        _ => return None,
    };
    metrics().replica_requests.inc();
    Some(reply.unwrap_or_else(|e| Message::Error {
        detail: e.to_string(),
    }))
}

/// The replica-side install: idempotent on the name. A shipped snapshot
/// hydrates planning state directly (the rebalance path — no
/// re-registration round trip to the engine); when the engine also has
/// a live endpoint the replica dials it so searches dispatch. An
/// endpoint alone falls back to full remote registration (the replica
/// fetches the snapshot from the engine itself — same bytes, since the
/// engine serves its snapshot full-precision).
fn install_engine<E>(
    replica: &LocalReplica<E>,
    name: &str,
    snapshot: Option<EngineSnapshot>,
    endpoint: Option<String>,
) -> Result<(), TransportError>
where
    E: UsefulnessEstimator + Send + Sync + 'static,
{
    let broker = replica.broker();
    if broker.engine_names().iter().any(|n| n == name) {
        return Ok(());
    }
    match (snapshot, endpoint) {
        (Some(snapshot), endpoint) => {
            if snapshot.name != name {
                return Err(TransportError::new(
                    TransportErrorKind::Protocol,
                    format!(
                        "install for {name:?} shipped a snapshot of {:?}",
                        snapshot.name
                    ),
                ));
            }
            broker.install_snapshot(snapshot, None, endpoint.clone())?;
            if let Some(endpoint) = endpoint {
                let transport = RemoteEngine::new(endpoint.as_str())?;
                broker.attach_remote(Arc::new(transport))?;
            }
            Ok(())
        }
        (None, Some(endpoint)) => {
            let transport = RemoteEngine::new(endpoint.as_str())?;
            let registered = broker.register_remote(Arc::new(transport))?;
            if registered != name {
                broker.deregister(&registered);
                return Err(TransportError::new(
                    TransportErrorKind::Protocol,
                    format!("engine at {endpoint} advertises {registered:?}, not {name:?}"),
                ));
            }
            Ok(())
        }
        (None, None) => Err(TransportError::new(
            TransportErrorKind::Protocol,
            "install needs a snapshot or an endpoint",
        )),
    }
}

/// A [`ReplicaClient`] for a [`ReplicaServer`] across the wire: an
/// adaptor over the multiplexed connection pool [`RemoteEngine`] uses.
/// Clones share the pool. Calls get no retries beyond the pool's one
/// transparent redial of a stale connection, so failures surface as
/// typed [`TransportError`]s exactly when they happen (the front-door's
/// breaker and failover logic consumes them as-is).
#[derive(Clone)]
pub struct RemoteReplica {
    endpoint: String,
    pool: Arc<Pool>,
}

impl RemoteReplica {
    /// Creates a client for the replica at `addr` with default timeouts.
    /// Resolution happens here; connections are dialed lazily.
    pub fn new(
        addr: impl ToSocketAddrs + std::fmt::Display,
    ) -> Result<RemoteReplica, TransportError> {
        let config = RemoteEngineConfig {
            retries: 0,
            ..RemoteEngineConfig::default()
        };
        Ok(RemoteReplica {
            endpoint: addr.to_string(),
            pool: Arc::new(Pool::resolve(addr, config)?),
        })
    }

    /// The `host:port` this client dials.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }
}

impl std::fmt::Debug for RemoteReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteReplica")
            .field("endpoint", &self.endpoint)
            .finish()
    }
}

impl ReplicaClient for RemoteReplica {
    fn ping(&self) -> Result<(), TransportError> {
        match self.pool.call(&Message::Ping)? {
            Message::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    fn estimate_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Result<Vec<EngineEstimate>, TransportError> {
        match self.pool.call(&Message::ReplicaEstimate {
            query: query.to_string(),
            threshold,
            engines: engines.to_vec(),
        })? {
            Message::ReplicaEstimates { estimates } => Ok(estimates),
            other => Err(unexpected("ReplicaEstimates", &other)),
        }
    }

    fn search_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Result<SubsetResults, TransportError> {
        match self.pool.call(&Message::ReplicaSearch {
            query: query.to_string(),
            threshold,
            engines: engines.to_vec(),
        })? {
            Message::ReplicaSearchResults { hits, stats } => Ok(SubsetResults { hits, stats }),
            other => Err(unexpected("ReplicaSearchResults", &other)),
        }
    }

    fn install(&self, spec: &InstallSpec) -> Result<(), TransportError> {
        // In-process engine handles cannot cross the wire; ship their
        // snapshot instead (identical statistics, so estimates stay
        // bit-identical — the engine just cannot serve live searches
        // from that replica).
        use seu_metasearch::federation::EngineSource;
        let snapshot = match (&spec.snapshot, &spec.source) {
            (Some(snapshot), _) => Some(snapshot.clone()),
            (None, Some(EngineSource::Local(engine))) => {
                Some(EngineSnapshot::of_engine(&spec.name, engine))
            }
            _ => None,
        };
        let endpoint = spec
            .source
            .as_ref()
            .and_then(|s| s.endpoint())
            .map(String::from);
        if snapshot.is_none() && endpoint.is_none() {
            return Err(TransportError::new(
                TransportErrorKind::Protocol,
                "install needs a snapshot or an endpoint",
            ));
        }
        match self.pool.call(&Message::InstallEngine {
            name: spec.name.clone(),
            snapshot,
            endpoint,
        })? {
            Message::InstallAck { .. } => Ok(()),
            other => Err(unexpected("InstallAck", &other)),
        }
    }

    fn remove_engine(&self, name: &str) -> Result<bool, TransportError> {
        match self.pool.call(&Message::RemoveEngine {
            name: name.to_string(),
        })? {
            Message::RemoveAck { removed } => Ok(removed),
            other => Err(unexpected("RemoveAck", &other)),
        }
    }

    fn export_engine(&self, name: &str) -> Result<EngineSnapshot, TransportError> {
        match self.pool.call(&Message::ExportEngine {
            name: name.to_string(),
        })? {
            Message::Representative { snapshot } => Ok(snapshot),
            other => Err(unexpected("Representative", &other)),
        }
    }
}

impl BrokerAdmin for FrontDoor {
    fn engine_statuses(&self) -> Vec<EngineStatus> {
        FrontDoor::engine_statuses(self)
    }

    fn search(&self, request: &SearchRequest) -> SearchResponse {
        self.execute(request)
    }

    fn registry_snapshot(&self) -> RegistrySnapshot {
        FrontDoor::registry_snapshot(self)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        // The front-door owns no query cache; its replicas each run
        // their own.
        None
    }
}
