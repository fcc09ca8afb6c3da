//! Remote engines: the transport abstraction the broker dispatches to
//! when an engine lives in another process.
//!
//! The paper's architecture *assumes* broker and engines are separate
//! systems exchanging only compact representatives and per-query results
//! (§1); this module is the broker-side half of making that literal. A
//! [`RemoteTransport`] is anything that can answer the three calls the
//! broker makes of an engine it cannot touch directly:
//!
//! * **search** — raw query text + threshold in, named scored hits out
//!   (the remote engine analyzes the text itself, with the same analyzer
//!   configuration the broker plans with, so results are identical to
//!   the in-process path);
//! * **true usefulness** — the oracle call the evaluation layer uses;
//! * **snapshot** — the engine's [`EngineSnapshot`]: its representative
//!   (at full f64 precision), vocabulary, and the three statistics query
//!   weighting consumes (scheme, document count, document frequencies).
//!   From these the broker forms per-engine query vectors and estimates
//!   **byte-identical** to an all-local broker over the same corpus.
//!
//! The concrete TCP transport lives in the `seu-net` crate
//! ([`RemoteTransport`] keeps `seu-metasearch` free of any networking);
//! tests implement the trait in-process.
//!
//! Remote entries shard by engine name exactly like local ones, and a
//! snapshot refetch replaces representative, term map, and weighting
//! statistics in one write — so a remote entry's planning metadata is
//! always internally consistent and never hits the mid-propagation
//! sidelining that protects locally replaced engines (see
//! `Broker::plan`).
//!
//! Failures are **typed**: every call returns a [`TransportError`] whose
//! [`TransportErrorKind`] distinguishes refused connections, deadline
//! misses, connections lost mid-frame, protocol violations, and errors
//! the remote side reported. Dispatch maps them into the per-engine
//! failure capture of [`SearchResponse`](crate::SearchResponse) instead
//! of failing the query.

use seu_engine::{weighted_query, Fingerprint, Query, TermMap, TrueUsefulness, WeightingScheme};
use seu_repr::{FrozenSummary, Representative};
use seu_text::{Analyzer, AnalyzerConfig, TermId, Vocabulary};
use std::sync::Arc;

/// Why a remote engine call failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportErrorKind {
    /// The connection could not be established (refused, unreachable,
    /// or connect deadline exceeded).
    Refused,
    /// The call did not complete within its deadline.
    Timeout,
    /// The connection dropped mid-exchange (e.g. the engine died between
    /// frames or mid-frame).
    ConnectionLost,
    /// The peer spoke the protocol wrong: bad magic, oversized or
    /// truncated frame, undecodable message, version mismatch.
    Protocol,
    /// The remote engine answered with a typed error of its own.
    Remote,
}

impl TransportErrorKind {
    /// Stable lowercase label (used in metrics and reports).
    pub fn label(&self) -> &'static str {
        match self {
            TransportErrorKind::Refused => "refused",
            TransportErrorKind::Timeout => "timeout",
            TransportErrorKind::ConnectionLost => "connection_lost",
            TransportErrorKind::Protocol => "protocol",
            TransportErrorKind::Remote => "remote",
        }
    }
}

/// A failed call to a remote engine: the kind plus human-readable
/// detail. Flows into [`EngineDispatchStats::error`]
/// (crate::EngineDispatchStats) so a response reports *why* an engine
/// contributed nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    /// What class of failure this was.
    pub kind: TransportErrorKind,
    /// Human-readable context (addresses, byte counts, io error text).
    pub detail: String,
}

impl TransportError {
    /// Convenience constructor.
    pub fn new(kind: TransportErrorKind, detail: impl Into<String>) -> Self {
        TransportError {
            kind,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.detail)
    }
}

impl std::error::Error for TransportError {}

/// One hit a remote engine returned: the document name (ids are
/// meaningless across processes) and its global similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteHit {
    /// Document name within the remote engine.
    pub doc: String,
    /// Global (cosine) similarity.
    pub sim: f64,
}

/// Everything the broker needs to plan for an engine it cannot touch:
/// the representative and vocabulary (for estimates and term mapping)
/// plus the query-weighting statistics and analyzer configuration (for
/// byte-identical query vectors).
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// The engine's advertised name.
    pub name: String,
    /// Analyzer configuration its documents were built with.
    pub analyzer: AnalyzerConfig,
    /// Weighting scheme of its collection.
    pub scheme: WeightingScheme,
    /// Number of documents in its collection.
    pub n_docs: u32,
    /// Per-term document frequency, indexed by the vocabulary's term id.
    pub doc_freq: Vec<u32>,
    /// Content fingerprint of the collection the snapshot describes.
    pub fingerprint: Fingerprint,
    /// The representative + vocabulary pair, id-aligned with `doc_freq`.
    pub summary: FrozenSummary,
}

impl EngineSnapshot {
    /// Builds the snapshot an engine server ships for a local engine:
    /// representative and vocabulary **id-aligned with the collection**
    /// (term ids, and therefore query vectors, match the in-process
    /// registration path exactly — unlike a frozen
    /// [`PortableRepresentative`](seu_repr::PortableRepresentative),
    /// which reorders terms lexicographically).
    pub fn of_engine(name: &str, engine: &seu_engine::SearchEngine) -> EngineSnapshot {
        let c = engine.collection();
        EngineSnapshot {
            name: name.to_string(),
            analyzer: c.analyzer_config(),
            scheme: c.scheme(),
            n_docs: c.len() as u32,
            doc_freq: c.vocab().iter().map(|(id, _)| c.doc_freq(id)).collect(),
            fingerprint: engine.fingerprint(),
            summary: FrozenSummary {
                repr: Representative::build(c),
                vocab: c.vocab().clone(),
            },
        }
    }

    /// Whether the snapshot is internally consistent: `doc_freq` must
    /// cover exactly the vocabulary (one entry per term).
    pub fn is_consistent(&self) -> bool {
        self.doc_freq.len() == self.summary.vocab.len()
            && self.summary.repr.distinct_terms() == self.summary.vocab.len()
    }
}

/// The calls the broker makes of an engine in another process. The
/// concrete TCP client lives in `seu-net`; anything implementing this
/// trait can be registered via `Broker::register_remote`.
pub trait RemoteTransport: Send + Sync + std::fmt::Debug {
    /// Where the engine lives, for reports and error messages (e.g.
    /// `"127.0.0.1:41237"`).
    fn endpoint(&self) -> String;

    /// Searches the remote engine: it analyzes `query_text` with its own
    /// (identical) analyzer configuration and returns every document
    /// with similarity above `threshold`, best first.
    ///
    /// Passing `Some(ctx)` propagates trace context; the returned spans
    /// are whatever the remote side recorded under `ctx` (empty when
    /// `ctx` is `None` or the transport does not support tracing — an
    /// implementation is free to ignore the context entirely). seu-net's
    /// client carries the context over the wire and falls back
    /// transparently when the peer predates the traced message kind.
    fn search(
        &self,
        query_text: &str,
        threshold: f64,
        ctx: Option<&seu_obs::TraceContext>,
    ) -> Result<(Vec<RemoteHit>, Vec<seu_obs::SpanRecord>), TransportError>;

    /// The engine's exact usefulness for a query at a threshold — the
    /// oracle the evaluation compares estimates against.
    fn true_usefulness(
        &self,
        query_text: &str,
        threshold: f64,
    ) -> Result<TrueUsefulness, TransportError>;

    /// [`Self::true_usefulness`] for many queries at once, answers in
    /// request order. The default loops the per-query call; transports
    /// with a wire-level batch (the `seu-net` TCP client sends one
    /// `EstimateBatch` frame) override it to amortize round trips on
    /// oracle sweeps.
    fn true_usefulness_batch(
        &self,
        queries: &[String],
        threshold: f64,
    ) -> Result<Vec<TrueUsefulness>, TransportError> {
        queries
            .iter()
            .map(|q| self.true_usefulness(q, threshold))
            .collect()
    }

    /// Fetches the engine's current snapshot (representative, vocabulary,
    /// weighting statistics).
    fn fetch_snapshot(&self) -> Result<EngineSnapshot, TransportError>;
}

/// The broker-side planning state for one remote engine — the subset of
/// an [`EngineSnapshot`] that query planning consumes, kept behind `Arc`s
/// so plans stay self-contained when the registry moves on.
#[derive(Debug, Clone)]
pub struct RemoteMeta {
    /// Analyzer configuration (drives the shared-analysis pass).
    pub analyzer: AnalyzerConfig,
    /// Weighting scheme for query vectors.
    pub scheme: WeightingScheme,
    /// Collection size for query weighting.
    pub n_docs: u32,
    /// Per-term document frequency, id-aligned with `vocab`.
    pub doc_freq: Arc<Vec<u32>>,
    /// The engine's vocabulary (term-id space of its queries and
    /// representative).
    pub vocab: Arc<Vocabulary>,
    /// Fingerprint of the collection this metadata describes, as the
    /// engine reported it.
    pub fingerprint: Fingerprint,
}

impl RemoteMeta {
    /// Builds the planning state from a fetched snapshot.
    pub fn from_snapshot(snapshot: &EngineSnapshot) -> RemoteMeta {
        RemoteMeta {
            analyzer: snapshot.analyzer,
            scheme: snapshot.scheme,
            n_docs: snapshot.n_docs,
            doc_freq: Arc::new(snapshot.doc_freq.clone()),
            vocab: Arc::new(snapshot.summary.vocab.clone()),
            fingerprint: snapshot.fingerprint,
        }
    }

    fn doc_freq_of(&self, t: TermId) -> u32 {
        self.doc_freq.get(t.index()).copied().unwrap_or(0)
    }

    /// Builds the engine-local query vector from broker-global
    /// `(term, count)` pairs through the engine's [`TermMap`] — the
    /// remote twin of `Collection::query_from_shared`, byte-identical to
    /// what the engine's own collection would produce.
    pub fn query_from_shared(&self, global_tf: &[(u32, u32)], map: &TermMap) -> Query {
        weighted_query(
            self.scheme,
            self.n_docs,
            |t| self.doc_freq_of(t),
            map.to_local(global_tf),
        )
    }

    /// Builds the engine-local query vector directly from text — the
    /// fallback when the shared analysis pass did not cover this
    /// engine's analyzer configuration.
    pub fn query_from_text(&self, text: &str) -> Query {
        let mut tf: std::collections::HashMap<TermId, u32> = std::collections::HashMap::new();
        for token in Analyzer::new(self.analyzer).analyze(text) {
            if let Some(id) = self.vocab.get(&token) {
                *tf.entry(id).or_insert(0) += 1;
            }
        }
        weighted_query(self.scheme, self.n_docs, |t| self.doc_freq_of(t), tf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_engine::{CollectionBuilder, SearchEngine};
    use seu_repr::PortableRepresentative;

    fn engine(texts: &[&str]) -> SearchEngine {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        for (i, t) in texts.iter().enumerate() {
            b.add_document(&format!("d{i}"), t);
        }
        SearchEngine::new(b.build())
    }

    fn snapshot_of(name: &str, e: &SearchEngine) -> EngineSnapshot {
        EngineSnapshot::of_engine(name, e)
    }

    #[test]
    fn remote_meta_query_matches_collection_query() {
        let e = engine(&["apple banana apple", "banana cherry", "durian apple"]);
        let snapshot = snapshot_of("fruits", &e);
        assert!(snapshot.is_consistent());
        let meta = RemoteMeta::from_snapshot(&snapshot);

        let mut global = Vocabulary::new();
        global.intern("unrelated");
        let map_local = TermMap::build(&mut global, e.collection());
        let map_remote = TermMap::from_vocab(&mut global, &meta.vocab);

        for text in ["apple", "apple banana cherry", "zebra", ""] {
            let tokens = Analyzer::paper_default().analyze(text);
            let tf = seu_engine::shared::global_tf(&global, &tokens);
            let local = e.collection().query_from_shared(&tf, &map_local);
            let remote = meta.query_from_shared(&tf, &map_remote);
            assert_eq!(local, remote, "{text:?}");
            assert_eq!(meta.query_from_text(text), local, "{text:?} (direct)");
        }
    }

    #[test]
    fn transport_error_formats_kind_and_detail() {
        let e = TransportError::new(TransportErrorKind::Refused, "127.0.0.1:1 unreachable");
        assert_eq!(e.to_string(), "refused: 127.0.0.1:1 unreachable");
        assert_eq!(
            TransportErrorKind::ConnectionLost.label(),
            "connection_lost"
        );
    }

    #[test]
    fn inconsistent_snapshot_is_detected() {
        let e = engine(&["apple banana"]);
        let mut snapshot = snapshot_of("x", &e);
        snapshot.doc_freq.pop();
        assert!(!snapshot.is_consistent());
    }

    #[test]
    fn portable_summary_freeze_is_not_id_aligned_but_direct_build_is() {
        // Guard the invariant the snapshot relies on: shipping
        // `Representative::build` + the collection's own vocabulary keeps
        // term ids aligned with `doc_freq`, whereas a frozen
        // `PortableRepresentative` reorders terms lexicographically.
        let e = engine(&["zebra apple", "apple"]);
        let c = e.collection();
        let direct = snapshot_of("x", &e);
        assert_eq!(
            direct.summary.vocab.term(TermId(0)),
            c.vocab().term(TermId(0))
        );
        let frozen = PortableRepresentative::build(c).freeze();
        // Lexicographic: "apple" first, even though "zebra" was interned first.
        assert_eq!(frozen.vocab.term(TermId(0)), "apple");
    }
}
