//! Query-cache integration: cached responses are bit-identical to cold
//! ones, every lifecycle event invalidates (epoch-in-key, never served
//! stale), per-request cache modes behave, and the cache-key
//! fingerprint never collides for distinct request identities.

use seu_core::SubrangeEstimator;
use seu_corpus::many_databases;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{Broker, CacheMode, CacheTier, SearchRequest, SelectionPolicy};
use seu_text::Analyzer;

fn engine_from(texts: &[&str]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, t) in texts.iter().enumerate() {
        b.add_document(&format!("doc{i}"), t);
    }
    SearchEngine::new(b.build())
}

fn two_engine_broker() -> Broker<SubrangeEstimator> {
    let b = Broker::new(SubrangeEstimator::paper_six_subrange());
    b.register(
        "cooking",
        engine_from(&["mushroom soup with cream", "baking sourdough bread"]),
    );
    b.register(
        "databases",
        engine_from(&["relational databases and query planning"]),
    );
    b
}

/// Two responses agree to the last bit: same hit order, `to_bits`-equal
/// similarities and estimates, same selections.
fn assert_bit_identical(
    want: &seu_metasearch::SearchResponse,
    got: &seu_metasearch::SearchResponse,
    ctx: &str,
) {
    assert_eq!(want.hits.len(), got.hits.len(), "{ctx}: hit count");
    for (w, g) in want.hits.iter().zip(&got.hits) {
        assert_eq!((&w.engine, &w.doc), (&g.engine, &g.doc), "{ctx}");
        assert_eq!(w.sim.to_bits(), g.sim.to_bits(), "{ctx}: sim for {}", w.doc);
    }
    assert_eq!(
        want.estimates.len(),
        got.estimates.len(),
        "{ctx}: estimate count"
    );
    for (w, g) in want.estimates.iter().zip(&got.estimates) {
        assert_eq!(w.engine, g.engine, "{ctx}");
        assert_eq!(
            w.usefulness.no_doc.to_bits(),
            g.usefulness.no_doc.to_bits(),
            "{ctx}: NoDoc for {}",
            w.engine
        );
        assert_eq!(
            w.usefulness.avg_sim.to_bits(),
            g.usefulness.avg_sim.to_bits(),
            "{ctx}: AvgSim for {}",
            w.engine
        );
    }
    assert_eq!(want.selected(), got.selected(), "{ctx}");
}

/// The acceptance bar: on the paper's 53-database workload a response
/// served from the results tier is bit-identical to the forced-cold
/// (`Bypass`) execution of the same request.
#[test]
fn cached_responses_are_bit_identical_to_cold_on_the_paper_workload() {
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    for (name, collection) in many_databases(7, 6) {
        broker.register(&name, SearchEngine::new(collection));
    }

    for (query, threshold) in [
        ("topic00 topic00term1 topic00term2", 0.2),
        ("topic05term1 topic12term1", 0.1),
        ("topic25term0 background words", 0.05),
        ("completely unknown zebra terms", 0.1),
    ] {
        let req = SearchRequest::new(query)
            .threshold(threshold)
            .with_estimates(true);

        let cold = broker.execute(&req.clone().cache(CacheMode::Bypass));
        assert_eq!(cold.served_from, None, "{query}: bypass must stay cold");

        // Populate, then serve from the results tier.
        let warm = broker.execute(&req);
        let served = broker.execute(&req);
        assert_eq!(
            served.served_from,
            Some(CacheTier::Results),
            "{query}: repeat must hit the results tier"
        );

        assert_bit_identical(&cold, &warm, query);
        assert_bit_identical(&cold, &served, query);
    }

    let stats = broker.cache_stats().expect("cache is on by default");
    assert!(stats.hits > 0, "{stats:?}");
    assert!(stats.bytes_resident > 0, "{stats:?}");
    assert!(
        stats.bytes_resident <= stats.budget_bytes,
        "resident {} exceeds budget {}",
        stats.bytes_resident,
        stats.budget_bytes
    );
}

/// A representative refresh bumps the registry epoch; the epoch lives
/// in every cache key, so the warm entry must never be served again —
/// and the post-refresh response matches a never-cached broker bit for
/// bit.
#[test]
fn refresh_invalidates_every_cached_tier() {
    let b = two_engine_broker();
    let req = SearchRequest::new("mushroom soup")
        .threshold(0.05)
        .with_estimates(true);

    let _ = b.execute(&req);
    assert_eq!(b.execute(&req).served_from, Some(CacheTier::Results));

    assert!(b.refresh_representative("cooking"));
    let after = b.execute(&req);
    assert_eq!(
        after.served_from, None,
        "epoch bump must force a cold pass through every tier"
    );
    let reference = two_engine_broker();
    // Align the reference registry with the refreshed one.
    assert!(reference.refresh_representative("cooking"));
    assert_bit_identical(
        &reference.execute(&req.clone().cache(CacheMode::Bypass)),
        &after,
        "post-refresh",
    );

    // The eager purge dropped the stale entries rather than letting
    // them age out of the byte budget.
    let stats = b.cache_stats().unwrap();
    assert!(stats.stale_evictions > 0, "{stats:?}");

    // And the cache re-warms at the new epoch.
    assert_eq!(b.execute(&req).served_from, Some(CacheTier::Results));
}

/// `update_representative` is a lifecycle event like any other: pushing
/// a representative (the PR-5 push-invalidation path) must stop the
/// warm entry from being served.
#[test]
fn pushed_representative_update_invalidates() {
    let b = two_engine_broker();
    let req = SearchRequest::new("sourdough bread").threshold(0.05);
    let _ = b.execute(&req);
    assert_eq!(b.execute(&req).served_from, Some(CacheTier::Results));

    let repr = seu_repr::Representative::build(
        engine_from(&["mushroom soup with cream", "baking sourdough bread"]).collection(),
    );
    assert!(b.update_representative("cooking", repr));
    assert_eq!(
        b.execute(&req).served_from,
        None,
        "a pushed representative must invalidate the warm entry"
    );
}

/// The PR-5 mid-replacement window: after `replace_engine` the entry is
/// sidelined (representative and collection disagree) until a refresh.
/// The warm pre-replacement response — which still carries the old
/// engine's hits — must not be served anywhere in that window.
#[test]
fn replacement_window_is_never_served_from_cache() {
    let b = two_engine_broker();
    let req = SearchRequest::new("mushroom soup with cream sourdough")
        .threshold(0.0)
        .policy(SelectionPolicy::All);

    let warm = b.execute(&req);
    assert!(warm.hits.iter().any(|h| h.engine == "cooking"));
    assert_eq!(b.execute(&req).served_from, Some(CacheTier::Results));

    // The replacement has a far smaller vocabulary; mid-window the
    // entry contributes nothing.
    assert!(b.replace_engine("cooking", engine_from(&["soup"])));
    let mid = b.execute(&req);
    assert_eq!(mid.served_from, None, "stale epoch served mid-replacement");
    assert!(
        mid.hits.iter().all(|h| h.engine != "cooking"),
        "sidelined engine leaked cached hits: {:?}",
        mid.hits
    );

    // Reconciling bumps the epoch again: still no stale serve, and the
    // replacement's document is retrievable.
    assert_eq!(b.refresh_if_stale(), vec!["cooking".to_string()]);
    let fresh = b.execute(&req);
    assert_eq!(fresh.served_from, None);
    assert!(
        fresh.hits.iter().any(|h| h.engine == "cooking"),
        "{:?}",
        fresh.hits
    );
    assert_eq!(b.execute(&req).served_from, Some(CacheTier::Results));
}

/// `ReadOnly` may serve but never populates; `Bypass` does neither.
#[test]
fn cache_modes_gate_reads_and_writes() {
    let b = two_engine_broker();
    let req = SearchRequest::new("query planning").threshold(0.05);

    // ReadOnly on a cold cache: nothing to serve, nothing inserted.
    assert_eq!(
        b.execute(&req.clone().cache(CacheMode::ReadOnly))
            .served_from,
        None
    );
    assert_eq!(
        b.execute(&req.clone().cache(CacheMode::ReadOnly))
            .served_from,
        None,
        "ReadOnly must not have populated the cache"
    );
    assert_eq!(b.cache_stats().unwrap().entries, 0);

    // ReadWrite populates; ReadOnly now serves without disturbing it.
    let _ = b.execute(&req);
    assert_eq!(
        b.execute(&req.clone().cache(CacheMode::ReadOnly))
            .served_from,
        Some(CacheTier::Results)
    );

    // Bypass ignores the warm entry but answers identically.
    let bypassed = b.execute(&req.clone().cache(CacheMode::Bypass));
    assert_eq!(bypassed.served_from, None);
    assert_bit_identical(&b.execute(&req), &bypassed, "bypass vs cached");

    // A zero-byte budget disables the cache wholesale.
    let off = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .cache_bytes(0)
        .build();
    off.register("solo", engine_from(&["mushroom soup"]));
    assert!(off.cache_stats().is_none());
    let r = SearchRequest::new("mushroom soup").threshold(0.05);
    let _ = off.execute(&r);
    assert_eq!(off.execute(&r).served_from, None);
}

/// `explain` requests carry a trace of the real pipeline, so they must
/// never be served from (or admitted to) the result cache.
#[test]
fn explain_requests_stay_cold() {
    let b = two_engine_broker();
    let req = SearchRequest::new("mushroom soup").threshold(0.05);
    let _ = b.execute(&req);
    assert_eq!(b.execute(&req).served_from, Some(CacheTier::Results));

    let explained = b.execute(&req.clone().explain(true));
    assert_eq!(explained.served_from, None, "explain must run cold");
    assert!(explained.trace.is_some(), "explain must carry its trace");
}

mod fingerprint_props {
    use proptest::prelude::*;
    use seu_metasearch::{CacheKey, SearchRequest, SelectionPolicy};
    use std::collections::HashMap;

    /// Random but realistic request identities. The vendored proptest
    /// caps tuples at arity 4, so the policy pick, `top_k`, and the
    /// estimate flag are all derived from two integer draws.
    fn requests() -> impl Strategy<Value = SearchRequest> {
        ("[a-z ]{1,24}", 0.0f64..1.0, 0usize..5, 1usize..16).prop_map(
            |(query, threshold, pick, k)| {
                let policy = match pick {
                    0 => SelectionPolicy::All,
                    1 => SelectionPolicy::EstimatedUseful,
                    2 => SelectionPolicy::TopK(k),
                    _ => SelectionPolicy::MinNoDoc(threshold * 0.5),
                };
                let mut req = SearchRequest::new(&query)
                    .threshold(threshold)
                    .policy(policy)
                    .with_estimates(k % 2 == 0);
                if pick == 4 {
                    req = req.top_k(k);
                }
                req
            },
        )
    }

    proptest! {
        /// Identity round-trip: the same request at the same epoch
        /// always produces an equal key with an equal fingerprint.
        #[test]
        fn fingerprint_is_deterministic(req in requests(), epoch in 0u64..1000) {
            for key in [
                CacheKey::analysis(&req.query, epoch),
                CacheKey::plan(&req, epoch),
                CacheKey::results(&req, epoch),
            ] {
                prop_assert_eq!(key.fingerprint(), key.clone().fingerprint());
                prop_assert_eq!(key.epoch(), epoch);
            }
            prop_assert_eq!(
                CacheKey::plan(&req, epoch).fingerprint(),
                CacheKey::plan(&req.clone(), epoch).fingerprint()
            );
        }

        /// Distinct identities never collide: across a batch of random
        /// requests and epochs, any two keys with equal fingerprints
        /// are the *same* key. (Equality is the authority; this pins
        /// down that the FNV router doesn't alias realistic keys.)
        #[test]
        fn distinct_keys_do_not_collide(
            reqs in prop::collection::vec((requests(), 0u64..4), 1..40)
        ) {
            let mut seen: HashMap<u64, CacheKey> = HashMap::new();
            for (req, epoch) in &reqs {
                for key in [
                    CacheKey::analysis(&req.query, *epoch),
                    CacheKey::plan(req, *epoch),
                    CacheKey::results(req, *epoch),
                ] {
                    if let Some(prev) = seen.get(&key.fingerprint()) {
                        prop_assert_eq!(prev, &key, "fingerprint collision");
                    }
                    seen.insert(key.fingerprint(), key);
                }
            }
        }

        /// The epoch always participates: bumping it changes the key
        /// (the whole invalidation mechanism) and, for these golden
        /// cases, the fingerprint too.
        #[test]
        fn epoch_always_changes_the_key(req in requests(), epoch in 0u64..1000) {
            let a = CacheKey::results(&req, epoch);
            let b = CacheKey::results(&req, epoch + 1);
            prop_assert_ne!(&a, &b);
            prop_assert_ne!(a.fingerprint(), b.fingerprint());
        }

        /// Threshold and shape fields separate plan/results identities.
        #[test]
        fn threshold_separates_plan_keys(req in requests(), epoch in 0u64..4) {
            let other = req.clone().threshold(req.threshold + 0.5);
            prop_assert_ne!(
                CacheKey::plan(&req, epoch),
                CacheKey::plan(&other, epoch)
            );
            let shaped = req.clone().with_estimates(!req.with_estimates);
            prop_assert_ne!(
                CacheKey::results(&req, epoch),
                CacheKey::results(&shaped, epoch)
            );
        }
    }
}
