//! Document allocation: "how many documents to retrieve from each
//! engine".
//!
//! The paper criticizes rank-only selection methods because "a separate
//! method has to be used to convert these measures to the number of
//! documents to retrieve from each search engine". With NoDoc estimates
//! that *respond to the threshold*, allocation is direct: find the global
//! similarity level `T*` at which the engines are expected to jointly
//! hold the `k` requested documents, then ask each engine for its
//! estimated share above `T*`.
//!
//! The level is located by binary search over the estimators' (monotone,
//! step-shaped) NoDoc curves, so this works with *any*
//! [`UsefulnessEstimator`], not only the subrange method.

use crate::broker::Broker;
use crate::plan::QueryPlan;
use crate::registry::EngineHandle;
use crate::request::SearchRequest;
use crate::selection::SelectionPolicy;
use seu_core::UsefulnessEstimator;

/// One engine's slice of a document allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Engine name.
    pub engine: String,
    /// Documents to request from it.
    pub k: u64,
    /// The estimated NoDoc at the chosen global level (pre-rounding).
    pub estimated: f64,
}

impl<E: UsefulnessEstimator + Sync> Broker<E> {
    /// Splits a request for `k_total` documents across the registered
    /// engines according to their estimated usefulness curves.
    ///
    /// Engines with no expected contribution get `k = 0`. If the engines
    /// are not expected to hold `k_total` relevant documents at any
    /// positive similarity, everything they are expected to hold is
    /// allocated (the allocation sums to less than `k_total`).
    pub fn allocate_documents(&self, query_text: &str, k_total: u64) -> Vec<Allocation> {
        let plan = self.plan(
            &SearchRequest::new(query_text).policy(SelectionPolicy::All),
            None,
        );
        self.allocate_planned(&plan, k_total)
    }

    /// [`Broker::allocate_documents`] over an existing [`QueryPlan`]. The
    /// bisection sweeps ~50 thresholds; re-estimating the plan's query
    /// vectors means the query text is analyzed once, not once per probe.
    pub fn allocate_planned(&self, plan: &QueryPlan, k_total: u64) -> Vec<Allocation> {
        if plan.is_empty() || k_total == 0 {
            return plan
                .engines()
                .iter()
                .map(|e| Allocation {
                    engine: e.name.clone(),
                    k: 0,
                    estimated: 0.0,
                })
                .collect();
        }

        let total_at = |t: f64| -> f64 {
            self.reestimate(plan, t)
                .iter()
                .map(|e| e.usefulness.no_doc)
                .sum()
        };

        // Find the highest level t with total(t) >= k by bisection over
        // the monotone non-increasing step function total(·).
        let k = k_total as f64;
        let mut lo = 0.0f64; // total(lo) >= k, if anywhere
        let mut hi = 1.0f64;
        let feasible = total_at(0.0) >= k;
        if feasible {
            for _ in 0..50 {
                let mid = 0.5 * (lo + hi);
                if total_at(mid) >= k {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        }
        let level = if feasible { lo } else { 0.0 };

        // Per-engine shares at the chosen level. The level sits just
        // below a step of the (discontinuous) total curve, so the shares
        // can jointly exceed the request; scale them down proportionally
        // in that case.
        let estimates = self.reestimate(plan, level);
        let raw: Vec<f64> = estimates.iter().map(|e| e.usefulness.no_doc).collect();
        let total: f64 = raw.iter().sum();
        let target = if total <= 0.0 {
            0
        } else {
            k_total.min(total.ceil() as u64)
        };
        let scale = if total > k { k / total } else { 1.0 };
        let shares: Vec<f64> = raw.iter().map(|&s| s * scale).collect();
        let mut ks: Vec<u64> = shares.iter().map(|&s| s.floor() as u64).collect();

        // Distribute the remaining budget by largest fractional share.
        let assigned: u64 = ks.iter().sum();
        let budget = target.saturating_sub(assigned);
        if budget > 0 {
            let mut order: Vec<usize> = (0..shares.len()).collect();
            order.sort_by(|&a, &b| {
                let fa = shares[a] - shares[a].floor();
                let fb = shares[b] - shares[b].floor();
                fb.partial_cmp(&fa)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for i in order.into_iter().take(budget as usize) {
                if shares[i] > 0.0 {
                    ks[i] += 1;
                }
            }
        }

        estimates
            .into_iter()
            .zip(ks)
            .map(|(e, k)| Allocation {
                engine: e.engine,
                k,
                estimated: e.usefulness.no_doc,
            })
            .collect()
    }

    /// Allocated retrieval: splits the `k_total` budget across engines by
    /// estimated usefulness, fetches each engine's allocated top documents,
    /// merges by global similarity, and returns at
    /// most `k_total` documents.
    ///
    /// Compared with asking every engine for `k_total` documents and
    /// truncating, this transfers only ~`k_total` documents in total —
    /// the bandwidth argument of the paper's introduction.
    pub fn search_allocated(
        &self,
        query_text: &str,
        k_total: u64,
    ) -> Vec<crate::broker::MergedHit> {
        let plan = self.plan(
            &SearchRequest::new(query_text).policy(SelectionPolicy::All),
            None,
        );
        let allocation = self.allocate_planned(&plan, k_total);
        let per_engine: Vec<Vec<crate::broker::MergedHit>> = plan
            .engines()
            .iter()
            .zip(&allocation)
            .filter(|(_, a)| a.k > 0)
            .map(|(planned, a)| match &planned.handle {
                EngineHandle::Local(engine) => engine
                    .search_top_k(planned.query(), a.k as usize)
                    .into_iter()
                    .map(|h| crate::broker::MergedHit {
                        engine: planned.name.clone(),
                        doc: engine.collection().doc(h.doc).name.clone(),
                        sim: h.sim,
                    })
                    .collect(),
                // A remote engine has no top-k call on the wire; ask for
                // everything above the floor and keep its allocated share
                // (results arrive best first). A failed transport
                // contributes nothing, like a failed dispatch.
                EngineHandle::Remote { transport, .. } => transport
                    .search(&plan.query, 0.0, None)
                    .map(|(hits, _spans)| {
                        hits.into_iter()
                            .take(a.k as usize)
                            .map(|h| crate::broker::MergedHit {
                                engine: planned.name.clone(),
                                doc: h.doc,
                                sim: h.sim,
                            })
                            .collect()
                    })
                    .unwrap_or_default(),
                // A restored-but-unattached engine cannot be searched;
                // it contributes nothing, like a failed dispatch.
                EngineHandle::Detached { .. } => Vec::new(),
            })
            .collect();
        let mut merged = crate::merge::merge_results(per_engine);
        merged.truncate(k_total as usize);
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_core::SubrangeEstimator;
    use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
    use seu_text::Analyzer;

    fn engine(repeats: usize, filler: &str) -> SearchEngine {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        for i in 0..repeats {
            b.add_document(&format!("hit{i}"), "target topic words here");
        }
        for i in 0..4 {
            b.add_document(&format!("{filler}{i}"), filler);
        }
        SearchEngine::new(b.build())
    }

    fn broker() -> Broker<SubrangeEstimator> {
        let b = Broker::new(SubrangeEstimator::paper_six_subrange());
        b.register("rich", engine(12, "unrelated fluff"));
        b.register("mid", engine(4, "diverse padding"));
        b.register("empty", engine(0, "nothing relevant"));
        b
    }

    #[test]
    fn allocation_favors_richer_engines() {
        let b = broker();
        let alloc = b.allocate_documents("target topic", 10);
        let by = |n: &str| alloc.iter().find(|a| a.engine == n).unwrap().k;
        assert!(by("rich") > by("mid"), "{alloc:?}");
        assert_eq!(by("empty"), 0, "{alloc:?}");
        let total: u64 = alloc.iter().map(|a| a.k).sum();
        assert!(total <= 10);
        assert!(total >= 8, "should nearly fill the budget: {alloc:?}");
    }

    #[test]
    fn infeasible_request_allocates_what_exists() {
        let b = broker();
        let alloc = b.allocate_documents("target topic", 10_000);
        let total: u64 = alloc.iter().map(|a| a.k).sum();
        // 16 documents contain the terms across rich+mid.
        assert!(total <= 24, "{alloc:?}");
        assert!(total >= 10, "{alloc:?}");
    }

    #[test]
    fn zero_budget() {
        let b = broker();
        let alloc = b.allocate_documents("target topic", 0);
        assert!(alloc.iter().all(|a| a.k == 0));
        assert_eq!(alloc.len(), 3);
    }

    #[test]
    fn unknown_query_allocates_nothing() {
        let b = broker();
        let alloc = b.allocate_documents("zebra xylophone", 5);
        assert!(alloc.iter().all(|a| a.k == 0), "{alloc:?}");
    }

    #[test]
    fn allocated_search_returns_merged_budgeted_hits() {
        let b = broker();
        let hits = b.search_allocated("target topic", 8);
        assert!(hits.len() <= 8);
        assert!(hits.len() >= 6, "{hits:?}");
        // Sorted by similarity.
        for w in hits.windows(2) {
            assert!(w[0].sim >= w[1].sim);
        }
        // Hits come from the engines that hold matching documents.
        assert!(hits.iter().all(|h| h.engine != "empty"));
        // Nothing for a query nobody knows.
        assert!(b.search_allocated("zebra", 5).is_empty());
    }

    #[test]
    fn small_budget_goes_to_the_best_engine() {
        let b = broker();
        let alloc = b.allocate_documents("target topic", 1);
        let total: u64 = alloc.iter().map(|a| a.k).sum();
        assert_eq!(total, 1, "{alloc:?}");
        assert_eq!(
            alloc.iter().max_by_key(|a| a.k).unwrap().engine,
            "rich",
            "{alloc:?}"
        );
    }
}
