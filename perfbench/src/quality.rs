//! Seeded query streams, and the paper's quality measures on a fixed
//! sample of them.

use crate::layers::SubrangeBroker;
use crate::report::Report;
use crate::stats::ratio;
use crate::THRESHOLD;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seu_corpus::queries::QueryLogSpec;
use seu_corpus::SyntheticCorpus;
use seu_eval::ThresholdRow;
use seu_metasearch::{CacheMode, SearchRequest, SelectionPolicy};
use std::collections::HashSet;

/// `n` distinct query texts drawn from the paper's SIFT-profile query
/// log, keeping its marginals: 30% single-term, the rest 2 to 6 terms.
/// Fewer come back if the single-term space runs out.
pub fn distinct_queries(seed: u64, n: usize) -> Vec<String> {
    let corpus = SyntheticCorpus::standard();
    let single_quota = (n as f64 * 0.3).round() as usize;
    let mut seen = HashSet::new();
    let (mut singles, mut multis) = (Vec::new(), Vec::new());
    for batch in 0..32u64 {
        if singles.len() >= single_quota && multis.len() >= n - single_quota {
            break;
        }
        let spec = QueryLogSpec {
            n_queries: n.max(1000),
            ..QueryLogSpec::paper_default(seed.wrapping_mul(0x9e37_79b9).wrapping_add(batch))
        };
        for terms in corpus.generate_query_log(&spec) {
            let text = terms.join(" ");
            if !seen.insert(text.clone()) {
                continue;
            }
            if terms.len() == 1 {
                if singles.len() < single_quota {
                    singles.push(text);
                }
            } else if multis.len() < n - single_quota {
                multis.push(text);
            }
        }
    }
    let mut out = singles;
    out.append(&mut multis);
    shuffle(&mut out, seed ^ 0x5eed);
    out
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Adds `match_rate` and `d_n` (the paper's measures, through the same
/// [`ThresholdRow`] the `repro tables-*` commands use) and `recall`: the
/// share of the above-threshold documents that `SelectionPolicy::All`
/// returns which the estimated-useful selection also returns. The truth
/// comes from each engine's exact usefulness on the plan's own query
/// vector.
pub fn add_quality(broker: &SubrangeBroker, sample: &[String], report: &mut Report) {
    let mut row = ThresholdRow {
        threshold: THRESHOLD,
        ..ThresholdRow::default()
    };
    let (mut useful_hits, mut all_hits) = (0usize, 0usize);
    for q in sample {
        let req = SearchRequest::new(q.as_str())
            .threshold(THRESHOLD)
            .policy(SelectionPolicy::All)
            .cache(CacheMode::Bypass);
        let plan = broker.plan(&req, None);
        for pe in plan.engines() {
            let engine = pe
                .engine()
                .expect("quality is measured on a broker of local engines");
            let truth = engine.true_usefulness(pe.query(), THRESHOLD);
            row.record(
                truth.no_doc,
                truth.avg_sim,
                pe.usefulness.no_doc_rounded(),
                pe.usefulness.avg_sim,
            );
        }
        all_hits += broker.execute(&req).hits.len();
        useful_hits += broker
            .execute(&req.clone().policy(SelectionPolicy::EstimatedUseful))
            .hits
            .len();
    }
    report.add("match_rate", row.match_rate(), "share");
    report.add("d_n", row.d_n(), "docs");
    report.add(
        "recall",
        ratio(useful_hits as f64, all_hits as f64),
        "share",
    );
    report.note(format!(
        "quality: {} queries, {} useful (query, engine) pairs, {} matched, {} mismatched",
        sample.len(),
        row.u,
        row.matches,
        row.mismatches
    ));
}
