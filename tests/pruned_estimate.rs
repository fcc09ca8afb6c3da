//! The threshold-pruned exact expansion behind `SubrangeEstimator::estimate`
//! must agree with the full expansion behind `estimate_sweep` on the
//! paper's workload: D1 under the paper's query log, at the paper's
//! thresholds 0.1 … 0.6.

use seu::core::{SubrangeEstimator, UsefulnessEstimator};
use seu::corpus::paper_datasets;
use seu::eval::runner::query_from_tokens;
use seu::poly::SparsePoly;
use seu::repr::Representative;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// `Σ a_i b_i / Σ a_i` above `t` of the product expanded without epsilon
/// merging (only bit-equal exponents merge), multiplied in the same
/// smallest-first order as `SparsePoly::product`.
fn unmerged_avg_sim(factors: &[Vec<(f64, f64)>], t: f64) -> f64 {
    let mut polys: Vec<SparsePoly> = factors
        .iter()
        .map(|f| SparsePoly::spike_factor(f.iter().copied()))
        .collect();
    polys.sort_by_key(SparsePoly::len);
    let one = SparsePoly::from_terms_with_eps([(0.0, 1.0)], 0.0);
    polys
        .iter()
        .fold(one, |acc, f| acc.mul(f))
        .tail_above(t)
        .avg_exponent()
}

#[test]
fn pruned_estimate_matches_full_sweep_on_d1() {
    let ds = paper_datasets(42);
    let repr = Representative::build(&ds.d1);
    let thresholds = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
    let (mut compared, mut merge_shifted) = (0, 0);
    for est in [
        SubrangeEstimator::paper_six_subrange(),
        SubrangeEstimator::paper_triplet(),
    ] {
        for tokens in &ds.queries {
            let query = query_from_tokens(&ds.d1, tokens);
            if query.is_empty() {
                continue;
            }
            let sweep = est.estimate_sweep(&repr, &query, &thresholds);
            for (&t, full) in thresholds.iter().zip(&sweep) {
                let pruned = est.estimate(&repr, &query, t);
                let context = || format!("{} {tokens:?} t={t}: {pruned:?} vs {full:?}", est.name());
                assert!(close(pruned.no_doc, full.no_doc), "{}", context());
                compared += 1;
                if close(pruned.avg_sim, full.avg_sim) {
                    continue;
                }
                // The full expansion merges exponents within 1e-9 and keeps
                // the lower one, which can shift its AvgSim by more than
                // 1e-12; the pruned tail must then match the unmerged
                // product instead.
                let exact = unmerged_avg_sim(&est.factors(&repr, &query), t);
                assert!(close(pruned.avg_sim, exact), "{} vs {exact}", context());
                merge_shifted += 1;
            }
        }
    }
    assert!(compared > 10_000, "only {compared} comparisons");
    assert!(
        merge_shifted * 1000 < compared,
        "{merge_shifted} of {compared}"
    );
}
