//! Broker-level costs: selection, dispatch, allocation, many-database
//! ranking, hierarchy summarization.

use criterion::{criterion_group, criterion_main, Criterion};
use seu_bench::fixture;
use seu_core::SubrangeEstimator;
use seu_corpus::many_databases;
use seu_engine::SearchEngine;
use seu_eval::ranking::{rank_databases, RankingFixture};
use seu_metasearch::{Broker, CacheMode, SearchRequest, SelectionPolicy};
use std::hint::black_box;

fn small_broker() -> Broker<SubrangeEstimator> {
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    for (i, seed) in [3u64, 5, 7].into_iter().enumerate() {
        let f = fixture(250, 2, 1, seed);
        broker.register(&format!("e{i}"), SearchEngine::new(f.collection));
    }
    broker
}

fn bench_selection(c: &mut Criterion) {
    let broker = small_broker();
    c.bench_function("broker_select_3_engines", |b| {
        b.iter(|| {
            broker
                .select(
                    black_box("tp0x120 tp1x77 bg42"),
                    0.15,
                    SelectionPolicy::EstimatedUseful,
                )
                .len()
        })
    });
    c.bench_function("broker_allocate_20_docs", |b| {
        b.iter(|| {
            broker
                .allocate_documents(black_box("tp0x120 bg42"), 20)
                .iter()
                .map(|a| a.k)
                .sum::<u64>()
        })
    });
    c.bench_function("broker_portable_summary", |b| {
        b.iter(|| broker.portable_summary().distinct_terms())
    });
}

fn bench_execute(c: &mut Criterion) {
    // Plan, dispatch and merge over the 53 local databases, with the
    // cache bypassed so every iteration runs the whole pipeline.
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    for (name, collection) in many_databases(11, 120) {
        broker.register(&name, SearchEngine::new(collection));
    }
    let requests: Vec<SearchRequest> = seu_corpus::SyntheticCorpus::standard()
        .generate_query_log(&seu_corpus::QueryLogSpec {
            n_queries: 32,
            single_term_fraction: 0.3,
            max_terms: 6,
            on_topic_prob: 0.65,
            seed: 29,
        })
        .into_iter()
        .map(|terms| {
            SearchRequest::new(terms.join(" "))
                .threshold(0.15)
                .policy(SelectionPolicy::EstimatedUseful)
                .cache(CacheMode::Bypass)
        })
        .collect();
    let mut next = requests.iter().cycle();
    c.bench_function("broker_execute", |b| {
        b.iter(|| broker.execute(black_box(next.next().unwrap())).hits.len())
    });
}

fn bench_ranking(c: &mut Criterion) {
    // A scaled-down E11: 12 databases, 100 queries.
    let dbs: Vec<_> = many_databases(11, 120).into_iter().take(12).collect();
    let fixture = RankingFixture::new(dbs);
    let queries: Vec<Vec<String>> =
        seu_corpus::SyntheticCorpus::standard().generate_query_log(&seu_corpus::QueryLogSpec {
            n_queries: 100,
            single_term_fraction: 0.3,
            max_terms: 6,
            on_topic_prob: 0.65,
            seed: 23,
        });
    let mut group = c.benchmark_group("ranking");
    group.sample_size(10);
    group.bench_function("rank_12_databases_100_queries", |b| {
        b.iter(|| rank_databases(&fixture, &queries, black_box(0.15), &[1, 5]).len())
    });
    group.finish();
}

criterion_group!(benches, bench_selection, bench_execute, bench_ranking);
criterion_main!(benches);
