//! Text-pipeline throughput: tokenizer, stopword filter, Porter stemmer,
//! full analyzer, and storage (de)serialization of an indexed collection.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use seu_bench::fixture;
use seu_engine::Collection;
use seu_text::{porter_stem, tokenize, Analyzer, AnalyzerConfig};
use std::hint::black_box;

const SAMPLE: &str = "Estimating the usefulness of search engines requires a \
statistical method that identifies potentially useful databases for a given \
query without searching the documents themselves; the representative stores \
probabilities average weights standard deviations and maximum normalized \
weights for every distinct term in the collection";

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("text_pipeline");
    group.throughput(Throughput::Bytes(SAMPLE.len() as u64));
    group.bench_function("tokenize", |b| {
        b.iter(|| tokenize(black_box(SAMPLE)).count())
    });
    let plain = Analyzer::new(AnalyzerConfig {
        remove_stopwords: true,
        stem: false,
    });
    group.bench_function("analyze_stopwords", |b| {
        b.iter(|| plain.analyze(black_box(SAMPLE)).len())
    });
    let stemming = Analyzer::new(AnalyzerConfig {
        remove_stopwords: true,
        stem: true,
    });
    group.bench_function("analyze_stopwords_stem", |b| {
        b.iter(|| stemming.analyze(black_box(SAMPLE)).len())
    });
    group.finish();

    let words: Vec<&str> = SAMPLE.split_whitespace().collect();
    c.bench_function("porter_stem_per_word", |b| {
        b.iter(|| {
            words
                .iter()
                .map(|w| porter_stem(&w.to_lowercase()).len())
                .sum::<usize>()
        })
    });
}

fn bench_storage(c: &mut Criterion) {
    let f = fixture(761, 1, 1, 31);
    let bytes = f.collection.to_bytes();
    let mut group = c.benchmark_group("collection_storage");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("serialize_761_docs", |b| {
        b.iter(|| f.collection.to_bytes().len())
    });
    group.bench_function("deserialize_761_docs", |b| {
        b.iter(|| {
            Collection::from_bytes(black_box(&bytes[..]))
                .expect("valid")
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_storage);
criterion_main!(benches);
