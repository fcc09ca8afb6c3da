//! `select-wide`: one in-process broker over a few hundred mid-sized
//! engines of overlapping topics, driven closed-loop with queries that
//! never repeat. Estimation and the registry walk do most of the work;
//! the network does none, and the cache serves nothing.

use crate::drive::{closed_loop, closed_loop_segments, report_segments, Op};
use crate::layers::{self, Probe, SubrangeBroker};
use crate::quality::{add_quality, distinct_queries};
use crate::report::Report;
use crate::stats::Samples;
use crate::{Ctx, THRESHOLD};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seu_core::SubrangeEstimator;
use seu_corpus::{CollectionSpec, SyntheticCorpus};
use seu_engine::SearchEngine;
use seu_metasearch::{merge_results, Broker, CacheMode, MergedHit, SearchRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ENGINES: usize = 300;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const DOCS: usize = 80;
/// Distinct queries generated for the stream: more than two clients
/// complete in the longest window.
const STREAM: usize = 40_000;
const WARMUP: usize = 200;
const QUALITY_SAMPLE: usize = 300;
const CHECKED: usize = 20;

/// Engines of 2–4 topics each from the standard 53-topic universe. The
/// topic layout is fixed, so every topic is covered by about as many
/// engines under every seed; the seed draws the documents.
pub fn engines(seed: u64) -> Vec<(String, Arc<SearchEngine>)> {
    let corpus = SyntheticCorpus::standard();
    let n_topics = corpus.universe().config().n_topics;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005e_1ec7);
    (0..ENGINES)
        .map(|i| {
            let topics: Vec<usize> = (0..2 + i % 3)
                .map(|k| (i * 3 + k * 17) % n_topics)
                .collect();
            let spec = CollectionSpec {
                name: format!("sw{i:03}"),
                n_docs: DOCS,
                topics,
                seed: rng.gen::<u64>(),
            };
            let engine = SearchEngine::new(corpus.generate_collection(&spec));
            (spec.name, Arc::new(engine))
        })
        .collect()
}

fn request(q: &str) -> SearchRequest {
    SearchRequest::new(q).threshold(THRESHOLD)
}

/// Whether the broker's reply equals searching its selected engines
/// directly and merging, to the bit.
fn dispatch_matches(broker: &SubrangeBroker, q: &str) -> bool {
    let req = request(q).cache(CacheMode::Bypass);
    let plan = broker.plan(&req, None);
    let lists: Vec<Vec<MergedHit>> = plan
        .selected
        .iter()
        .filter_map(|&i| {
            let pe = &plan.engines()[i];
            let engine = pe.engine()?;
            Some(
                engine
                    .search_threshold(pe.query(), THRESHOLD)
                    .into_iter()
                    .map(|h| MergedHit {
                        engine: pe.name.clone(),
                        doc: engine.collection().doc(h.doc).name.clone(),
                        sim: h.sim,
                    })
                    .collect(),
            )
        })
        .collect();
    let expected = merge_results(lists);
    let got = broker.execute(&req).hits;
    got.len() == expected.len()
        && got.iter().zip(&expected).all(|(a, b)| {
            a.engine == b.engine && a.doc == b.doc && a.sim.to_bits() == b.sim.to_bits()
        })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let engines = engines(ctx.seed);
    let mut queries = distinct_queries(ctx.seed, STREAM + WARMUP);
    let warmup = queries.split_off(queries.len().saturating_sub(WARMUP));
    let sample = distinct_queries(ctx.seed ^ 0x9a11, QUALITY_SAMPLE);

    // Set-up is registration: representatives, term maps and the global
    // vocabulary, over engines whose indexes already exist.
    let mut setup_s = Samples::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let broker = Broker::builder(SubrangeEstimator::paper_six_subrange()).build();
        for (name, engine) in &engines {
            broker.register_shared(name, engine.clone());
        }
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some(Arc::new(broker));
    }
    let broker = built.expect("at least one set-up");
    for q in &warmup {
        broker.execute(&request(q));
    }
    for q in queries.iter().take(CHECKED) {
        report.attempted += 1;
        if !dispatch_matches(&broker, q) {
            report.failed += 1;
            report.mismatches += 1;
            report.note(format!(
                "mismatch: broker reply differs from direct search for {q:?}"
            ));
        }
    }

    let step = |offset: usize| {
        let (broker, queries) = (&broker, &queries);
        move |n: usize| {
            let q = queries.get(n + offset)?;
            let t = Instant::now();
            let response = broker.execute(&request(q));
            Some(Op {
                read_ms: Some(t.elapsed().as_secs_f64() * 1e3),
                failed: !response.is_complete(),
                tier: response.served_from,
                ..Op::default()
            })
        }
    };
    let clients = ctx.clients();
    if !ctx.trace {
        let segments = closed_loop_segments(clients, ctx.window(), 0, step);
        report.add("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
        report.add_pct("setup_s", &setup_s, 50.0, "s");
        let stream = report_segments(segments, &mut report);
        add_quality(&broker, &sample, &mut report);
        if stream.issued >= queries.len() {
            report.note("the query stream ran out before the window ended");
        }
        return Ok(report);
    }

    let base = closed_loop(clients, ctx.window(), step(0));
    let (traced, spans) = layers::traced_window(
        || closed_loop(clients, ctx.window(), step(base.issued)),
        || layers::cache_state(&broker),
        &mut report,
    );
    layers::add_generator_metrics(&base, &traced, &mut report);
    let probe_spans = layers::probe(
        &Probe {
            broker: &broker,
            queries: &sample,
            budget: Duration::from_secs(3),
            front_door: None,
            admin: None,
            store_dir: Some(ctx.work_dir.clone()),
        },
        &mut report,
    )?;
    layers::finish(
        &spans,
        &probe_spans,
        &ctx.spans_dir.join("select-wide.tsv"),
        &mut report,
    )?;
    Ok(report)
}
