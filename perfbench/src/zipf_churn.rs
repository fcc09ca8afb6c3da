//! `zipf-churn`: reads and writes on the same layers. A store-backed
//! broker with its cache on serves a Zipf(1.1) stream over a pool of
//! distinct queries; every `WRITE_EVERY`-th request is a write that
//! replaces one engine's collection and refreshes, which rebuilds and
//! stores a representative and bumps the epoch, invalidating every cache
//! tier. Set-up is the restart path: restore and hydrate from a snapshot
//! committed beforehand, then attach the live engines.

use crate::drive::{closed_loop, closed_loop_segments, report_segments, Op};
use crate::layers::{self, Probe, SubrangeBroker};
use crate::quality::{add_quality, distinct_queries};
use crate::report::{Counters, Report};
use crate::stats::Samples;
use crate::{Ctx, THRESHOLD};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seu_core::SubrangeEstimator;
use seu_corpus::ZipfSampler;
use seu_engine::SearchEngine;
use seu_metasearch::{Broker, CacheMode, SearchRequest};
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DOCS_BASE: usize = 100;
/// Restarts per run; `setup_s` is their median. A restart takes tens of
/// milliseconds, so more of them than the other workloads' set-ups.
const SETUPS: usize = 15;
const POOL: usize = 2000;
const ZIPF_S: f64 = 1.1;
/// One request in this many is a write.
const WRITE_EVERY: usize = 100;
/// One cache-served read in this many is checked against a bypass.
const CHECK_EVERY: usize = 256;
/// Stream positions run before timing, so the cache is warm.
const WARMUP: usize = 4000;
const QUALITY_SAMPLE: usize = 2000;
/// Popularity orders of the query pool, and stream positions per order.
const ORDERS: usize = 16;
const EPOCH_READS: usize = 25_000;

fn open(dir: &Path) -> Result<SubrangeBroker, String> {
    Ok(Broker::builder(SubrangeEstimator::paper_six_subrange())
        .store(dir)
        .map_err(|e| e.to_string())?
        .build())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let store_err = |e: seu_metasearch::StoreError| e.to_string();
    // Two versions of every database; writes flip an engine between them.
    let versions: [Vec<(String, Arc<SearchEngine>)>; 2] =
        [ctx.seed, ctx.seed ^ 0x0a17].map(|seed| {
            seu_corpus::many_databases(seed, DOCS_BASE)
                .into_iter()
                .map(|(name, coll)| (name, Arc::new(SearchEngine::new(coll))))
                .collect()
        });
    let n_engines = versions[0].len();
    let pool = distinct_queries(ctx.seed, POOL);
    let sample = distinct_queries(ctx.seed ^ 0x9a11, QUALITY_SAMPLE);
    let sampler = ZipfSampler::new(pool.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x21bf);
    // Zipf ranks, mapped to queries through a popularity order that
    // changes every `EPOCH_READS` positions: which queries are hot then
    // varies within a run, not only between seeds.
    let orders: Vec<Vec<u32>> = (0..ORDERS as u64)
        .map(|k| {
            let mut order: Vec<u32> = (0..pool.len() as u32).collect();
            crate::quality::shuffle(&mut order, ctx.seed ^ (k << 32));
            order
        })
        .collect();
    let stream: Vec<u32> = (0..(ctx.seconds * 100_000.0) as usize + WARMUP)
        .map(|n| orders[(n / EPOCH_READS) % ORDERS][sampler.sample(&mut rng)])
        .collect();

    // The snapshot the restart path restores, committed outside the
    // timed set-up.
    let dir = ctx.work_dir.join("store");
    let mut snapshot_ms = Samples::new();
    {
        let writer = open(&dir)?;
        for (name, engine) in &versions[0] {
            writer.register_shared(name, engine.clone());
        }
        for _ in 0..SETUPS {
            let t = Instant::now();
            writer.snapshot_registry().map_err(store_err)?;
            snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    let (mut setup_s, mut restore_ms) = (Samples::new(), Samples::new());
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let live: Vec<SearchEngine> = versions[0].iter().map(|(_, e)| (**e).clone()).collect();
        let t = Instant::now();
        let broker = open(&dir)?;
        broker.restore().map_err(store_err)?;
        broker.hydrate();
        restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for ((name, _), engine) in versions[0].iter().zip(live) {
            if !broker.attach_engine(name, engine) {
                return Err(format!("no restored entry for {name}"));
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some(Arc::new(broker));
    }
    let broker = built.expect("at least one set-up");
    if !ctx.trace {
        add_quality(&broker, &sample, &mut report);
    }

    let current: Vec<AtomicU8> = (0..n_engines).map(|_| AtomicU8::new(0)).collect();
    let step = |offset: usize| {
        let (broker, pool, stream, versions, current) =
            (&broker, &pool, &stream, &versions, &current);
        move |n: usize| {
            let n = n + offset;
            if n % WRITE_EVERY == WRITE_EVERY - 1 {
                let i = (n / WRITE_EVERY * 7) % n_engines;
                let v = usize::from(current[i].fetch_xor(1, Ordering::SeqCst) ^ 1);
                let (name, engine) = &versions[v][i];
                let engine = (**engine).clone();
                let t = Instant::now();
                broker.replace_engine(name, engine);
                broker.refresh_if_stale();
                return Some(Op {
                    write_ms: Some(t.elapsed().as_secs_f64() * 1e3),
                    ..Op::default()
                });
            }
            let q = &pool[stream[n % stream.len()] as usize];
            let req = SearchRequest::new(q.as_str()).threshold(THRESHOLD);
            let epoch = broker.registry_epoch();
            let t = Instant::now();
            let response = broker.execute(&req);
            let read_ms = t.elapsed().as_secs_f64() * 1e3;
            let mut mismatch = false;
            if response.served_from.is_some() && n.is_multiple_of(CHECK_EVERY) {
                let cold = broker.execute(&req.cache(CacheMode::Bypass));
                mismatch = broker.registry_epoch() == epoch
                    && (cold.hits.len() != response.hits.len()
                        || cold.hits.iter().zip(&response.hits).any(|(a, b)| {
                            a.engine != b.engine
                                || a.doc != b.doc
                                || a.sim.to_bits() != b.sim.to_bits()
                        }));
            }
            Some(Op {
                read_ms: Some(read_ms),
                failed: !response.is_complete(),
                mismatch,
                tier: response.served_from,
                ..Op::default()
            })
        }
    };
    let clients = ctx.clients();
    for n in 0..WARMUP {
        step(0)(n);
    }
    if !ctx.trace {
        let segments = closed_loop_segments(clients, ctx.window(), WARMUP, step);
        report.add("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
        report.add_pct("setup_s", &setup_s, 50.0, "s");
        let s = report_segments(segments, &mut report);
        report.note(format!(
            "write_p50_ms = {:.6} ms (n={})",
            s.writes.p50(),
            s.writes.len()
        ));
        let served: u64 = s.tiers.iter().sum();
        report.note(format!(
            "reads served from cache: {:.1}% (analysis {}, plan {}, results {} of {} reads), {} writes",
            100.0 * crate::stats::ratio(served as f64, s.reads.len() as f64),
            s.tiers[0],
            s.tiers[1],
            s.tiers[2],
            s.reads.len(),
            s.writes.len()
        ));
        return Ok(report);
    }

    let base = closed_loop(clients, ctx.window(), step(WARMUP));
    let offset = WARMUP + base.issued;
    let before = Counters::now();
    let (traced, spans) = layers::traced_window(
        || closed_loop(clients, ctx.window(), step(offset)),
        || layers::cache_state(&broker),
        &mut report,
    );
    let puts = before.delta(&Counters::now(), "broker_store_writes_total");
    layers::add_generator_metrics(&base, &traced, &mut report);
    report.add_pct("store.snapshot_ms", &snapshot_ms, 50.0, "ms");
    report.add_pct("store.restore_ms", &restore_ms, 50.0, "ms");
    report.add_timing("metasearch.replace_ms", &traced.writes, "ms");
    report.add(
        "store.puts_per_write",
        crate::stats::ratio(puts, traced.writes.len() as f64),
        "count",
    );
    let probe_spans = layers::probe(
        &Probe {
            broker: &broker,
            queries: &sample,
            budget: Duration::from_secs(3),
            front_door: None,
            admin: None,
            store_dir: None,
        },
        &mut report,
    )?;
    layers::finish(
        &spans,
        &probe_spans,
        &ctx.spans_dir.join("zipf-churn.tsv"),
        &mut report,
    )?;
    Ok(report)
}
