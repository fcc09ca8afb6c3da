//! `cluster-open`: `POST /search` to an admin server over a front door,
//! two replica brokers behind it, and the 53 databases each behind its
//! own loopback engine server. Arrivals are open-loop on seeded Poisson
//! schedules at a fixed ladder of rates; the query stream never repeats,
//! so the replicas' caches serve nothing. HTTP, frames, the event loop,
//! pooled clients, routing and pool dispatch do most of the work.
//!
//! Its latency follows the host's scheduling of idle threads closely
//! enough that it is left out of `BENCHMARK.json`; see the README.

use crate::drive::{open_loop, poisson_schedule, Op, Stream};
use crate::layers::{self, Probe, SubrangeBroker};
use crate::quality::{add_quality, distinct_queries};
use crate::report::Report;
use crate::stats::Samples;
use crate::{Ctx, LIMIT_MS, THRESHOLD};
use seu_core::SubrangeEstimator;
use seu_engine::{Collection, SearchEngine};
use seu_metasearch::federation::{EngineSource, FrontDoor, FrontDoorConfig};
use seu_metasearch::{Broker, CacheTier, SearchRequest, SearchResponse};
use seu_net::{AdminServer, EngineServer, RemoteReplica, ReplicaServer};
use seu_obs::json::{self, Json};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DOCS_BASE: usize = 100;
const REPLICAS: usize = 2;
const TOP_K: usize = 10;
/// The nominal offered rate, req/s, that `p50_ms` and `p99_ms` are
/// reported at. It runs for `NOMINAL_SHARE` of the window.
const NOMINAL: f64 = 200.0;
const NOMINAL_SHARE: f64 = 0.5;
/// The ladder above it: rates rising by 10% from `LADDER_START`, each
/// run for `RUNG_SHARE` of the window, up to the first rate that fails.
const LADDER_START: f64 = 250.0;
const LADDER_RUNGS: usize = 16;
const RUNG_SHARE: f64 = 0.05;
/// A rung whose last quarter was issued this much later than its first
/// quarter has a growing backlog.
const BACKLOG_SLACK_MS: f64 = LIMIT_MS / 4.0;
/// Cluster instances per run. Each serves an equal share of the nominal
/// rung: an instance's event loops settle into a faster or a slower
/// latency mode for its lifetime, so pooling several instances keeps
/// one run's figures from hanging on one draw.
const INSTANCES: usize = 16;
const CHECKED: usize = 20;
const QUALITY_SAMPLE: usize = 1000;

struct Cluster {
    admin: AdminServer,
    front_door: Arc<FrontDoor>,
    replicas: Vec<(Arc<SubrangeBroker>, ReplicaServer)>,
    engines: Vec<EngineServer>,
}

impl Cluster {
    fn start(collections: &[(String, Collection)]) -> Result<Cluster, String> {
        let tx = |e: seu_metasearch::TransportError| e.to_string();
        let io = |e: std::io::Error| e.to_string();
        let mut engines = Vec::new();
        for (name, coll) in collections {
            let engine = SearchEngine::new(coll.clone());
            engines.push(EngineServer::bind(name, engine, "127.0.0.1:0").map_err(io)?);
        }
        let front_door = Arc::new(FrontDoor::new(FrontDoorConfig::default()));
        let mut replicas = Vec::new();
        for i in 0..REPLICAS {
            let id = format!("replica-{i}");
            let broker = Arc::new(Broker::builder(SubrangeEstimator::paper_six_subrange()).build());
            let server = ReplicaServer::bind(&id, broker.clone(), "127.0.0.1:0").map_err(tx)?;
            let client = RemoteReplica::new(server.addr()).map_err(tx)?;
            front_door.add_replica(&id, Arc::new(client));
            replicas.push((broker, server));
        }
        for server in &engines {
            front_door
                .register_engine(
                    server.name(),
                    EngineSource::Remote {
                        endpoint: server.addr().to_string(),
                    },
                )
                .map_err(tx)?;
        }
        let admin = AdminServer::bind(front_door.clone(), "127.0.0.1:0").map_err(io)?;
        Ok(Cluster {
            admin,
            front_door,
            replicas,
            engines,
        })
    }

    fn shutdown(self) {
        self.admin.shutdown();
        drop(self.front_door);
        for (_, server) in self.replicas {
            server.shutdown();
        }
        for server in self.engines {
            server.shutdown();
        }
    }

    /// Stale evictions and registry epochs summed over the replicas.
    fn cache_state(&self) -> (f64, f64) {
        self.replicas.iter().fold((0.0, 0.0), |(ev, ep), (b, _)| {
            let (e, p) = layers::cache_state(b);
            (ev + e, ep + p)
        })
    }
}

/// One parsed `POST /search` reply.
struct Reply {
    hits: Vec<(String, String, f64)>,
    estimates: Vec<(String, f64, f64)>,
    degraded: bool,
    tier: Option<CacheTier>,
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("reply lacks {key:?}"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    Ok(field(v, key)?
        .as_str()
        .ok_or(format!("{key:?} is not a string"))?
        .to_string())
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_num()
        .ok_or(format!("{key:?} is not a number"))
}

fn rows<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_arr()
        .ok_or(format!("{key:?} is not an array"))
}

fn search(addr: SocketAddr, q: &str) -> Result<Reply, String> {
    let (status, body) = crate::http::request(
        addr,
        "POST",
        "/search",
        &crate::http::search_body(q, THRESHOLD, TOP_K),
    )?;
    if status != 200 {
        return Err(format!("POST /search answered {status}"));
    }
    let v = json::parse(&body)?;
    let mut reply = Reply {
        hits: Vec::new(),
        estimates: Vec::new(),
        degraded: false,
        tier: match v.get("served_from").and_then(Json::as_str) {
            Some("analysis") => Some(CacheTier::Analysis),
            Some("plan") => Some(CacheTier::Plan),
            Some("results") => Some(CacheTier::Results),
            _ => None,
        },
    };
    for h in rows(&v, "hits")? {
        reply
            .hits
            .push((text(h, "engine")?, text(h, "doc")?, num(h, "sim")?));
    }
    for e in rows(&v, "estimates")? {
        reply
            .estimates
            .push((text(e, "engine")?, num(e, "no_doc")?, num(e, "avg_sim")?));
    }
    for s in rows(&v, "per_engine")? {
        let errored = !matches!(field(s, "error")?, Json::Null);
        reply.degraded |= errored || text(s, "outcome")? != "completed";
    }
    Ok(reply)
}

/// Whether an HTTP reply equals the flat broker's answer to the bit.
fn bit_identical(reply: &Reply, flat: &SearchResponse) -> bool {
    reply.estimates.len() == flat.estimates.len()
        && reply.hits.len() == flat.hits.len()
        && reply.estimates.iter().zip(&flat.estimates).all(|(r, f)| {
            r.0 == f.engine
                && r.1.to_bits() == f.usefulness.no_doc.to_bits()
                && r.2.to_bits() == f.usefulness.avg_sim.to_bits()
        })
        && reply
            .hits
            .iter()
            .zip(&flat.hits)
            .all(|(r, f)| r.0 == f.engine && r.1 == f.doc && r.2.to_bits() == f.sim.to_bits())
}

/// Whether the in-process front door's answer equals the flat broker's
/// to the bit.
fn federated_identical(fed: &SearchResponse, flat: &SearchResponse) -> bool {
    fed.estimates.len() == flat.estimates.len()
        && fed.hits.len() == flat.hits.len()
        && fed.estimates.iter().zip(&flat.estimates).all(|(a, b)| {
            a.engine == b.engine
                && a.usefulness.no_doc.to_bits() == b.usefulness.no_doc.to_bits()
                && a.usefulness.avg_sim.to_bits() == b.usefulness.avg_sim.to_bits()
        })
        && fed.hits.iter().zip(&flat.hits).all(|(a, b)| {
            a.engine == b.engine && a.doc == b.doc && a.sim.to_bits() == b.sim.to_bits()
        })
}

/// Checks a fixed sample of replies, over HTTP and from the front door
/// in process, against the flat broker, to the bit.
fn check(cluster: &Cluster, flat: &SubrangeBroker, sample: &[String], report: &mut Report) {
    for q in sample.iter().take(CHECKED) {
        let expected = flat.execute(&request(q));
        let (fed, fed_report) = cluster.front_door.execute_with_report(&request(q));
        let http_ok = match search(cluster.admin.addr(), q) {
            Ok(reply) => !reply.degraded && bit_identical(&reply, &expected),
            Err(_) => false,
        };
        let degraded = !fed_report.failures.is_empty() || !fed_report.unresolved.is_empty();
        report.attempted += 1;
        if !http_ok || degraded || !federated_identical(&fed, &expected) {
            report.failed += 1;
            report.mismatches += 1;
            report.note(format!(
                "mismatch: cluster reply differs from the flat broker for {q:?}"
            ));
        }
    }
}

fn request(q: &str) -> SearchRequest {
    SearchRequest::new(q)
        .threshold(THRESHOLD)
        .top_k(TOP_K)
        .with_estimates(true)
}

/// One open-loop rung at `rate` over `window`, on stream positions from
/// `offset`.
fn rung(
    ctx: &Ctx,
    addr: SocketAddr,
    queries: &[String],
    offset: usize,
    rate: f64,
    window: Duration,
) -> Stream {
    let schedule = poisson_schedule(
        ctx.seed ^ ((rate as u64) << 20) ^ offset as u64,
        rate,
        window,
    );
    open_loop(ctx.clients(), &schedule, |n| {
        let q = &queries[(offset + n) % queries.len()];
        match search(addr, q) {
            Ok(reply) => Op {
                failed: reply.degraded,
                tier: reply.tier,
                ..Op::default()
            },
            Err(_) => Op {
                failed: true,
                ..Op::default()
            },
        }
    })
}

fn describe(rate: f64, s: &Stream) -> String {
    format!(
        "rung {rate:>5} req/s: p50 {:.3} ms, p99 {:.3} ms (n={}), lateness p99 {:.3} ms, failed {}, backlog grew {}",
        s.reads.p50(),
        s.reads.p99(),
        s.reads.len(),
        s.lateness.p99(),
        s.failed,
        s.backlog_grew(BACKLOG_SLACK_MS)
    )
}

/// How far a rung is from its limits: p99 over the latency limit, or
/// lateness growth over the backlog slack, whichever is worse. A rung
/// passes at 1 or below; any failed request fails it outright.
fn score(s: &Stream) -> f64 {
    if s.failed > 0 {
        return f64::INFINITY;
    }
    let growth = s.lateness_tail.p50() - s.lateness_head.p50();
    (s.reads.p99() / LIMIT_MS).max(growth / BACKLOG_SLACK_MS)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let collections = seu_corpus::many_databases(ctx.seed, DOCS_BASE);
    // Enough distinct queries for the nominal rate and a ladder that
    // climbs to 1000 req/s; past that the stream wraps around.
    let queries = distinct_queries(ctx.seed, (ctx.seconds * 1000.0) as usize + 1000);
    let sample = distinct_queries(ctx.seed ^ 0x9a11, QUALITY_SAMPLE);

    // The flat reference: one in-process broker over the same
    // collections, in the same registration order.
    let flat = Arc::new(Broker::builder(SubrangeEstimator::paper_six_subrange()).build());
    for (name, coll) in &collections {
        flat.register(name, SearchEngine::new(coll.clone()));
    }

    // Each set-up starts a fresh cluster, checks it against the flat
    // broker, and (untraced) serves an equal share of the nominal rung,
    // so the rung pools samples from several cluster instances.
    let window = ctx.window();
    let mut setup_s = Samples::new();
    let mut nominal = Stream::default();
    let mut instance_p50 = Samples::new();
    let mut cluster = None;
    for i in 0..INSTANCES {
        if let Some(c) = cluster.take() {
            Cluster::shutdown(c);
        }
        let t = Instant::now();
        let c = Cluster::start(&collections)?;
        setup_s.push(t.elapsed().as_secs_f64());
        check(&c, &flat, &sample, &mut report);
        if !ctx.trace {
            let share = window.mul_f64(NOMINAL_SHARE / INSTANCES as f64);
            let segment = rung(
                ctx,
                c.admin.addr(),
                &queries,
                nominal.reads.len(),
                NOMINAL,
                share,
            );
            report.note(format!("set-up {i}: {}", describe(NOMINAL, &segment)));
            instance_p50.push(segment.reads.p50());
            nominal.merge(segment);
        }
        cluster = Some(c);
    }
    let cluster = cluster.expect("at least one set-up");
    let addr = cluster.admin.addr();

    if !ctx.trace {
        // Memory at the nominal load, before the ladder overloads it.
        let peak_rss_mb = crate::report::peak_rss_mb();
        let mut offset = nominal.reads.len();
        // The last rate that passed and its score; the limit crossing
        // is interpolated between it and the first rate that failed.
        let mut last = (NOMINAL, score(&nominal));
        let mut max_rate = 0.0;
        if last.1 <= 1.0 {
            max_rate = NOMINAL;
            for k in 0..LADDER_RUNGS {
                let rate = (LADDER_START * 1.1f64.powi(k as i32)).round();
                let s = rung(
                    ctx,
                    addr,
                    &queries,
                    offset,
                    rate,
                    window.mul_f64(RUNG_SHARE),
                );
                offset += s.reads.len();
                s.count_into(&mut report);
                report.note(describe(rate, &s));
                let sc = score(&s);
                if sc > 1.0 {
                    let (r0, s0) = last;
                    max_rate = if sc.is_finite() {
                        r0 + (rate - r0) * (1.0 - s0) / (sc - s0)
                    } else {
                        r0
                    };
                    break;
                }
                last = (rate, sc);
                max_rate = rate;
            }
        }
        report.add_pct("setup_s", &setup_s, 50.0, "s");
        report.add("qps", nominal.qps(), "req/s");
        // The median of the instances' medians: a scheduling stall on the
        // host that slows a few instances moves it less than the pooled
        // median does.
        report.add_pct("p50_ms", &instance_p50, 50.0, "ms");
        report.add_pct("p99_ms", &nominal.reads, 99.0, "ms");
        nominal.count_into(&mut report);
        report.add("max_rate_rps", max_rate, "req/s");
        report.add("peak_rss_mb", peak_rss_mb, "MB");
        add_quality(&flat, &sample, &mut report);
        cluster.shutdown();
        return Ok(report);
    }

    let base = rung(ctx, addr, &queries, 0, NOMINAL, window);
    let offset = base.reads.len();
    let (traced, spans) = layers::traced_window(
        || rung(ctx, addr, &queries, offset, NOMINAL, window),
        || cluster.cache_state(),
        &mut report,
    );
    layers::add_generator_metrics(&base, &traced, &mut report);
    let probe_spans = layers::probe(
        &Probe {
            broker: &flat,
            queries: &sample,
            budget: Duration::from_secs(3),
            front_door: Some(&cluster.front_door),
            admin: Some(addr),
            store_dir: Some(ctx.work_dir.clone()),
        },
        &mut report,
    )?;
    layers::finish(
        &spans,
        &probe_spans,
        &ctx.spans_dir.join("cluster-open.tsv"),
        &mut report,
    )?;
    cluster.shutdown();
    Ok(report)
}
