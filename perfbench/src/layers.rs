//! Per-layer measurement: the program's own spans from a fully sampled
//! run, and direct timings of each layer's public call on the workload's
//! engines and queries.

use crate::drive::Stream;
use crate::report::{Counters, Report};
use crate::stats::{ratio, Samples};
use crate::THRESHOLD;
use seu_core::{SubrangeEstimator, Usefulness, UsefulnessEstimator};
use seu_engine::SearchEngine;
use seu_metasearch::federation::{EngineSource, FrontDoor, FrontDoorConfig, LocalReplica};
use seu_metasearch::{merge_results, Broker, CacheMode, MergedHit, ReplicaClient, SearchRequest};
use seu_net::wire::Message;
use seu_net::{AdminServer, EngineServer, RemoteEngine, RemoteReplica, ReplicaServer};
use seu_obs::FinishedTrace;
use seu_poly::SparsePoly;
use seu_repr::Representative;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type SubrangeBroker = Broker<SubrangeEstimator>;

/// One finished span, without its attributes.
struct Span {
    trace: u64,
    id: u64,
    parent: u64,
    name: u32,
    start_ns: u64,
    dur_ns: u64,
    /// `queue_wait_s` of a `dispatch:<engine>` span, in µs.
    queue_wait_us: Option<f64>,
}

/// Every span of the traces finished while a collector ran.
#[derive(Default)]
pub struct Spans {
    names: Vec<String>,
    spans: Vec<Span>,
    traces: usize,
}

impl Spans {
    fn add(&mut self, trace: &FinishedTrace, index: &mut HashMap<String, u32>) {
        self.traces += 1;
        for s in &trace.spans {
            // Per-engine and per-replica spans share one layer.
            let key = match s.name.split_once(':') {
                Some((layer, _)) => format!("{layer}:*"),
                None => s.name.clone(),
            };
            let next = index.len() as u32;
            let name = *index.entry(key.clone()).or_insert_with(|| {
                self.names.push(key);
                next
            });
            let queue_wait_us = s
                .attrs
                .iter()
                .find(|(k, _)| k == "queue_wait_s")
                .and_then(|(_, v)| v.parse::<f64>().ok())
                .map(|secs| secs * 1e6);
            self.spans.push(Span {
                trace: trace.trace_id.0,
                id: s.id.0,
                parent: s.parent.0,
                name,
                start_ns: s.start_unix_ns,
                dur_ns: s.duration_ns,
                queue_wait_us,
            });
        }
    }

    fn of(traces: &[Arc<FinishedTrace>]) -> Spans {
        let mut spans = Spans::default();
        let mut index = HashMap::new();
        for t in traces {
            spans.add(t, &mut index);
        }
        spans
    }

    fn durations_us(&self, name: &str) -> Samples {
        let mut out = Samples::new();
        if let Some(idx) = self.names.iter().position(|n| n == name) {
            for s in self.spans.iter().filter(|s| s.name == idx as u32) {
                out.push(s.dur_ns as f64 / 1e3);
            }
        }
        out
    }

    fn queue_waits_us(&self) -> Samples {
        let mut out = Samples::new();
        for w in self.spans.iter().filter_map(|s| s.queue_wait_us) {
            out.push(w);
        }
        out
    }

    /// Self time of every span: its duration minus the part of it its
    /// children's intervals cover.
    fn self_times_ns(&self) -> Vec<u64> {
        let mut children: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            children
                .entry((s.trace, s.parent))
                .or_default()
                .push((s.start_ns, s.start_ns + s.dur_ns));
        }
        self.spans
            .iter()
            .map(|s| {
                let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
                let mut kids: Vec<(u64, u64)> = children
                    .get(&(s.trace, s.id))
                    .map(|v| {
                        v.iter()
                            .map(|&(a, b)| (a.max(lo), b.min(hi)))
                            .filter(|&(a, b)| a < b)
                            .collect()
                    })
                    .unwrap_or_default();
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, lo);
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns.saturating_sub(covered)
            })
            .collect()
    }

    /// One note line per layer: span count, p50 and p99 duration, and
    /// its share of all self time.
    pub fn table(&self, label: &str, report: &mut Report) {
        let self_ns = self.self_times_ns();
        let total: u64 = self_ns.iter().sum();
        let mut per: BTreeMap<&str, (Samples, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let e = per.entry(&self.names[s.name as usize]).or_default();
            e.0.push(s.dur_ns as f64 / 1e3);
            e.1 += own;
        }
        report.note(format!(
            "{label}: {} traces, {} spans (span: n, p50 us, p99 us, self-time share)",
            self.traces,
            self.spans.len()
        ));
        for (name, (d, own)) in per {
            report.note(format!(
                "  {name:<22} n={:<8} p50={:>10.1} p99={:>10.1} self={:>5.1}%",
                d.len(),
                d.p50(),
                d.p99(),
                100.0 * ratio(own as f64, total as f64)
            ));
        }
    }

    /// Writes every span as a tab-separated line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "trace\tspan\tparent\tname\tstart_unix_ns\tduration_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{:016x}\t{:016x}\t{:016x}\t{}\t{}\t{}",
                s.trace, s.id, s.parent, self.names[s.name as usize], s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `work` with every request sampled, collecting each trace that
/// finishes meanwhile from the tracer's store, and restores the deployed
/// sampling rate afterwards.
pub fn traced<T>(work: impl FnOnce() -> T) -> (T, Spans) {
    let tracer = seu_obs::tracer();
    let saved = tracer.sample_rate();
    tracer.store().clear();
    tracer.set_sample_rate(1);
    let stop = AtomicBool::new(false);
    let (out, spans) = std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut seen: HashSet<u64> = HashSet::new();
            let mut spans = Spans::default();
            let mut index = HashMap::new();
            loop {
                let last = stop.load(Ordering::SeqCst);
                // The store is a ring of 256 traces, newest first; a
                // 1 ms poll outpaces every workload's request rate.
                for t in tracer.store().recent().iter().rev() {
                    if seen.insert(t.trace_id.0) {
                        spans.add(t, &mut index);
                    }
                }
                if last {
                    return spans;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let out = work();
        stop.store(true, Ordering::SeqCst);
        (out, collector.join().expect("span collector panicked"))
    });
    tracer.set_sample_rate(saved);
    (out, spans)
}

/// Runs `work` traced, between counter snapshots, and adds the counter
/// and cache metrics of that window. `cache_state` reads the stale
/// evictions and registry epoch of the brokers under test.
pub fn traced_window(
    work: impl FnOnce() -> Stream,
    cache_state: impl Fn() -> (f64, f64),
    report: &mut Report,
) -> (Stream, Spans) {
    let before = Counters::now();
    let (evictions, epoch) = cache_state();
    let (stream, spans) = traced(work);
    let after = Counters::now();
    let (evictions_after, epoch_after) = cache_state();
    stream.count_into(report);
    add_counter_metrics(&before, &after, stream.reads.len() as f64, report);
    add_cache_metrics(
        &stream,
        evictions_after - evictions,
        epoch_after - epoch,
        report,
    );
    (stream, spans)
}

/// Stale evictions and registry epoch of one broker.
pub fn cache_state(broker: &SubrangeBroker) -> (f64, f64) {
    let evictions = broker.cache_stats().map_or(0, |s| s.stale_evictions);
    (evictions as f64, broker.registry_epoch() as f64)
}

/// Adds the span-derived metrics and the span table, and writes every
/// stream span to `dump`.
pub fn finish(
    stream: &Spans,
    probe: &Spans,
    dump: &Path,
    report: &mut Report,
) -> Result<(), String> {
    add_dispatch_metrics(stream, probe, report);
    stream.table("stream spans", report);
    stream
        .dump(dump)
        .map_err(|e| format!("writing {}: {e}", dump.display()))
}

/// Stream-derived per-layer metrics: pool queue wait and dispatch time
/// from the stream's own spans, or from the probe's traced executions
/// when the stream recorded none (cache hits and federated requests do
/// not dispatch through a broker pool in the traced process).
fn add_dispatch_metrics(stream: &Spans, probe: &Spans, report: &mut Report) {
    let source = if stream.durations_us("dispatch").is_empty() {
        probe
    } else {
        stream
    };
    report.add_timing("metasearch.pool_wait_us", &source.queue_waits_us(), "us");
    report.add_timing(
        "metasearch.dispatch_us",
        &source.durations_us("dispatch"),
        "us",
    );
}

/// What the probe measures against.
pub struct Probe<'a> {
    /// An in-process broker over the workload's engines, all local.
    pub broker: &'a Arc<SubrangeBroker>,
    pub queries: &'a [String],
    /// Soft time limit for the per-query loop.
    pub budget: Duration,
    /// The workload's own front door, if it has one; otherwise the probe
    /// builds one over two in-process replicas.
    pub front_door: Option<&'a FrontDoor>,
    /// The workload's own admin server, if it has one.
    pub admin: Option<SocketAddr>,
    /// Where to measure the store layer; `None` when the workload
    /// reports the store from its own set-up and writes.
    pub store_dir: Option<PathBuf>,
}

/// Engines the probe builds its own servers, replicas and store over.
const PROBE_ENGINES: usize = 64;
const STORE_ENGINES: usize = 16;

/// Times each layer's public call directly and adds the per-layer
/// metrics; returns the spans of its traced executions.
pub fn probe(p: &Probe, report: &mut Report) -> Result<Spans, String> {
    let est = SubrangeEstimator::paper_six_subrange();
    let broker = p.broker;
    let names = broker.engine_names();
    let engines: Vec<Arc<SearchEngine>> = broker.engines();
    if engines.len() != names.len() || engines.is_empty() {
        return Err("the probe needs a broker whose engines are all local".into());
    }

    let mut build_ms = Samples::new();
    let mut reprs: HashMap<&str, Representative> = HashMap::new();
    for (name, engine) in names.iter().zip(&engines) {
        let t = Instant::now();
        let r = Representative::build(engine.collection());
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        reprs.insert(name, r);
    }

    let (mut analyze, mut plan_us, mut walk, mut select) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let (mut factors_ns, mut estimate_ns, mut expand_ns, mut factor_counts) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let (mut search_us, mut hits_per_search, mut merge_us) =
        (Samples::new(), Samples::new(), Samples::new());
    let (mut encode_ns, mut decode_ns) = (Samples::new(), Samples::new());
    let (mut considered, mut selected) = (0usize, 0usize);
    let mut probe_traces: Vec<Arc<FinishedTrace>> = Vec::new();
    let mut selections: Vec<(&String, Vec<String>)> = Vec::new();
    let tracer = seu_obs::tracer();
    let start = Instant::now();
    for q in p.queries {
        if start.elapsed() > p.budget && !selections.is_empty() {
            break;
        }
        let t = Instant::now();
        black_box(broker.analyze(q));
        analyze.push(t.elapsed().as_secs_f64() * 1e6);

        let req = SearchRequest::new(q.as_str())
            .threshold(THRESHOLD)
            .cache(CacheMode::Bypass);
        let active = tracer.start_trace("perfbench_plan", true);
        let handle = active.handle();
        let t = Instant::now();
        let plan = broker.plan(&req, Some(&handle));
        plan_us.push(t.elapsed().as_secs_f64() * 1e6);
        let walk_ns: u64 = active
            .finish()
            .map(|trace| {
                trace
                    .spans
                    .iter()
                    .filter(|s| s.name == "shard_walk")
                    .map(|s| s.duration_ns)
                    .sum()
            })
            .unwrap_or(0);

        let mut estimator_ns = 0.0;
        for pe in plan.engines() {
            let Some(repr) = reprs.get(pe.name.as_str()) else {
                continue;
            };
            let t = Instant::now();
            let factors = est.factors(repr, pe.query());
            let f_ns = t.elapsed().as_secs_f64() * 1e9;
            if factors.is_empty() {
                continue;
            }
            factors_ns.push(f_ns);
            factor_counts.push(factors.len() as f64);
            let t = Instant::now();
            black_box(est.estimate(repr, pe.query(), THRESHOLD));
            let e_ns = t.elapsed().as_secs_f64() * 1e9;
            estimate_ns.push(e_ns);
            estimator_ns += e_ns;
            let polys: Vec<SparsePoly> = factors
                .iter()
                .map(|spikes| SparsePoly::spike_factor(spikes.iter().copied()))
                .collect();
            let t = Instant::now();
            black_box(SparsePoly::product(&polys).tail_above(THRESHOLD));
            expand_ns.push(t.elapsed().as_secs_f64() * 1e9);
        }
        walk.push((walk_ns as f64 - estimator_ns).max(0.0) / 1e3);

        let us: Vec<Usefulness> = plan.engines().iter().map(|e| e.usefulness).collect();
        let t = Instant::now();
        black_box(req.policy.select(&us));
        select.push(t.elapsed().as_secs_f64() * 1e6);
        considered += plan.len();
        selected += plan.selected.len();

        let mut lists: Vec<Vec<MergedHit>> = Vec::new();
        for &i in &plan.selected {
            let pe = &plan.engines()[i];
            let Some(engine) = pe.engine() else { continue };
            let t = Instant::now();
            let hits = engine.search_threshold(pe.query(), THRESHOLD);
            search_us.push(t.elapsed().as_secs_f64() * 1e6);
            hits_per_search.push(hits.len() as f64);
            lists.push(
                hits.iter()
                    .map(|h| MergedHit {
                        engine: pe.name.clone(),
                        doc: engine.collection().doc(h.doc).name.clone(),
                        sim: h.sim,
                    })
                    .collect(),
            );
        }
        let t = Instant::now();
        let merged = merge_results(lists);
        merge_us.push(t.elapsed().as_secs_f64() * 1e6);

        let frames = [
            Message::ReplicaSearch {
                query: q.clone(),
                threshold: THRESHOLD,
                engines: plan
                    .selected
                    .iter()
                    .map(|&i| plan.engines()[i].name.clone())
                    .collect(),
            },
            Message::ReplicaSearchResults {
                hits: merged,
                stats: Vec::new(),
            },
        ];
        let (mut enc, mut dec) = (0.0, 0.0);
        for frame in &frames {
            let t = Instant::now();
            let (kind, payload) = frame.encode();
            enc += t.elapsed().as_secs_f64() * 1e9;
            let t = Instant::now();
            let back = Message::decode(kind, &payload).map_err(|e| e.to_string())?;
            dec += t.elapsed().as_secs_f64() * 1e9;
            black_box(back);
        }
        encode_ns.push(enc);
        decode_ns.push(dec);

        // A traced execution for the dispatch-side spans.
        let response = broker.execute(&req.clone().explain(true));
        probe_traces.extend(response.trace);
        selections.push((
            q,
            plan.selected
                .iter()
                .map(|&i| plan.engines()[i].name.clone())
                .collect(),
        ));
    }

    report.add_timing("text.analyze_us", &analyze, "us");
    report.add_timing("core.factors_ns", &factors_ns, "ns");
    report.add_timing("core.estimate_ns", &estimate_ns, "ns");
    report.add("core.factors_per_estimate", factor_counts.mean(), "count");
    report.add_timing("poly.expand_ns", &expand_ns, "ns");
    report.add_timing("metasearch.plan_us", &plan_us, "us");
    report.add_timing("metasearch.walk_us", &walk, "us");
    report.add_timing("metasearch.select_us", &select, "us");
    report.add(
        "metasearch.selected_ratio",
        ratio(selected as f64, considered as f64),
        "share",
    );
    report.add_timing("metasearch.merge_us", &merge_us, "us");
    report.add_timing("engine.search_us", &search_us, "us");
    report.add("engine.hits_per_search", hits_per_search.mean(), "count");
    report.add_timing("repr.build_ms", &build_ms, "ms");
    report.add_timing("net.wire_encode_ns", &encode_ns, "ns");
    report.add_timing("net.wire_decode_ns", &decode_ns, "ns");

    let subset = names.len().min(PROBE_ENGINES);
    net_probe(p, &names[..subset], &engines[..subset], &selections, report)?;
    if let Some(dir) = &p.store_dir {
        store_probe(dir, &names[..subset], &engines[..subset], report)?;
    }
    Ok(Spans::of(&probe_traces))
}

/// `net.*` round trips and the federated front door, each against the
/// same work done in process.
fn net_probe(
    p: &Probe,
    names: &[String],
    engines: &[Arc<SearchEngine>],
    selections: &[(&String, Vec<String>)],
    report: &mut Report,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let tx = |e: seu_metasearch::TransportError| e.to_string();

    // GET /healthz: accept, parse and reply, no search.
    let own_admin;
    let admin = match p.admin {
        Some(addr) => addr,
        None => {
            own_admin = AdminServer::bind(p.broker.clone(), "127.0.0.1:0").map_err(io)?;
            own_admin.addr()
        }
    };
    let mut http_us = Samples::new();
    for _ in 0..selections.len().clamp(50, 200) {
        let t = Instant::now();
        let (status, _) = crate::http::request(admin, "GET", "/healthz", "")?;
        http_us.push(t.elapsed().as_secs_f64() * 1e6);
        if status != 200 {
            return Err(format!("GET /healthz answered {status}"));
        }
    }
    report.add_timing("net.http_us", &http_us, "us");

    // One engine over the frame protocol against the same engine in
    // process: the difference is the RPC.
    let engine = &engines[0];
    let server = EngineServer::bind(&names[0], (**engine).clone(), "127.0.0.1:0").map_err(io)?;
    let client = RemoteEngine::new(server.addr()).map_err(tx)?;
    let mut rpc_us = Samples::new();
    for (q, _) in selections {
        let t = Instant::now();
        let query = engine.collection().query_from_text(q);
        black_box(engine.search_threshold(&query, THRESHOLD));
        let local = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        seu_metasearch::RemoteTransport::search(&client, q, THRESHOLD, None).map_err(tx)?;
        rpc_us.push(t.elapsed().as_secs_f64() * 1e6 - local);
    }
    report.add_timing("net.engine_rpc_us", &rpc_us, "us");
    drop(client);
    server.shutdown();

    // The same broker as a replica, over the socket and in process.
    let replica_server =
        ReplicaServer::bind("probe", p.broker.clone(), "127.0.0.1:0").map_err(tx)?;
    let remote = RemoteReplica::new(replica_server.addr()).map_err(tx)?;
    let local = LocalReplica::new(p.broker.clone());
    let mut replica_us = Samples::new();
    for (q, chosen) in selections {
        let t = Instant::now();
        local.search_subset(q, THRESHOLD, chosen).map_err(tx)?;
        let in_process = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        remote.search_subset(q, THRESHOLD, chosen).map_err(tx)?;
        replica_us.push(t.elapsed().as_secs_f64() * 1e6 - in_process);
    }
    report.add_timing("net.replica_rpc_us", &replica_us, "us");
    drop(remote);
    replica_server.shutdown();

    // The front door in process, without HTTP.
    let own_fd;
    let fd = match p.front_door {
        Some(fd) => fd,
        None => {
            own_fd = FrontDoor::new(FrontDoorConfig::default());
            for i in 0..2 {
                let broker =
                    Arc::new(Broker::builder(SubrangeEstimator::paper_six_subrange()).build());
                own_fd.add_replica(&format!("probe-{i}"), Arc::new(LocalReplica::new(broker)));
            }
            for (name, engine) in names.iter().zip(engines) {
                own_fd
                    .register_engine(name, EngineSource::Local(engine.clone()))
                    .map_err(tx)?;
            }
            &own_fd
        }
    };
    let (mut fed_us, mut degraded) = (Samples::new(), 0usize);
    for (q, _) in selections {
        let req = SearchRequest::new(q.as_str())
            .threshold(THRESHOLD)
            .cache(CacheMode::Bypass);
        let t = Instant::now();
        let (_, fed) = fd.execute_with_report(&req);
        fed_us.push(t.elapsed().as_secs_f64() * 1e6);
        degraded += fed.failures.len() + fed.unresolved.len();
    }
    report.add_timing("federation.execute_us", &fed_us, "us");
    report.add("federation.degraded", degraded as f64, "count");
    Ok(())
}

/// Snapshot, restore and write-through on a store-backed broker over a
/// few of the workload's engines. Each write swaps one engine's
/// collection for its neighbour's, so the fingerprint changes and the
/// refresh rebuilds and stores a representative.
fn store_probe(
    dir: &Path,
    names: &[String],
    engines: &[Arc<SearchEngine>],
    report: &mut Report,
) -> Result<(), String> {
    let n = names.len().min(STORE_ENGINES);
    let store_err = |e: seu_metasearch::StoreError| e.to_string();
    let (mut snapshot_ms, mut restore_ms, mut replace_ms) =
        (Samples::new(), Samples::new(), Samples::new());
    let (mut puts, mut writes) = (0.0, 0usize);
    for round in 0..3 {
        let path = dir.join(format!("probe-store-{round}"));
        let written = Broker::builder(SubrangeEstimator::paper_six_subrange())
            .store(&path)
            .map_err(store_err)?
            .build();
        for (name, engine) in names.iter().zip(engines).take(n) {
            written.register_shared(name, engine.clone());
        }
        let t = Instant::now();
        written.snapshot_registry().map_err(store_err)?;
        snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let restored = Broker::builder(SubrangeEstimator::paper_six_subrange())
            .store(&path)
            .map_err(store_err)?
            .build();
        let t = Instant::now();
        restored.restore().map_err(store_err)?;
        restored.hydrate();
        restore_ms.push(t.elapsed().as_secs_f64() * 1e3);

        for i in 0..n {
            let before = Counters::now();
            let other = (*engines[(i + 1) % n]).clone();
            let t = Instant::now();
            written.replace_engine(&names[i], other);
            written.refresh_if_stale();
            replace_ms.push(t.elapsed().as_secs_f64() * 1e3);
            puts += before.delta(&Counters::now(), "broker_store_writes_total");
            writes += 1;
        }
        drop((written, restored));
        let _ = std::fs::remove_dir_all(&path);
    }
    report.add_pct("store.snapshot_ms", &snapshot_ms, 50.0, "ms");
    report.add_pct("store.restore_ms", &restore_ms, 50.0, "ms");
    report.add_timing("metasearch.replace_ms", &replace_ms, "ms");
    report.add("store.puts_per_write", ratio(puts, writes as f64), "count");
    Ok(())
}

/// Counter-derived per-layer metrics over a traced window that served
/// `queries` requests.
fn add_counter_metrics(before: &Counters, after: &Counters, queries: f64, report: &mut Report) {
    let d = |name: &str| before.delta(after, name);
    report.add(
        "poly.terms_per_expansion",
        ratio(
            d("estimator_poly_terms_expanded_total"),
            d("estimator_poly_expansions_total"),
        ),
        "count",
    );
    report.add(
        "poly.pruned_ratio",
        ratio(
            d("estimator_poly_terms_pruned_total"),
            d("estimator_poly_terms_raw_total"),
        ),
        "share",
    );
    report.add(
        "net.frames_per_query",
        ratio(
            d("net_frames_sent_total") + d("net_frames_received_total"),
            queries,
        ),
        "count",
    );
    report.add(
        "net.bytes_per_query",
        ratio(
            d("net_bytes_sent_total") + d("net_bytes_received_total"),
            queries,
        ),
        "bytes",
    );
    report.add("net.retries", d("net_client_retries_total"), "count");
    report.add("net.timeouts", d("net_client_timeouts_total"), "count");
}

/// Cache metrics over a traced window: the share of reads each tier
/// served, stale evictions, and registry epoch bumps (each one
/// invalidates every tier).
fn add_cache_metrics(stream: &Stream, evictions: f64, invalidations: f64, report: &mut Report) {
    let reads = stream.reads.len() as f64;
    for (tier, served) in ["analysis", "plan", "results"].iter().zip(stream.tiers) {
        report.add(
            &format!("metasearch.cache_served_ratio.{tier}"),
            ratio(served as f64, reads),
            "share",
        );
    }
    report.add("metasearch.cache_evictions", evictions, "count");
    report.add("metasearch.invalidations", invalidations, "count");
}

/// Generator lateness and tracing overhead, shared by every workload's
/// traced run.
pub fn add_generator_metrics(untraced: &Stream, traced: &Stream, report: &mut Report) {
    report.add_pct("gen.lateness_ms.p99", &traced.lateness, 99.0, "ms");
    report.add("gen.lateness_ms.max", traced.lateness.max(), "ms");
    report.add(
        "obs.trace_overhead_pct",
        100.0 * (ratio(traced.reads.p50(), untraced.reads.p50()) - 1.0),
        "%",
    );
}
