//! `repro` — regenerates every table of the paper from the synthetic
//! workload.
//!
//! ```text
//! cargo run -p seu-eval --release --bin repro -- [COMMAND] [--seed N]
//!
//! COMMANDS
//!   tables-1-6          match/mismatch + d-N/d-S for D1–D3 (default set)
//!   tables-7-9          one-byte quantized representatives
//!   tables-10-12        estimated (triplet) max weights
//!   scalability         §3.2 representative-size table
//!   guarantee           §3.1 single-term identification check
//!   ablation-subranges  subrange-count / max-subrange ablation
//!   ablation-disjoint   gGlOSS disjoint baseline
//!   ablation-grid       grid-convolution resolution ablation
//!   ranking             E11: 53-database ranking (subrange vs CORI vs ...)
//!   long-queries        E12: 12-term queries, exact vs grid expansion
//!   hierarchy           E13: flat vs two-level broker over 53 databases
//!   selection           E14: precision/recall of usefulness-based selection
//!   gloss-bounds        E15: the gGlOSS similarity-sum bounds claim, measured
//!   dependence          E16: pairwise term-dependence adjustment on D1
//!   binary              E17: binary-vector information loss (ref [18])
//!   policies            E18: selection-policy cost/recall sweep
//!   weighting           E19: robustness under log-tf / pivoted weighting
//!   exact-percentiles   E20: normal-approximated vs exact subrange medians
//!   diagnostics         workload sanity numbers
//!   bench-broker        timed broker workload -> BENCH_broker.json
//!   all                 everything above
//!
//! FLAGS
//!   --seed N            workload RNG seed (default 42)
//!   --csv DIR           dump per-database CSVs alongside the tables
//!   --bench-out PATH    where bench-broker writes its JSON report
//!   --docs-base N       bench-broker documents-per-database base (default 120)
//!   --queries N         bench-broker query count (default 400)
//!   --remote            bench-broker serves every database over loopback TCP
//!   --shards N          bench-broker registry shard count (default 1 = flat)
//!   --engines N         bench-broker adds large-registry phases over N tiny engines
//!   --store             bench-broker times store-backed registry rebuild vs restore
//!                       (registry_rebuild_secs / registry_restore_secs in the report)
//!   --trace-sample      bench-broker measures dispatch overhead of default trace sampling
//!   --zipf S            bench-broker adds Zipf(S) cache phases (hit rate + hot-query speedup)
//!   --no-cache          bench-broker runs the Zipf phases with the query cache disabled
//!   --federated         bench-broker adds two-tier federation phases: 256 clients through
//!                       a front-door over 1 replica vs --replicas replicas (one compute
//!                       worker each), reporting federated_rps and federated_speedup
//!   --replicas N        bench-broker federated cluster size (default 4)
//!   --concurrency LIST  bench-broker (remote) client-count axis, e.g. 1,16,256: throughput
//!                       of one shared multiplexed pool at each count
//!   --stats             print a metrics snapshot after the run
//!   --metrics-out PATH  write the metrics snapshot as JSON
//! ```

use seu_eval::experiments::*;
use seu_eval::runner::EvalConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = "all".to_string();
    let mut seed = 42u64;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut bench_out: Option<std::path::PathBuf> = None;
    let mut docs_base = 120usize;
    let mut n_queries = 400usize;
    let mut remote = false;
    let mut shards = 1usize;
    let mut engines = 0usize;
    let mut trace_sample = false;
    let mut store = false;
    let mut zipf: Option<f64> = None;
    let mut no_cache = false;
    let mut federated = false;
    let mut replicas = 4usize;
    let mut concurrency: Vec<usize> = Vec::new();
    let mut stats = false;
    let mut metrics_out: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(
                    args.get(i)
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| usage("--csv needs a directory")),
                );
            }
            "--bench-out" => {
                i += 1;
                bench_out = Some(
                    args.get(i)
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| usage("--bench-out needs a path")),
                );
            }
            "--docs-base" => {
                i += 1;
                docs_base = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--docs-base needs an integer"));
            }
            "--queries" => {
                i += 1;
                n_queries = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--queries needs an integer"));
            }
            "--remote" => remote = true,
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| usage("--shards needs a positive integer"));
            }
            "--engines" => {
                i += 1;
                engines = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--engines needs an integer"));
            }
            "--trace-sample" => trace_sample = true,
            "--store" => store = true,
            "--zipf" => {
                i += 1;
                zipf = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&s: &f64| s.is_finite() && s >= 0.0)
                        .unwrap_or_else(|| usage("--zipf needs a non-negative exponent")),
                );
            }
            "--no-cache" => no_cache = true,
            "--federated" => federated = true,
            "--replicas" => {
                i += 1;
                replicas = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| usage("--replicas needs a positive integer"));
            }
            "--concurrency" => {
                i += 1;
                concurrency = args
                    .get(i)
                    .map(|list| {
                        list.split(',')
                            .map(|n| {
                                n.trim()
                                    .parse()
                                    .ok()
                                    .filter(|&n: &usize| n > 0)
                                    .unwrap_or_else(|| {
                                        usage("--concurrency needs positive integers")
                                    })
                            })
                            .collect()
                    })
                    .unwrap_or_else(|| usage("--concurrency needs a comma-separated list"));
            }
            "--stats" => stats = true,
            "--metrics-out" => {
                i += 1;
                metrics_out = Some(
                    args.get(i)
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| usage("--metrics-out needs a path")),
                );
            }
            "--help" | "-h" => usage(""),
            cmd if !cmd.starts_with('-') => command = cmd.to_string(),
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            usage(&format!("cannot create {}: {e}", dir.display()));
        }
    }
    // Writes one CSV per (experiment, database) when --csv is given.
    let dump_csv = |tag: &str, out: &ExperimentOutput| {
        let Some(dir) = &csv_dir else { return };
        for (db, methods) in &out.results {
            let safe_db: String = db
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let path = dir.join(format!("{tag}_{safe_db}.csv"));
            let mut body = String::from(seu_eval::MethodResult::CSV_HEADER);
            body.push('\n');
            for m in methods {
                body.push_str(&m.to_csv());
            }
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    };

    let run = |name: &str| command == name || command == "all";

    // The broker bench builds its own databases; run it before (and,
    // when it is the only command, instead of) dataset generation.
    if run("bench-broker") {
        eprintln!(
            "running broker bench (seed {seed}{}{}{}{})...",
            if remote { ", remote" } else { "" },
            if shards > 1 {
                format!(", {shards} shards")
            } else {
                String::new()
            },
            if engines > 0 {
                format!(", {engines} bulk engines")
            } else {
                String::new()
            },
            if store { ", store phases" } else { "" }
        );
        if federated {
            eprintln!("  federated phases: 1 vs {replicas} replicas");
        }
        let report = seu_eval::run_broker_bench_config(&seu_eval::BrokerBenchConfig {
            remote,
            shards,
            engines,
            trace_sample,
            zipf,
            no_cache,
            concurrency: concurrency.clone(),
            store,
            federated,
            replicas,
            ..seu_eval::BrokerBenchConfig::new(seed, docs_base, n_queries)
        });
        print!("{}", report.to_text());
        let path = bench_out
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from("BENCH_broker.json"));
        match std::fs::write(&path, report.to_json()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        println!();
        if command == "bench-broker" {
            emit_metrics(stats, metrics_out.as_deref());
            return;
        }
    }

    eprintln!("generating synthetic datasets (seed {seed})...");
    let ds = seu_corpus::paper_datasets(seed);
    let config = EvalConfig::default();

    let mut ran = false;
    if run("diagnostics") {
        print!("{}", run_workload_diagnostics(&ds).text);
        println!();
        ran = true;
    }
    if run("tables-1-6") {
        let out = run_main_tables(&ds, &config);
        print!("{}", out.text);
        dump_csv("tables_1_6", &out);
        ran = true;
    }
    if run("tables-7-9") {
        let out = run_quantized_tables(&ds, &config);
        print!("{}", out.text);
        dump_csv("tables_7_9", &out);
        ran = true;
    }
    if run("tables-10-12") {
        let out = run_triplet_tables(&ds, &config);
        print!("{}", out.text);
        dump_csv("tables_10_12", &out);
        ran = true;
    }
    if run("scalability") {
        print!("{}", run_scalability(&ds, seed).text);
        println!();
        ran = true;
    }
    if run("guarantee") {
        print!("{}", run_guarantee(&ds, &config.thresholds).text);
        println!();
        ran = true;
    }
    if run("ablation-subranges") {
        print!("{}", run_ablation_subranges(&ds, &config).text);
        ran = true;
    }
    if run("ablation-disjoint") {
        print!("{}", run_ablation_disjoint(&ds, &config).text);
        ran = true;
    }
    if run("ablation-grid") {
        print!("{}", run_ablation_grid(&ds, &config).text);
        ran = true;
    }
    if run("ranking") {
        let queries: Vec<Vec<String>> = ds.queries.iter().take(1500).cloned().collect();
        print!("{}", run_many_database_ranking(seed, &queries, 0.15).text);
        println!();
        ran = true;
    }
    if run("long-queries") {
        print!("{}", run_long_queries(&ds, seed, &config).text);
        ran = true;
    }
    if run("hierarchy") {
        let queries: Vec<Vec<String>> = ds.queries.iter().take(800).cloned().collect();
        print!("{}", run_hierarchy(seed, &queries, 0.15).text);
        println!();
        ran = true;
    }
    if run("selection") {
        print!("{}", run_selection_quality(&ds, &config.thresholds).text);
        println!();
        ran = true;
    }
    if run("gloss-bounds") {
        print!("{}", run_gloss_bounds(&ds, &config.thresholds).text);
        println!();
        ran = true;
    }
    if run("dependence") {
        print!("{}", run_dependence(&ds, &config).text);
        println!();
        ran = true;
    }
    if run("binary") {
        print!("{}", run_binary_baseline(&ds, &config).text);
        println!();
        ran = true;
    }
    if run("policies") {
        print!("{}", run_policy_sweep(&ds, 0.2, 1500).text);
        println!();
        ran = true;
    }
    if run("weighting") {
        print!("{}", run_weighting_robustness(&ds, &config).text);
        ran = true;
    }
    if run("exact-percentiles") {
        print!("{}", run_exact_percentiles(&ds, &config).text);
        println!();
        ran = true;
    }
    if !ran {
        usage(&format!("unknown command {command}"));
    }
    emit_metrics(stats, metrics_out.as_deref());
}

/// Honors `--stats` / `--metrics-out` after the experiments run.
fn emit_metrics(stats: bool, metrics_out: Option<&std::path::Path>) {
    if !stats && metrics_out.is_none() {
        return;
    }
    let snapshot = seu_obs::global().snapshot();
    if stats {
        print!("--- metrics ---\n{}", snapshot.to_text());
    }
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(path, snapshot.to_json()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--csv DIR] [tables-1-6|tables-7-9|tables-10-12|scalability|guarantee|\
         ablation-subranges|ablation-disjoint|ablation-grid|ranking|long-queries|\
         hierarchy|selection|gloss-bounds|dependence|binary|policies|weighting|\
         exact-percentiles|diagnostics|bench-broker|all] [--seed N] \
         [--bench-out PATH] [--docs-base N] [--queries N] [--remote] [--shards N] \
         [--engines N] [--store] [--trace-sample] [--zipf S] [--no-cache] \
         [--federated] [--replicas N] [--concurrency N,N,...] [--stats] \
         [--metrics-out PATH]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
