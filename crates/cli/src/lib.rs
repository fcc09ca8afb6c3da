//! Implementation of the `seu` command-line tool.
//!
//! The binary (`src/bin/seu.rs`) is a thin wrapper; everything testable
//! lives here: argument parsing, command dispatch, and the commands
//! themselves, which write their human-readable output to any
//! `io::Write` so tests can capture it.
//!
//! ```text
//! seu index <dir|mbox-file> -o engine.bin       build + persist an engine
//! seu repr engine.bin -o repr.bin [--quantize]  build + ship a representative
//! seu estimate repr.bin -q "query" [-t 0.2]     usefulness from metadata only
//! seu search engine.bin -q "query" [-t T|-k K]  search one engine
//! seu broker e1.bin e2.bin … -q "query" [-t T]  select + search + merge
//! seu serve e1.bin … --listen addr [--remote h:p]…  networked broker + HTTP admin
//! seu serve … --join cluster.hosts              also join a federation as a replica
//! seu front-door --replica id=h:p … --listen addr   two-tier federation front-door
//! seu serve-engine e.bin --listen addr          serve one engine over TCP
//! seu refresh e1.bin … --repr-dir d [--stale-only]  re-ship representatives
//! seu snapshot e1.bin … --store reg/            persist a registry cut to a store
//! seu restore --store reg/ [-q "query"]         rebuild a registry from a store
//! ```
//!
//! `seu serve --store reg/` (with no engines or remotes) restores the
//! registry from the store at startup and serves it cold: entries come
//! up detached and hydrate lazily on the first plan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{parse, Command, Invocation, ObsOptions};

use std::io;

/// Runs a parsed invocation: tracing flags are applied first (they
/// configure the process-global tracer the broker reports into), then
/// the command itself, then the observability flags (`--stats` prints a
/// snapshot, `--metrics-out` writes it as JSON). Metrics are emitted
/// even when the command fails, so a crash still leaves its counters
/// behind.
pub fn run(invocation: &Invocation, out: &mut dyn io::Write) -> Result<(), String> {
    configure_tracing(&invocation.obs)?;
    let result = run_command(&invocation.command, out);
    emit_metrics(&invocation.obs, out)?;
    result
}

/// Applies `--trace-sample`, `--slow-ms`, and `--trace-out` to the
/// process-global tracer. Unset flags leave the tracer's defaults
/// (sample 1-in-64, slow at 500ms, slow-query lines to stderr).
fn configure_tracing(obs: &ObsOptions) -> Result<(), String> {
    let tracer = seu_obs::tracer();
    if let Some(rate) = obs.trace_sample {
        tracer.set_sample_rate(rate);
    }
    if let Some(ms) = obs.slow_ms {
        tracer.set_slow_threshold(std::time::Duration::from_millis(ms));
    }
    if let Some(path) = &obs.trace_out {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        tracer.set_slow_log_file(Some(file));
    }
    Ok(())
}

fn emit_metrics(obs: &ObsOptions, out: &mut dyn io::Write) -> Result<(), String> {
    if !obs.stats && obs.metrics_out.is_none() {
        return Ok(());
    }
    // Eagerly register the core instrument families so every exposition
    // has a stable set of series (zero-valued when untouched) and
    // dashboards never see names flicker in and out across runs.
    seu_engine::search::register_metrics();
    seu_metasearch::broker::register_metrics();
    seu_core::subrange::register_metrics();
    seu_net::register_metrics();
    seu_metasearch::federation::register_metrics();
    let snapshot = seu_obs::global().snapshot();
    if obs.stats {
        write!(out, "--- metrics ---\n{}", snapshot.to_text())
            .map_err(|e| format!("writing metrics: {e}"))?;
    }
    if let Some(path) = &obs.metrics_out {
        std::fs::write(path, snapshot.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs a parsed command, writing human-readable output to `out`.
pub fn run_command(command: &Command, out: &mut dyn io::Write) -> Result<(), String> {
    match command {
        Command::Index {
            input,
            output,
            stem,
        } => commands::index(input, output, *stem, out),
        Command::Repr {
            engine,
            output,
            quantize,
        } => commands::repr(engine, output, *quantize, out),
        Command::Estimate {
            repr,
            query,
            threshold,
        } => commands::estimate(repr, query, *threshold, out),
        Command::Search {
            engine,
            query,
            threshold,
            top_k,
        } => commands::search(engine, query, *threshold, *top_k, out),
        Command::Broker {
            engines,
            query,
            threshold,
            shards,
            no_cache,
        } => commands::broker(engines, query, *threshold, *shards, *no_cache, out),
        Command::Serve {
            engines,
            remotes,
            listen,
            store,
            shards,
            no_cache,
            join,
        } => commands::serve(
            engines,
            remotes,
            listen,
            store.as_deref(),
            *shards,
            *no_cache,
            join.as_deref(),
            out,
        ),
        Command::FrontDoor {
            replicas,
            hosts_file,
            engines,
            listen,
            vnodes,
            replication,
        } => commands::front_door(
            replicas,
            hosts_file.as_deref(),
            engines,
            listen,
            *vnodes,
            *replication,
            out,
        ),
        Command::ServeEngine {
            engine,
            listen,
            name,
            workers,
        } => {
            let config = seu_net::ServerConfig {
                workers: *workers,
                ..seu_net::ServerConfig::default()
            };
            commands::serve_engine(engine, name.as_deref(), listen, config, out)
        }
        Command::Refresh {
            engines,
            repr_dir,
            stale_only,
        } => commands::refresh(engines, repr_dir, *stale_only, out),
        Command::Snapshot {
            engines,
            store,
            shards,
        } => commands::snapshot(engines, store, *shards, out),
        Command::Restore {
            store,
            query,
            threshold,
            shards,
            no_cache,
        } => commands::restore(store, query.as_deref(), *threshold, *shards, *no_cache, out),
    }
}
