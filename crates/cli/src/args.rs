//! Hand-rolled argument parsing (no external CLI crates).

use std::path::PathBuf;

/// A fully parsed `seu` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `seu index <dir|mbox> -o engine.bin [--stem]`
    Index {
        /// Directory of documents or an mbox file.
        input: PathBuf,
        /// Output engine file.
        output: PathBuf,
        /// Apply the Porter stemmer during analysis.
        stem: bool,
    },
    /// `seu repr <engine.bin> -o repr.bin [--quantize]`
    Repr {
        /// Persisted engine file.
        engine: PathBuf,
        /// Output representative file.
        output: PathBuf,
        /// Round-trip every number through the one-byte codec first.
        quantize: bool,
    },
    /// `seu estimate <repr.bin> -q "..." [-t 0.2]`
    Estimate {
        /// Representative file.
        repr: PathBuf,
        /// Query text.
        query: String,
        /// Similarity threshold.
        threshold: f64,
    },
    /// `seu search <engine.bin> -q "..." [-t T] [-k K]`
    Search {
        /// Persisted engine file.
        engine: PathBuf,
        /// Query text.
        query: String,
        /// Similarity threshold (used when `top_k` is `None`).
        threshold: f64,
        /// Top-k mode instead of threshold mode.
        top_k: Option<usize>,
    },
    /// `seu broker <engine.bin>... -q "..." [-t T] [--shards N] [--no-cache]`
    Broker {
        /// Persisted engine files.
        engines: Vec<PathBuf>,
        /// Query text.
        query: String,
        /// Similarity threshold.
        threshold: f64,
        /// Registry shard count (1 = flat).
        shards: usize,
        /// Run the broker without its query cache.
        no_cache: bool,
    },
    /// `seu serve <engine.bin>... [--remote <host:port>]... --listen <addr>
    /// [--store <dir>] [--shards N] [--no-cache] [--join <hosts-file>]`
    Serve {
        /// Persisted engine files to register locally.
        engines: Vec<PathBuf>,
        /// `host:port` addresses of engine servers to register remotely
        /// (with push-invalidation subscriptions).
        remotes: Vec<String>,
        /// Address the HTTP admin server binds (port 0 for ephemeral).
        listen: String,
        /// Persistent representative store to write through — and, when
        /// no engines or remotes are given, to restore the registry
        /// from at startup.
        store: Option<PathBuf>,
        /// Registry shard count (1 = flat).
        shards: usize,
        /// Run the broker without its query cache.
        no_cache: bool,
        /// Hosts file to join as a federation replica: the broker also
        /// binds a replica-protocol listener and announces
        /// `id endpoint` into this file for front-doors watching it.
        join: Option<PathBuf>,
    },
    /// `seu front-door [--replica <[id=]host:port>]... [--hosts-file <path>]
    /// [--engine <[name=]host:port>]... --listen <addr> [--vnodes N]
    /// [--replication N]`
    FrontDoor {
        /// Static replica list: `id=host:port` (or bare `host:port`,
        /// which uses the endpoint as the ring id).
        replicas: Vec<String>,
        /// Hosts file to watch for replicas joining and leaving
        /// (`seu serve --join` announces into it).
        hosts_file: Option<PathBuf>,
        /// Engine servers to register through the front door:
        /// `name=host:port` (or bare `host:port`, which dials the
        /// engine for its advertised name).
        engines: Vec<String>,
        /// Address the HTTP admin server binds (port 0 for ephemeral).
        listen: String,
        /// Virtual nodes per replica on the placement ring (0 = default).
        vnodes: usize,
        /// How many ring candidates hold each engine (primary + standbys).
        replication: usize,
    },
    /// `seu snapshot <engine.bin>... --store <dir> [--shards N]`
    Snapshot {
        /// Persisted engine files to register and persist.
        engines: Vec<PathBuf>,
        /// Store directory the registry cut is committed to.
        store: PathBuf,
        /// Registry shard count (1 = flat).
        shards: usize,
    },
    /// `seu restore --store <dir> [-q <query>] [-t T] [--shards N]
    /// [--no-cache]`
    Restore {
        /// Store directory holding the committed manifest.
        store: PathBuf,
        /// Optional query to estimate over the restored registry.
        query: Option<String>,
        /// Similarity threshold for the query.
        threshold: f64,
        /// Registry shard count (1 = flat).
        shards: usize,
        /// Run the broker without its query cache.
        no_cache: bool,
    },
    /// `seu serve-engine <engine.bin> --listen <addr> [--name <name>]
    /// [--workers N]`
    ServeEngine {
        /// Persisted engine file to serve.
        engine: PathBuf,
        /// Address the TCP engine server binds (port 0 for ephemeral).
        listen: String,
        /// Advertised engine name (defaults to the file stem).
        name: Option<String>,
        /// Event-loop worker threads (0 = auto).
        workers: usize,
    },
    /// `seu refresh <engine.bin>... --repr-dir <dir> [--stale-only]`
    Refresh {
        /// Persisted engine files.
        engines: Vec<PathBuf>,
        /// Directory the portable representatives live in (one
        /// `<engine-stem>.repr` per engine).
        repr_dir: PathBuf,
        /// Skip engines whose existing representative still matches the
        /// collection's totals.
        stale_only: bool,
    },
}

/// Observability options shared by every subcommand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsOptions {
    /// Print a metrics snapshot after the command runs.
    pub stats: bool,
    /// Write the metrics snapshot as JSON to this path.
    pub metrics_out: Option<PathBuf>,
    /// Append slow-query log lines to this file instead of stderr.
    pub trace_out: Option<PathBuf>,
    /// Slow-query threshold in milliseconds (default 500).
    pub slow_ms: Option<u64>,
    /// Trace sampling: keep one trace per this many requests
    /// (0 = never, 1 = every request; default 64).
    pub trace_sample: Option<u64>,
}

/// A parsed command plus the flags that apply to all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The subcommand.
    pub command: Command,
    /// Observability options.
    pub obs: ObsOptions,
}

/// The usage string printed on parse failure.
pub const USAGE: &str = "\
usage:
  seu index <dir|mbox-file> -o <engine.bin> [--stem]
  seu repr <engine.bin> -o <repr.bin> [--quantize]
  seu estimate <repr.bin> -q <query> [-t <threshold>]
  seu search <engine.bin> -q <query> [-t <threshold>] [-k <top-k>]
  seu broker <engine.bin>... -q <query> [-t <threshold>] [--shards <n>] [--no-cache]
  seu serve <engine.bin>... [--remote <host:port>]... --listen <addr> [--store <dir>] [--shards <n>] [--no-cache] [--join <hosts-file>]
  seu front-door [--replica <[id=]host:port>]... [--hosts-file <path>] [--engine <[name=]host:port>]... --listen <addr> [--vnodes <n>] [--replication <n>]
  seu serve-engine <engine.bin> --listen <addr> [--name <name>] [--workers <n>]
  seu refresh <engine.bin>... --repr-dir <dir> [--stale-only]
  seu snapshot <engine.bin>... --store <dir> [--shards <n>]
  seu restore --store <dir> [-q <query>] [-t <threshold>] [--shards <n>] [--no-cache]
global flags:
  --stats               print a metrics snapshot after the command
  --metrics-out <path>  write the metrics snapshot as JSON
  --trace-out <path>    append slow-query log lines to this file (default stderr)
  --slow-ms <n>         slow-query threshold in milliseconds (default 500)
  --trace-sample <n>    keep one trace per <n> requests (0 = never, 1 = all; default 64)";

struct Cursor {
    args: Vec<String>,
    pos: usize,
}

impl Cursor {
    fn next(&mut self) -> Option<&str> {
        let a = self.args.get(self.pos)?;
        self.pos += 1;
        Some(a)
    }

    fn value_for(&mut self, flag: &str) -> Result<String, String> {
        self.next()
            .map(str::to_string)
            .ok_or_else(|| format!("{flag} needs a value"))
    }
}

/// Parses a `seu` command line (without the program name).
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut cur = Cursor {
        args: args.to_vec(),
        pos: 0,
    };
    let sub = cur
        .next()
        .ok_or_else(|| "missing command".to_string())?
        .to_string();

    // Shared option state.
    let mut positionals: Vec<PathBuf> = Vec::new();
    let mut output: Option<PathBuf> = None;
    let mut query: Option<String> = None;
    let mut threshold = 0.2f64;
    let mut top_k: Option<usize> = None;
    let mut stem = false;
    let mut quantize = false;
    let mut repr_dir: Option<PathBuf> = None;
    let mut store_path: Option<PathBuf> = None;
    let mut stale_only = false;
    let mut listen: Option<String> = None;
    let mut remotes: Vec<String> = Vec::new();
    let mut name: Option<String> = None;
    let mut shards = 1usize;
    let mut no_cache = false;
    let mut workers = 0usize;
    let mut join: Option<PathBuf> = None;
    let mut hosts_file: Option<PathBuf> = None;
    let mut replicas: Vec<String> = Vec::new();
    let mut engine_endpoints: Vec<String> = Vec::new();
    let mut vnodes = 0usize;
    let mut replication = 2usize;
    let mut obs = ObsOptions::default();

    while let Some(arg) = cur.next().map(str::to_string) {
        match arg.as_str() {
            "-o" | "--output" => output = Some(PathBuf::from(cur.value_for("-o")?)),
            "--stats" => obs.stats = true,
            "--metrics-out" => {
                obs.metrics_out = Some(PathBuf::from(cur.value_for("--metrics-out")?));
            }
            "--trace-out" => {
                obs.trace_out = Some(PathBuf::from(cur.value_for("--trace-out")?));
            }
            "--slow-ms" => {
                obs.slow_ms = Some(
                    cur.value_for("--slow-ms")?
                        .parse()
                        .map_err(|_| "--slow-ms needs an integer".to_string())?,
                );
            }
            "--trace-sample" => {
                obs.trace_sample = Some(
                    cur.value_for("--trace-sample")?
                        .parse()
                        .map_err(|_| "--trace-sample needs an integer".to_string())?,
                );
            }
            "-q" | "--query" => query = Some(cur.value_for("-q")?),
            "-t" | "--threshold" => {
                threshold = cur
                    .value_for("-t")?
                    .parse()
                    .map_err(|_| "-t needs a number".to_string())?;
            }
            "-k" | "--top-k" => {
                top_k = Some(
                    cur.value_for("-k")?
                        .parse()
                        .map_err(|_| "-k needs an integer".to_string())?,
                );
            }
            "--stem" => stem = true,
            "--quantize" => quantize = true,
            "--repr-dir" => repr_dir = Some(PathBuf::from(cur.value_for("--repr-dir")?)),
            "--store" => store_path = Some(PathBuf::from(cur.value_for("--store")?)),
            "--stale-only" => stale_only = true,
            "--no-cache" => no_cache = true,
            "--listen" => listen = Some(cur.value_for("--listen")?),
            "--remote" => remotes.push(cur.value_for("--remote")?),
            "--name" => name = Some(cur.value_for("--name")?),
            "--shards" => {
                shards = cur
                    .value_for("--shards")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--shards needs a positive integer".to_string())?;
            }
            "--join" => join = Some(PathBuf::from(cur.value_for("--join")?)),
            "--hosts-file" => hosts_file = Some(PathBuf::from(cur.value_for("--hosts-file")?)),
            "--replica" => replicas.push(cur.value_for("--replica")?),
            "--engine" => engine_endpoints.push(cur.value_for("--engine")?),
            "--vnodes" => {
                vnodes = cur
                    .value_for("--vnodes")?
                    .parse()
                    .map_err(|_| "--vnodes needs an integer".to_string())?;
            }
            "--replication" => {
                replication = cur
                    .value_for("--replication")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--replication needs a positive integer".to_string())?;
            }
            "--workers" => {
                workers = cur
                    .value_for("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}"));
            }
            other => positionals.push(PathBuf::from(other)),
        }
    }

    let one_positional = |what: &str| -> Result<PathBuf, String> {
        match positionals.len() {
            1 => Ok(positionals[0].clone()),
            0 => Err(format!("missing {what}")),
            _ => Err(format!("expected exactly one {what}")),
        }
    };
    let need_query = || {
        query
            .clone()
            .ok_or_else(|| "missing -q <query>".to_string())
    };

    let command = match sub.as_str() {
        "index" => Command::Index {
            input: one_positional("input path")?,
            output: output.ok_or("missing -o <engine.bin>")?,
            stem,
        },
        "repr" => Command::Repr {
            engine: one_positional("engine file")?,
            output: output.ok_or("missing -o <repr.bin>")?,
            quantize,
        },
        "estimate" => Command::Estimate {
            repr: one_positional("representative file")?,
            query: need_query()?,
            threshold,
        },
        "search" => Command::Search {
            engine: one_positional("engine file")?,
            query: need_query()?,
            threshold,
            top_k,
        },
        "broker" => {
            if positionals.is_empty() {
                return Err("broker needs at least one engine file".into());
            }
            Command::Broker {
                engines: positionals,
                query: need_query()?,
                threshold,
                shards,
                no_cache,
            }
        }
        "serve" => {
            // With --join an empty broker is the normal case: a
            // federation replica starts bare and the front-door
            // installs engines onto it.
            if positionals.is_empty()
                && remotes.is_empty()
                && store_path.is_none()
                && join.is_none()
            {
                return Err(
                    "serve needs at least one engine file, --remote, --store, or --join".into(),
                );
            }
            Command::Serve {
                engines: positionals,
                remotes,
                listen: listen.ok_or("missing --listen <addr>")?,
                store: store_path,
                shards,
                no_cache,
                join,
            }
        }
        "front-door" => {
            if replicas.is_empty() && hosts_file.is_none() {
                return Err("front-door needs at least one --replica or a --hosts-file".into());
            }
            for spec in &replicas {
                let id = spec.split_once('=').map_or(spec.as_str(), |(id, _)| id);
                if id.contains('#') {
                    return Err(format!("replica id {id:?} must not contain '#'"));
                }
            }
            Command::FrontDoor {
                replicas,
                hosts_file,
                engines: engine_endpoints,
                listen: listen.ok_or("missing --listen <addr>")?,
                vnodes,
                replication,
            }
        }
        "serve-engine" => Command::ServeEngine {
            engine: one_positional("engine file")?,
            listen: listen.ok_or("missing --listen <addr>")?,
            name,
            workers,
        },
        "refresh" => {
            if positionals.is_empty() {
                return Err("refresh needs at least one engine file".into());
            }
            Command::Refresh {
                engines: positionals,
                repr_dir: repr_dir.ok_or("missing --repr-dir <dir>")?,
                stale_only,
            }
        }
        "snapshot" => {
            if positionals.is_empty() {
                return Err("snapshot needs at least one engine file".into());
            }
            Command::Snapshot {
                engines: positionals,
                store: store_path.ok_or("missing --store <dir>")?,
                shards,
            }
        }
        "restore" => Command::Restore {
            store: store_path.ok_or("missing --store <dir>")?,
            query: query.clone(),
            threshold,
            shards,
            no_cache,
        },
        other => return Err(format!("unknown command {other}")),
    };
    Ok(Invocation { command, obs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn p(args: &[&str]) -> Result<Invocation, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn index_parses() {
        assert_eq!(
            p(&["index", "docs/", "-o", "e.bin", "--stem"])
                .unwrap()
                .command,
            Command::Index {
                input: "docs/".into(),
                output: "e.bin".into(),
                stem: true,
            }
        );
        assert!(p(&["index", "docs/"]).unwrap_err().contains("-o"));
    }

    #[test]
    fn repr_parses() {
        assert_eq!(
            p(&["repr", "e.bin", "-o", "r.bin"]).unwrap().command,
            Command::Repr {
                engine: "e.bin".into(),
                output: "r.bin".into(),
                quantize: false,
            }
        );
        assert!(matches!(
            p(&["repr", "e.bin", "-o", "r.bin", "--quantize"])
                .unwrap()
                .command,
            Command::Repr { quantize: true, .. }
        ));
    }

    #[test]
    fn estimate_and_search_parse() {
        assert_eq!(
            p(&["estimate", "r.bin", "-q", "mushroom soup", "-t", "0.3"])
                .unwrap()
                .command,
            Command::Estimate {
                repr: "r.bin".into(),
                query: "mushroom soup".into(),
                threshold: 0.3,
            }
        );
        assert_eq!(
            p(&["search", "e.bin", "-q", "soup", "-k", "5"])
                .unwrap()
                .command,
            Command::Search {
                engine: "e.bin".into(),
                query: "soup".into(),
                threshold: 0.2,
                top_k: Some(5),
            }
        );
    }

    #[test]
    fn broker_takes_many_engines() {
        match p(&["broker", "a.bin", "b.bin", "c.bin", "-q", "x"])
            .unwrap()
            .command
        {
            Command::Broker {
                engines, shards, ..
            } => {
                assert_eq!(engines.len(), 3);
                assert_eq!(shards, 1);
            }
            other => panic!("{other:?}"),
        }
        assert!(p(&["broker", "-q", "x"]).unwrap_err().contains("engine"));
        assert!(matches!(
            p(&["broker", "a.bin", "-q", "x", "--shards", "8"])
                .unwrap()
                .command,
            Command::Broker { shards: 8, .. }
        ));
        assert!(p(&["broker", "a.bin", "-q", "x", "--shards", "0"])
            .unwrap_err()
            .contains("positive"));
        assert!(matches!(
            p(&["broker", "a.bin", "-q", "x", "--no-cache"])
                .unwrap()
                .command,
            Command::Broker { no_cache: true, .. }
        ));
    }

    #[test]
    fn refresh_parses() {
        assert_eq!(
            p(&["refresh", "a.bin", "b.bin", "--repr-dir", "reprs/"])
                .unwrap()
                .command,
            Command::Refresh {
                engines: vec!["a.bin".into(), "b.bin".into()],
                repr_dir: "reprs/".into(),
                stale_only: false,
            }
        );
        assert!(matches!(
            p(&["refresh", "a.bin", "--repr-dir", "r/", "--stale-only"])
                .unwrap()
                .command,
            Command::Refresh {
                stale_only: true,
                ..
            }
        ));
        assert!(p(&["refresh", "a.bin"]).unwrap_err().contains("--repr-dir"));
        assert!(p(&["refresh", "--repr-dir", "r/"])
            .unwrap_err()
            .contains("engine"));
    }

    #[test]
    fn serve_parses() {
        assert_eq!(
            p(&[
                "serve",
                "a.bin",
                "--remote",
                "127.0.0.1:4001",
                "--remote",
                "127.0.0.1:4002",
                "--listen",
                "127.0.0.1:8080",
            ])
            .unwrap()
            .command,
            Command::Serve {
                engines: vec!["a.bin".into()],
                remotes: vec!["127.0.0.1:4001".into(), "127.0.0.1:4002".into()],
                listen: "127.0.0.1:8080".into(),
                store: None,
                shards: 1,
                no_cache: false,
                join: None,
            }
        );
        assert!(matches!(
            p(&["serve", "a.bin", "--listen", "l:0", "--shards", "16"])
                .unwrap()
                .command,
            Command::Serve { shards: 16, .. }
        ));
        assert!(matches!(
            p(&["serve", "a.bin", "--listen", "l:0", "--no-cache"])
                .unwrap()
                .command,
            Command::Serve { no_cache: true, .. }
        ));
        // Remote-only brokers are legal; engine-less and remote-less is not.
        assert!(matches!(
            p(&["serve", "--remote", "h:1", "--listen", "l:0"])
                .unwrap()
                .command,
            Command::Serve { engines, .. } if engines.is_empty()
        ));
        assert!(p(&["serve", "--listen", "l:0"])
            .unwrap_err()
            .contains("engine"));
        assert!(p(&["serve", "a.bin"]).unwrap_err().contains("--listen"));
        // A store-only serve restores its registry from the store.
        assert!(matches!(
            p(&["serve", "--store", "reg/", "--listen", "l:0"])
                .unwrap()
                .command,
            Command::Serve { store: Some(s), engines, .. }
                if s == Path::new("reg/") && engines.is_empty()
        ));
        assert!(matches!(
            p(&["serve", "a.bin", "--listen", "l:0", "--store", "reg/"])
                .unwrap()
                .command,
            Command::Serve { store: Some(_), .. }
        ));
    }

    #[test]
    fn serve_join_parses() {
        assert!(matches!(
            p(&["serve", "a.bin", "--listen", "l:0", "--join", "cluster.hosts"])
                .unwrap()
                .command,
            Command::Serve { join: Some(j), .. } if j == Path::new("cluster.hosts")
        ));
        assert!(matches!(
            p(&["serve", "a.bin", "--listen", "l:0"]).unwrap().command,
            Command::Serve { join: None, .. }
        ));
        // A bare replica: no engines at all is legal with --join (the
        // front-door installs engines onto it) but an error without.
        assert!(matches!(
            p(&["serve", "--listen", "l:0", "--join", "cluster.hosts"])
                .unwrap()
                .command,
            Command::Serve { ref engines, join: Some(_), .. } if engines.is_empty()
        ));
        assert!(p(&["serve", "--listen", "l:0"]).is_err());
    }

    #[test]
    fn front_door_parses() {
        assert_eq!(
            p(&[
                "front-door",
                "--replica",
                "r0=127.0.0.1:9000",
                "--replica",
                "127.0.0.1:9001",
                "--engine",
                "news=127.0.0.1:7000",
                "--listen",
                "127.0.0.1:8080",
                "--vnodes",
                "64",
                "--replication",
                "3",
            ])
            .unwrap()
            .command,
            Command::FrontDoor {
                replicas: vec!["r0=127.0.0.1:9000".into(), "127.0.0.1:9001".into()],
                hosts_file: None,
                engines: vec!["news=127.0.0.1:7000".into()],
                listen: "127.0.0.1:8080".into(),
                vnodes: 64,
                replication: 3,
            }
        );
        // Hosts-file-only discovery is legal; no replica source is not.
        assert!(matches!(
            p(&["front-door", "--hosts-file", "cluster.hosts", "--listen", "l:0"])
                .unwrap()
                .command,
            Command::FrontDoor { hosts_file: Some(h), replicas, replication: 2, .. }
                if h == Path::new("cluster.hosts") && replicas.is_empty()
        ));
        assert!(p(&["front-door", "--listen", "l:0"])
            .unwrap_err()
            .contains("--replica"));
        assert!(p(&["front-door", "--replica", "r0=h:1"])
            .unwrap_err()
            .contains("--listen"));
        // '#' structures ring point hashes, so ids must not contain it.
        assert!(
            p(&["front-door", "--replica", "r#0=h:1", "--listen", "l:0"])
                .unwrap_err()
                .contains("'#'")
        );
        assert!(p(&[
            "front-door",
            "--replica",
            "h:1",
            "--listen",
            "l:0",
            "--replication",
            "0"
        ])
        .unwrap_err()
        .contains("--replication"));
    }

    #[test]
    fn snapshot_parses() {
        assert_eq!(
            p(&["snapshot", "a.bin", "b.bin", "--store", "reg/", "--shards", "4"])
                .unwrap()
                .command,
            Command::Snapshot {
                engines: vec!["a.bin".into(), "b.bin".into()],
                store: "reg/".into(),
                shards: 4,
            }
        );
        assert!(p(&["snapshot", "a.bin"]).unwrap_err().contains("--store"));
        assert!(p(&["snapshot", "--store", "reg/"])
            .unwrap_err()
            .contains("engine"));
    }

    #[test]
    fn restore_parses() {
        assert_eq!(
            p(&["restore", "--store", "reg/"]).unwrap().command,
            Command::Restore {
                store: "reg/".into(),
                query: None,
                threshold: 0.2,
                shards: 1,
                no_cache: false,
            }
        );
        assert_eq!(
            p(&[
                "restore",
                "--store",
                "reg/",
                "-q",
                "soup",
                "-t",
                "0.1",
                "--shards",
                "2",
                "--no-cache",
            ])
            .unwrap()
            .command,
            Command::Restore {
                store: "reg/".into(),
                query: Some("soup".into()),
                threshold: 0.1,
                shards: 2,
                no_cache: true,
            }
        );
        assert!(p(&["restore"]).unwrap_err().contains("--store"));
    }

    #[test]
    fn serve_engine_parses() {
        assert_eq!(
            p(&["serve-engine", "a.bin", "--listen", "127.0.0.1:0"])
                .unwrap()
                .command,
            Command::ServeEngine {
                engine: "a.bin".into(),
                listen: "127.0.0.1:0".into(),
                name: None,
                workers: 0,
            }
        );
        assert!(matches!(
            p(&["serve-engine", "a.bin", "--listen", "l:0", "--name", "news"])
                .unwrap()
                .command,
            Command::ServeEngine { name: Some(n), .. } if n == "news"
        ));
        assert!(matches!(
            p(&["serve-engine", "a.bin", "--listen", "l:0", "--workers", "3"])
                .unwrap()
                .command,
            Command::ServeEngine { workers: 3, .. }
        ));
        assert!(
            p(&["serve-engine", "a.bin", "--listen", "l:0", "--threaded"])
                .unwrap_err()
                .contains("unknown flag"),
            "--threaded is not a serve-engine flag"
        );
        assert!(p(&["serve-engine", "a.bin"])
            .unwrap_err()
            .contains("--listen"));
    }

    #[test]
    fn obs_flags_parse_on_any_command() {
        let inv = p(&["search", "e.bin", "-q", "soup", "--stats"]).unwrap();
        assert!(inv.obs.stats);
        assert_eq!(inv.obs.metrics_out, None);

        let inv = p(&[
            "estimate",
            "r.bin",
            "-q",
            "x",
            "--metrics-out",
            "m.json",
            "--stats",
        ])
        .unwrap();
        assert!(inv.obs.stats);
        assert_eq!(inv.obs.metrics_out, Some("m.json".into()));

        // Defaults stay off.
        let inv = p(&["search", "e.bin", "-q", "soup"]).unwrap();
        assert_eq!(inv.obs, ObsOptions::default());
        assert!(p(&["search", "e.bin", "-q", "x", "--metrics-out"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn trace_flags_parse() {
        let inv = p(&[
            "serve",
            "a.bin",
            "--listen",
            "l:0",
            "--trace-out",
            "slow.log",
            "--slow-ms",
            "250",
            "--trace-sample",
            "1",
        ])
        .unwrap();
        assert_eq!(inv.obs.trace_out, Some("slow.log".into()));
        assert_eq!(inv.obs.slow_ms, Some(250));
        assert_eq!(inv.obs.trace_sample, Some(1));

        // Defaults stay unset so the tracer's own defaults apply.
        let inv = p(&["search", "e.bin", "-q", "soup"]).unwrap();
        assert_eq!(inv.obs.trace_out, None);
        assert_eq!(inv.obs.slow_ms, None);
        assert_eq!(inv.obs.trace_sample, None);
        assert!(p(&["search", "e.bin", "-q", "x", "--slow-ms", "abc"])
            .unwrap_err()
            .contains("integer"));
    }

    #[test]
    fn errors_are_helpful() {
        assert!(p(&[]).unwrap_err().contains("missing command"));
        assert!(p(&["frobnicate"]).unwrap_err().contains("unknown command"));
        assert!(p(&["search", "e.bin"]).unwrap_err().contains("-q"));
        assert!(p(&["search", "e.bin", "-q", "x", "-t", "abc"])
            .unwrap_err()
            .contains("number"));
        assert!(p(&["search", "e.bin", "-q", "x", "--bogus"])
            .unwrap_err()
            .contains("unknown flag"));
    }
}
