//! The `commchar` binary: thin argument parsing over [`commchar::cli`].

use std::process::ExitCode;

use commchar::cli::{self, Common};

struct Args {
    positional: Vec<String>,
    common: Common,
    out: Option<String>,
    trace: Option<String>,
    jobs: usize,
    sim_jobs: Option<usize>,
    block_len: usize,
    streaming: bool,
    stream: bool,
    no_replay: bool,
    packed: bool,
    addr: String,
    serve_workers: usize,
    session_buffer: u64,
    idle_timeout: u64,
    poll_every: usize,
    shutdown: bool,
    help: bool,
}

/// The value after an integer flag: `--X needs a value` when it is
/// missing, `--X needs an integer` (plus `unit`, if any) when malformed.
fn int<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
    unit: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag} needs an integer{unit}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        common: Common::default(),
        out: None,
        trace: None,
        jobs: 0,
        sim_jobs: None,
        block_len: 0,
        streaming: false,
        stream: false,
        no_replay: false,
        packed: false,
        addr: "127.0.0.1:7411".to_string(),
        serve_workers: 0,
        session_buffer: 64 << 20,
        idle_timeout: 300,
        poll_every: 0,
        shutdown: false,
        help: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => args.jobs = int(&mut it, a, "")?,
            "--sim-jobs" => args.sim_jobs = Some(int(&mut it, a, "")?),
            "--block-len" => args.block_len = int(&mut it, a, "")?,
            "--streaming" => args.streaming = true,
            "--stream" => args.stream = true,
            "--no-replay" => args.no_replay = true,
            "--packed" => args.packed = true,
            "--procs" => args.common.procs = int(&mut it, a, "")?,
            "--scale" => {
                args.common.scale =
                    cli::parse_scale(it.next().ok_or("--scale needs a value")?).map_err(|e| e.0)?;
            }
            "--engine" => {
                args.common.engine = cli::parse_engine(it.next().ok_or("--engine needs a value")?)
                    .map_err(|e| e.0)?;
            }
            "--topology" => {
                args.common.topology =
                    cli::parse_topology(it.next().ok_or("--topology needs a value")?)
                        .map_err(|e| e.0)?;
            }
            "--routing" => {
                args.common.routing =
                    cli::parse_routing(it.next().ok_or("--routing needs a value")?)
                        .map_err(|e| e.0)?;
            }
            "--seed" => args.common.seed = int(&mut it, a, "")?,
            "--addr" => {
                args.addr = it.next().ok_or("--addr needs HOST:PORT")?.clone();
            }
            "--serve-workers" => args.serve_workers = int(&mut it, a, "")?,
            "--session-buffer" => args.session_buffer = int(&mut it, a, " (bytes)")?,
            "--idle-timeout" => args.idle_timeout = int(&mut it, a, " (seconds)")?,
            "--poll-every" => args.poll_every = int(&mut it, a, "")?,
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => args.help = true,
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?.clone()),
            "--trace" => args.trace = Some(it.next().ok_or("--trace needs a path")?.clone()),
            other if other.starts_with("--") => return Err(format!("unknown option {other:?}")),
            other => args.positional.push(other.to_string()),
        }
    }
    // `--sim-jobs` shards whichever simulators the command runs: the
    // execution-driven CC-NUMA machine behind shared-memory apps, and —
    // position-independent of `--engine`, so it is folded in after the
    // loop — the flit router's row bands when that engine is selected.
    if let Some(n) = args.sim_jobs {
        args.common.sim_jobs = n;
        args.common.engine = args.common.engine.with_sim_jobs(n);
    }
    Ok(args)
}

fn emit(text: &str, out: &Option<String>) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// Writes trace output in the format selected by `--packed`. Packed output
/// is binary, so it refuses to go to a terminal-bound stdout.
fn emit_trace(trace: &commchar::trace::CommTrace, args: &Args) -> Result<(), String> {
    if args.packed {
        let path = args.out.as_ref().ok_or("--packed output is binary; it needs --out FILE")?;
        let bytes = if args.block_len == 0 {
            commchar::tracestore::pack_trace(trace)
        } else {
            commchar::tracestore::writer::pack_trace_with_block_len(trace, args.block_len)
        };
        std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))
    } else {
        emit(&trace.to_jsonl(), &args.out)
    }
}

fn read_file(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))
}

fn read_trace(args: &Args) -> Result<Vec<u8>, String> {
    read_file(args.trace.as_ref().ok_or("this command needs --trace FILE")?)
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    if args.help {
        return emit(&cli::usage(), &None);
    }
    let cmd = args.positional.first().map(String::as_str);
    match cmd {
        Some("run") => {
            let app = args.positional.get(1).ok_or("run needs an application name")?;
            let (report, trace) = cli::cmd_run(app, args.common).map_err(|e| e.0)?;
            print!("{report}");
            if args.out.is_some() {
                emit_trace(&trace, &args)?;
            }
            Ok(())
        }
        Some("characterize") => {
            let text = if args.stream {
                let path = args.trace.as_ref().ok_or("--stream needs --trace FILE (packed)")?;
                cli::cmd_characterize_stream(path, args.jobs).map_err(|e| e.0)?
            } else if args.trace.is_some() {
                let input = read_trace(&args)?;
                if args.no_replay {
                    cli::cmd_characterize_trace_only(&input, args.jobs).map_err(|e| e.0)?
                } else {
                    cli::cmd_characterize_trace(
                        &input,
                        args.jobs,
                        args.common.engine,
                        args.common.topology,
                        args.common.routing,
                    )
                    .map_err(|e| e.0)?
                }
            } else {
                let app =
                    args.positional.get(1).ok_or("characterize needs an app or --trace FILE")?;
                cli::cmd_characterize_app(app, args.common, args.jobs).map_err(|e| e.0)?
            };
            emit(&text, &None)
        }
        Some("generate") => {
            let app = args.positional.get(1).ok_or("generate needs an application name")?;
            let trace = cli::cmd_generate_trace(app, args.common).map_err(|e| e.0)?;
            emit_trace(&trace, &args)
        }
        Some("replay") => {
            let input = read_trace(&args)?;
            let (topology, routing) = (args.common.topology, args.common.routing);
            let text = if args.streaming {
                cli::cmd_replay_streaming(&input, args.common.engine, topology, routing)
                    .map_err(|e| e.0)?
            } else {
                cli::cmd_replay(&input, args.common.engine, topology, routing).map_err(|e| e.0)?
            };
            emit(&text, &None)
        }
        Some("trace") => {
            let sub = args.positional.get(1).map(String::as_str);
            if !matches!(sub, Some("pack" | "cat" | "stat")) {
                return Err("trace needs a subcommand: pack | cat | stat".to_string());
            }
            let input = match args.positional.get(2) {
                Some(path) => read_file(path)?,
                None => read_trace(&args)?,
            };
            match sub {
                Some("pack") => {
                    let path = args
                        .out
                        .as_ref()
                        .ok_or("trace pack output is binary; it needs --out FILE")?;
                    let bytes = cli::cmd_trace_pack(&input, args.block_len).map_err(|e| e.0)?;
                    std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))
                }
                Some("cat") => emit(&cli::cmd_trace_cat(&input).map_err(|e| e.0)?, &args.out),
                _ => emit(&cli::cmd_trace_stat(&input).map_err(|e| e.0)?, &None),
            }
        }
        Some("suite") => {
            let (table, timing) = cli::cmd_suite(args.common, args.jobs).map_err(|e| e.0)?;
            eprint!("{timing}");
            emit(&table, &None)
        }
        Some("serve") => {
            let cfg = commchar::serve::ServeConfig {
                workers: args.serve_workers,
                fit_jobs: args.jobs,
                session_buffer: args.session_buffer,
                idle_timeout: std::time::Duration::from_secs(args.idle_timeout),
                ..Default::default()
            };
            let server = commchar::serve::Server::bind(&args.addr, cfg)
                .map_err(|e| format!("binding {}: {e}", args.addr))?;
            // The bound address goes out (and is flushed) before serving
            // so scripts can capture an ephemeral port from :0.
            println!("listening on {}", server.local_addr());
            use std::io::Write as _;
            std::io::stdout().flush().map_err(|e| e.to_string())?;
            let stats = server.run();
            eprintln!(
                "served {} frames / {} events over {} sessions ({} evictions) in {} ms",
                stats.frames, stats.events, stats.sessions_opened, stats.evictions, stats.uptime_ms
            );
            Ok(())
        }
        Some("serve-feed") => {
            let path = args.trace.as_ref().ok_or("this command needs --trace FILE")?;
            let (report, status) = if path == "-" {
                // `-` streams CCTRACE1 blocks straight off stdin, one at a
                // time, so a live producer can pipe into the server.
                cli::cmd_serve_feed_stream(
                    &args.addr,
                    std::io::stdin().lock(),
                    args.poll_every,
                    args.shutdown,
                )
                .map_err(|e| e.0)?
            } else {
                let input = read_file(path)?;
                cli::cmd_serve_feed(
                    &args.addr,
                    &input,
                    args.block_len,
                    args.poll_every,
                    args.shutdown,
                )
                .map_err(|e| e.0)?
            };
            eprint!("{status}");
            emit(&report, &args.out)
        }
        Some("help") | None => emit(&cli::usage(), &None),
        Some(other) => Err(format!("unknown command {other:?}; try `commchar help`")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
