//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--size full|tiny]`
//!
//! Sets a workload up several times (reporting the median as `setup_s`),
//! then runs passes for at most `--seconds` (at least one pass). With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! passes and prints the per-layer metrics plus the tracing overhead. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::spans::{spans_json, Tracer};
use perfbench::{
    curve_probe, curve_schedules, layer_metrics, layer_unit, median, peak_rss_mb, run_pass, setup,
    PassResult, Prepared, Size, WorkloadKind,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut size) =
        (None, 0, 10.0, false, Size::Full);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: ()| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad(()))?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad(()))? != 0,
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad(())),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, size })
}

/// Where the run writes its packed trace and span file: inside the build
/// directory of the checkout.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
        PathBuf::from,
    );
    target.join("perfbench-work")
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = work_dir();

    let mut setup_times = Vec::new();
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        drop(prepared.take());
        match setup(args.workload, args.size, args.seed, &work) {
            Ok(p) => prepared = Some(p),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        // The first set-up also pays for process start.
        let from = if rep == 0 { process_start } else { t };
        setup_times.push(from.elapsed().as_secs_f64());
    }
    let prepared: Prepared = prepared.expect("at least one set-up");
    let curve =
        (args.trace && args.workload == WorkloadKind::SmFlit).then(|| curve_schedules(args.size));

    let mut untraced: Vec<PassResult> = Vec::new();
    let mut traced: Vec<(PassResult, Tracer)> = Vec::new();
    // Passes run while the next one is expected to end within
    // `--seconds`, judged by the previous one; the first always runs.
    let start = Instant::now();
    let mut pass = 0u64;
    let mut last = 0.0;
    while pass == 0 || start.elapsed().as_secs_f64() + last <= args.seconds {
        let iteration = Instant::now();
        let res = run_pass(args.workload, args.size, &prepared, args.seed, pass, None);
        eprintln!("perfbench: pass {pass} untraced {:.4} s", res.wall_s);
        untraced.push(res);
        pass += 1;
        if args.trace {
            let tr = Tracer::default();
            let mut res = run_pass(args.workload, args.size, &prepared, args.seed, pass, Some(&tr));
            if let Some(schedules) = &curve {
                res.attempted += 1;
                if let Err(e) = curve_probe(schedules, &tr) {
                    res.failures.push(e);
                }
            }
            eprintln!("perfbench: pass {pass} traced {:.4} s", res.wall_s);
            traced.push((res, tr));
            pass += 1;
        }
        last = iteration.elapsed().as_secs_f64();
    }
    drop(prepared);

    let all = untraced.iter().chain(traced.iter().map(|(r, _)| r));
    let (mut attempted, mut failures) = (0u64, Vec::new());
    for r in all {
        attempted += r.attempted;
        failures.extend(r.failures.iter().cloned());
    }
    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let failed = failures.len() as u64;
    let cells = untraced[0].attempted;

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let passes = untraced.len() + traced.len();
    println!(
        "perfbench workload={} seed={} size={} trace={} passes={passes} cells={cells} \
         host_cores={host_cores} git_rev={} rustc=\"{}\" profile={}",
        args.workload.name(),
        args.seed,
        args.size.name(),
        u8::from(args.trace),
        env!("PERFBENCH_GIT_REV"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    );
    let wall: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    if args.trace {
        let layers: Vec<_> = traced.iter().map(|(_, tr)| layer_metrics(tr)).collect();
        for name in layers[0].keys() {
            let v: Vec<f64> = layers.iter().map(|m| m[name]).collect();
            metrics.push((name.to_string(), median(&v), layer_unit(name).to_string()));
        }
        // Overhead of recording spans: traced pass minus its probes,
        // against the untraced pass.
        let traced_wall: Vec<f64> =
            traced.iter().map(|(r, tr)| r.wall_s - tr.get("probe_s")).collect();
        metrics.push((
            "bench.trace_overhead_s".into(),
            median(&traced_wall) - median(&wall),
            "s".into(),
        ));
        let path = work.join(format!("spans-{}-seed{}.json", args.workload.name(), args.seed));
        let spans: Vec<String> = traced.iter().map(|(_, tr)| spans_json(&tr.spans())).collect();
        let doc = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"size\": \"{}\", \"passes\": {passes}, \
             \"cells\": {cells}, \"host_cores\": {host_cores}, \"git_rev\": \"{}\", \
             \"rustc\": \"{}\", \"profile\": \"{}\", \"traced_passes\": [{}]}}\n",
            args.workload.name(),
            args.seed,
            args.size.name(),
            env!("PERFBENCH_GIT_REV"),
            env!("PERFBENCH_RUSTC"),
            env!("PERFBENCH_PROFILE"),
            spans.join(",\n")
        );
        match std::fs::create_dir_all(&work).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    } else {
        let msgs: u64 = untraced.iter().map(|r| r.msgs).sum();
        let cell_s: f64 = untraced.iter().map(|r| r.cell_s).sum();
        metrics.push(("setup_s".into(), median(&setup_times), "s".into()));
        metrics.push(("wall_s".into(), median(&wall), "s".into()));
        metrics.push(("msgs_per_s".into(), msgs as f64 / cell_s, "msg/s".into()));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MiB".into()));
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!(
        "  {:<28} {:>16.6} ratio ({failed} failed of {attempted} attempted cells)",
        "fail_ratio",
        failed as f64 / attempted as f64
    );
    let body: Vec<String> = metrics.iter().map(|(n, v, u)| json_metric(n, *v, u)).collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
