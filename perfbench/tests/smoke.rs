//! Tiny-scale checks of the benchmark itself: every workload runs, prints
//! its metrics with units and fails nothing, and no cell's output digest
//! depends on the fit or simulator thread counts.

use std::process::Command;

use commchar_core::analyze::try_analyze_trace;
use commchar_core::report::analysis_report;
use commchar_mesh::MeshConfig;
use commchar_tracestore::fnv1a;
use perfbench::{cells, check_digest, expected_digests, run_cell, Size, StreamInput, WorkloadKind};

const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("msgs_per_s", "msg/s"), ("peak_rss_mb", "MiB")];

const PER_LAYER: [&str; 28] = [
    "apps.acquire_s",
    "apps.acquire_msgs",
    "mesh.sends",
    "mesh.send_us",
    "mesh.busy_s",
    "mesh.send_us.n16",
    "mesh.send_us.n64",
    "mesh.send_us.n256",
    "spasm.self_s",
    "spasm.shard_speedup",
    "sp2.acquire_s",
    "trace.replay_s",
    "trace.replay_msgs_per_s",
    "trace.extract_s",
    "stats.fit_s",
    "stats.fits",
    "stats.fit_unique_values",
    "core.analyze_s",
    "core.report_s",
    "tracestore.pack_s",
    "tracestore.bytes_per_event",
    "tracestore.decode_s",
    "tracestore.blocks",
    "serve.session_s",
    "serve.poll_s",
    "serve.events_per_s",
    "serve.refusals",
    "bench.trace_overhead_s",
];

/// Runs the benchmark binary at tiny size and returns its standard output.
fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0", "--size", "tiny"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

#[test]
fn every_workload_prints_its_metrics_and_fails_nothing() {
    for w in WorkloadKind::ALL {
        let stdout = run(w.name(), 0);
        let result = result_line(&stdout);
        assert!(result.starts_with("{\"correct\": true,"), "{}: {result}", w.name());
        assert!(result.contains("\"failed\": 0,"), "{}: {result}", w.name());
        assert!(stdout.contains("fail_ratio"), "{}: fail_ratio not printed", w.name());
        for (name, unit) in END_TO_END {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = result.find(&entry).unwrap_or_else(|| panic!("{}: no {name}", w.name()));
            let unit_field = format!("\"unit\": \"{unit}\"}}");
            assert!(result[at..].contains(&unit_field), "{}: {name} lacks unit {unit}", w.name());
        }

        let traced = run(w.name(), 1);
        let result = result_line(&traced);
        assert!(result.contains("\"failed\": 0,"), "{} traced: {result}", w.name());
        for name in PER_LAYER {
            let entry = format!("\"{name}\": {{\"value\": ");
            assert!(result.contains(&entry), "{} traced: no {name}", w.name());
        }
    }
}

#[test]
fn digests_do_not_depend_on_thread_counts() {
    let expected = expected_digests();
    for w in WorkloadKind::ALL {
        for cell in cells(w, Size::Tiny) {
            for (jobs, sim_jobs) in [(1, 1), (2, 1), (1, 2)] {
                let out = run_cell(&cell.with_threads(jobs, sim_jobs), None, None)
                    .unwrap_or_else(|e| panic!("{}: {e}", cell.key()));
                let key = format!("tiny {} {}", w.name(), out.key);
                if let Err(e) = check_digest(&expected, &key, out.digest) {
                    panic!("jobs={jobs} sim_jobs={sim_jobs}: {e}");
                }
            }
        }
    }

    // trace_stream: the pass (one fit worker, two decode workers, served
    // session) against the in-memory analysis at one and two fit workers.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("digests");
    let input = StreamInput::setup(Size::Tiny, 11, &dir, &expected).expect("trace_stream set-up");
    let pass = input.pass(None, None).expect("trace_stream pass");
    let shape = MeshConfig::for_nodes(input.trace().nodes()).shape;
    for jobs in [1, 2] {
        let a = try_analyze_trace(input.trace(), shape, jobs).expect("analysis");
        assert_eq!(fnv1a(analysis_report(&a, "trace").as_bytes()), pass.digest, "jobs={jobs}");
    }
}
