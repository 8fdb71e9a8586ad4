//! Records build provenance (rustc version, git revision, profile) for
//! the benchmark's result header.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // Only the repository this package lives in counts: a checkout
    // without `.git` reports "unknown" rather than some enclosing repo.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("..");
    let git = root.join(".git");
    let rev = if git.exists() {
        for f in ["HEAD", "index"] {
            if git.join(f).exists() {
                println!("cargo:rerun-if-changed={}", git.join(f).display());
            }
        }
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
    } else {
        "unknown".into()
    };
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
