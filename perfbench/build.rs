//! Records build provenance (rustc version, profile, source commit) as
//! compile-time environment variables, so every result line can name the
//! toolchain and source it came from.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git = Path::new(&manifest).join("../.git");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit(&git).unwrap_or_else(|| "none".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
    // Only existing paths: a missing one would rerun the script on every build.
    for watched in ["HEAD", "packed-refs"] {
        if git.join(watched).exists() {
            println!("cargo:rerun-if-changed={}", git.join(watched).display());
        }
    }
}

/// The commit `HEAD` names, read from the repository's own `.git`
/// directory (a checkout without one has no commit to record).
fn commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(String::from)
        })
}
