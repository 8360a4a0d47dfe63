//! Bakes the build facts the run manifest reports into the binary: the
//! compiler version, the effective rustflags (the root
//! `.cargo/config.toml` builds with `target-cpu=native`, so baselines
//! are machine-specific) and, when the sources sit in a git checkout,
//! the commit.

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=E2E_RUSTC_VERSION={version}");

    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .split('\x1f')
        .filter(|f| !f.is_empty())
        .collect::<Vec<_>>()
        .join(" ");
    println!("cargo:rustc-env=E2E_RUSTFLAGS={flags}");

    println!("cargo:rustc-env=E2E_COMMIT={}", commit());
}

/// The checked-out commit, read straight from `../.git` (no `git`
/// process, nothing read outside the source tree); `unknown` when the
/// sources are not a git checkout.
fn commit() -> String {
    let git = Path::new("../.git");
    let head_path = git.join("HEAD");
    let Ok(head) = std::fs::read_to_string(&head_path) else {
        return "unknown".into();
    };
    println!("cargo:rerun-if-changed={}", head_path.display());
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    // Watch the ref's directory and packed-refs whether or not the ref
    // exists yet: a commit that creates or moves the loose ref changes
    // the directory, `git pack-refs` changes packed-refs. (A watched path
    // that does not exist would rerun this script on every build.)
    let ref_path = git.join(reference);
    if let Some(dir) = ref_path.parent().filter(|d| d.exists()) {
        println!("cargo:rerun-if-changed={}", dir.display());
    }
    let packed = git.join("packed-refs");
    if packed.exists() {
        println!("cargo:rerun-if-changed={}", packed.display());
    }
    if let Ok(sha) = std::fs::read_to_string(&ref_path) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(packed)
        .ok()
        .and_then(|text| {
            text.lines()
                .filter_map(|l| l.split_once(' '))
                .find(|(_, name)| *name == reference)
                .map(|(sha, _)| sha.to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
