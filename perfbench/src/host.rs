//! The host record every run prints: core count, vector flags and the
//! git revision of the checkout (`unknown` outside a git checkout).

use std::path::Path;

/// What the host contributes to every measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// The vector extensions the engines can use.
    pub cpu_flags: Vec<&'static str>,
    /// Commit hash of the checkout, or `unknown`.
    pub git_rev: String,
}

impl Host {
    /// Probe the running host; the revision is read from `root/.git`.
    pub fn probe(root: &Path) -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_flags: cpu_flags(),
            git_rev: git_rev(root).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_flags() -> Vec<&'static str> {
    let mut flags = Vec::new();
    if std::arch::is_x86_feature_detected!("avx2") {
        flags.push("avx2");
    }
    if std::arch::is_x86_feature_detected!("avx512f") {
        flags.push("avx512f");
    }
    if std::arch::is_x86_feature_detected!("avx512bw") {
        flags.push("avx512bw");
    }
    flags
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_flags() -> Vec<&'static str> {
    Vec::new()
}

/// Resolve `HEAD` by reading the git directory directly (loose ref,
/// then `packed-refs`), so no `git` process is needed.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(name)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, r) = line.split_once(' ')?;
        (r == name).then(|| hash.to_string())
    })
}
