//! Run identity: which code produced a result row.
//!
//! The source hash is computed from the files themselves, so it is right
//! before a commit exists, in a dirty tree, and in a checkout that is not a
//! git repository. The git revision is recorded next to it, and a dirty tree
//! never appears under its clean SHA.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{obj, Value};
use crate::stats::Fnv;
use crate::sys;

/// Directories whose contents decide what the benchmark measures.
const SOURCE_DIRS: [&str; 3] = ["crates", "src", "benchmark"];
/// Build and run outputs inside them.
const SKIP_DIRS: [&str; 3] = ["target", "out", ".git"];

/// Every regular file under `dir`, skipping output directories.
fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else { continue };
        if kind.is_dir() {
            if !SKIP_DIRS.iter().any(|s| entry.file_name() == *s) {
                walk(&path, files);
            }
        } else if kind.is_file() {
            files.push(path);
        }
    }
}

/// FNV-1a over the sorted relative paths and contents of the source files
/// under `root`.
pub fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        h.bytes(rel.to_string_lossy().as_bytes());
        h.bytes(&[0]);
        h.bytes(&std::fs::read(&path).unwrap_or_default());
        h.bytes(&[0]);
    }
    h.0
}

fn git(root: &Path, args: &[&str]) -> Option<String> {
    // The ceiling keeps git from adopting a repository above the checkout.
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(HEAD, dirty)` when `root` is the top of a git work tree.
fn git_state(root: &Path) -> Option<(String, bool)> {
    let head = git(root, &["rev-parse", "HEAD"])?;
    let mut status_args = vec!["status", "--porcelain", "--"];
    status_args.extend(SOURCE_DIRS);
    let dirty = !git(root, &status_args)?.is_empty();
    Some((head, dirty))
}

/// The revision label of a result row: a dirty tree is marked as such.
fn rev_label(state: Option<&(String, bool)>) -> Value {
    match state {
        Some((head, false)) => Value::from(head.as_str()),
        Some((head, true)) => Value::from(format!("{head}-dirty")),
        None => Value::Null,
    }
}

/// The identity object attached to every result row.
pub fn identity(seed: u64, seconds: f64, smoke: bool) -> Value {
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let state = git_state(&root);
    let nproc = sys::nproc();
    obj([
        ("git_rev", rev_label(state.as_ref())),
        ("git_dirty", state.as_ref().map_or(Value::Null, |s| Value::from(s.1))),
        ("source_hash", Value::from(format!("{:016x}", source_hash(&root)))),
        ("seed", Value::from(seed)),
        ("seconds", Value::from(seconds)),
        ("smoke", Value::from(smoke)),
        // Every workload is single-threaded except boutique_closed_loop,
        // whose sample collection and training use min(nproc, 4) threads.
        ("threads_boutique", Value::from(nproc.min(4))),
        ("nproc", Value::from(nproc)),
        ("cpu_model", Value::from(sys::cpu_model())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_tree_is_never_labelled_with_the_clean_sha() {
        let sha = "13ae0a9b".to_string();
        assert_eq!(rev_label(Some(&(sha.clone(), false))), Value::from("13ae0a9b"));
        assert_eq!(rev_label(Some(&(sha, true))), Value::from("13ae0a9b-dirty"));
        assert_eq!(rev_label(None), Value::Null);
    }

    #[test]
    fn source_hash_follows_contents_and_ignores_outputs() {
        // Under the package's ignored output directory, not the system's.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-identity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/a/src")).unwrap();
        std::fs::create_dir_all(root.join("benchmark/target/release")).unwrap();
        std::fs::write(root.join("crates/a/src/lib.rs"), "fn a() {}").unwrap();
        let clean = source_hash(&root);
        assert_eq!(clean, source_hash(&root), "stable for the same tree");

        std::fs::write(root.join("benchmark/target/release/bin"), "build output").unwrap();
        assert_eq!(clean, source_hash(&root), "build outputs do not count");
        std::fs::write(root.join("README.md"), "docs").unwrap();
        assert_eq!(clean, source_hash(&root), "files outside the source dirs do not count");

        std::fs::write(root.join("crates/a/src/lib.rs"), "fn a() { }").unwrap();
        let edited = source_hash(&root);
        assert_ne!(clean, edited, "an edit changes the hash");
        std::fs::rename(root.join("crates/a/src/lib.rs"), root.join("crates/a/src/mod.rs"))
            .unwrap();
        assert_ne!(edited, source_hash(&root), "a rename changes the hash");

        assert!(git_state(&root).is_none(), "a plain directory has no git state");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
