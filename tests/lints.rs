//! Integration: the workspace passes clippy with warnings denied, and
//! `cargo fmt --check`.
//!
//! The bans that keep seeded runs deterministic (no wall clock, no threads
//! outside the two ordered-reduction files, no hash containers) live in
//! `clippy.toml`; `unwrap_used` and `undocumented_unsafe_blocks` come from
//! `[workspace.lints.clippy]` in the root `Cargo.toml`. Every exception is an
//! item-scoped `#[expect(clippy::…, reason = "…")]`, so under `-D warnings` a
//! new violation and a stale exception both fail here.
//!
//! clippy gets its own target directory, so it neither waits on the lock of
//! the build running this test nor evicts its artefacts. A missing clippy is
//! a failure, not a skip: this test is the only place tier-1 runs the bans.

use std::process::Command;

#[test]
fn workspace_is_clean() {
    let target_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy");
    let out = Command::new(env!("CARGO"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["clippy", "--offline", "--workspace", "--all-targets", "--keep-going"])
        .arg("--target-dir")
        .arg(&target_dir)
        .args(["--", "-D", "warnings"])
        .output()
        .expect("could not start cargo");
    assert!(
        out.status.success(),
        "`cargo clippy -- -D warnings` failed ({}); is clippy installed?\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Every module is formatted, the experiments under `crates/bench/src/exp/`
/// included: they are declared as plain `mod` items, which `cargo fmt`
/// follows. A missing rustfmt is a failure, as a missing clippy is.
#[test]
fn workspace_is_formatted() {
    let out = Command::new(env!("CARGO"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["fmt", "--check"])
        .output()
        .expect("could not start cargo");
    assert!(
        out.status.success(),
        "`cargo fmt --check` failed ({}); is rustfmt installed?\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
