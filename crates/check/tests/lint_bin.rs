//! End-to-end tests for the `lint` binary: exit code 0 on a clean tree
//! (including this workspace itself), non-zero when a seeded violation
//! — an unused pub item among them — is planted: the contract the CI
//! `check-lint` job relies on.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// A throwaway `crates/<name>/src/` tree under the system temp dir.
fn scratch_workspace(name: &str, lib_rs: &str) -> PathBuf {
    let root = std::env::temp_dir()
        .join("ccindex-lint-bin-test")
        .join(format!("{}-{}", name, std::process::id()));
    let src = root.join("crates").join(name).join("src");
    fs::create_dir_all(&src).expect("create scratch workspace");
    fs::write(src.join("lib.rs"), lib_rs).expect("write seeded lib.rs");
    root
}

fn run_lint(root: &PathBuf) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lint"))
        .arg(root)
        .output()
        .expect("run lint binary")
}

#[test]
fn clean_seeded_workspace_exits_zero() {
    let root = scratch_workspace(
        "clean",
        "//! A clean crate.\n\n#![deny(unsafe_op_in_unsafe_fn)]\n\npub fn ok() {}\n\nfn caller() {\n    ok()\n}\n",
    );
    let out = run_lint(&root);
    assert!(
        out.status.success(),
        "clean tree flagged:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn seeded_violations_exit_nonzero_and_name_each_rule() {
    let root = scratch_workspace(
        "seeded",
        concat!(
            "//! A crate with one of everything the lint rejects (no caller of\n",
            "//! its pub functions is U1).\n\n",
            "#![deny(unsafe_op_in_unsafe_fn)]\n\n",
            "use std::sync::atomic::{AtomicU64, Ordering};\n\n",
            "static mut GLOBAL: u64 = 0;\n\n",
            "pub fn naked_unsafe() -> u64 {\n",
            "    unsafe { GLOBAL }\n",
            "}\n\n",
            "pub fn unexplained_ordering(a: &AtomicU64) -> u64 {\n",
            "    a.load(Ordering::Relaxed)\n",
            "}\n\n",
            "pub fn fourth_reader(b: &[u8]) -> u32 {\n",
            "    u32::from_le_bytes([b[0], b[1], b[2], b[3]])\n",
            "}\n",
        ),
    );
    let out = run_lint(&root);
    assert!(!out.status.success(), "seeded violations not flagged");
    let report = String::from_utf8_lossy(&out.stdout);
    for rule in ["[S1]", "[O1]", "[F1]", "[U1]", "[B1]"] {
        assert!(report.contains(rule), "missing {rule} in:\n{report}");
    }
    fs::remove_dir_all(&root).ok();
}

#[test]
fn a_pub_item_named_only_by_its_own_tests_is_u1() {
    let root = scratch_workspace(
        "unused",
        concat!(
            "//! One pub function nothing calls.\n\n",
            "#![deny(unsafe_op_in_unsafe_fn)]\n\n",
            "pub fn orphan() {}\n\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() {\n",
            "        super::orphan();\n",
            "    }\n",
            "}\n",
        ),
    );
    let out = run_lint(&root);
    assert!(!out.status.success(), "unused pub item not flagged");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("[U1] pub `orphan`"), "{report}");
    // A caller anywhere else in the workspace, `ccbench/` included, clears it.
    let bench = root.join("ccbench").join("src");
    fs::create_dir_all(&bench).expect("create ccbench dir");
    fs::write(
        bench.join("main.rs"),
        "fn main() {\n    unused::orphan();\n}\n",
    )
    .expect("write caller");
    let out = run_lint(&root);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn readme_rust_fences_are_uses_and_must_run() {
    let root = scratch_workspace(
        "readme",
        "//! Docs.\n\n#![deny(unsafe_op_in_unsafe_fn)]\n\npub fn shown() {}\n",
    );
    let readme = |text: &str| fs::write(root.join("README.md"), text).expect("write README");
    // A name only prose or a `text` block mentions has no caller.
    readme("Call `shown()`.\n\n```text\nreadme::shown();\n```\n");
    let out = run_lint(&root);
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("[U1] pub `shown`"), "{report}");
    // A Rust block is a doctest: its names are uses.
    readme("```rust\nreadme::shown();\n```\n");
    let out = run_lint(&root);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // A block that only defines `demo` compiles and runs nothing.
    readme("Intro.\n\n```rust\nfn demo() {\n    readme::shown();\n}\n```\n");
    let out = run_lint(&root);
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{report}");
    assert!(report.contains("README.md:3: [D1]"), "{report}");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn loc_mode_counts_per_path_and_in_total() {
    let root = scratch_workspace(
        "loc",
        "//! Docs.\n\n#![deny(unsafe_op_in_unsafe_fn)]\n\npub fn ok() {}\n#[cfg(test)]\nmod t {}\n",
    );
    let src = root.join("crates").join("loc").join("src");
    let lib = src.join("lib.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .arg("--loc")
        .arg(&src)
        .arg(&lib)
        .output()
        .expect("run lint binary");
    assert!(out.status.success());
    let report = String::from_utf8_lossy(&out.stdout);
    let counts: Vec<&str> = report
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(counts, ["2", "2", "4"], "{report}");
    assert!(report.ends_with("total\n"), "{report}");
    fs::remove_dir_all(&root).ok();

    let none = Command::new(env!("CARGO_BIN_EXE_lint"))
        .arg("--loc")
        .output()
        .expect("run lint binary");
    assert_eq!(none.status.code(), Some(2));
}

#[test]
fn this_workspace_is_clean() {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let out = run_lint(&root);
    assert!(
        out.status.success(),
        "workspace lint regressed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
