//! End-to-end tests of the `figures` binary: every usage error — an
//! unknown figure, option, scale or machine, a missing or malformed
//! value — is exit 2 with the valid values on stderr before any figure
//! prints, and the analytic figures run to completion without writing a
//! file.

use std::path::Path;
use std::process::{Command, Output};

fn figures(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run figures binary")
}

/// Run `args` expecting a usage error; return its stderr.
fn usage_error(args: &[&str]) -> String {
    let out = figures(args, &std::env::temp_dir());
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: nothing runs before the command line is checked"
    );
    stderr
}

#[test]
fn unknown_figure_name_exits_two_and_lists_the_valid_names() {
    let stderr = usage_error(&["fig5", "fig99"]);
    assert!(stderr.contains("unknown figure `fig99`"), "{stderr}");
    for name in ["fig1", "table1", "fig14", "warmcache", "ablations", "all"] {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}

#[test]
fn unknown_option_exits_two_and_lists_the_valid_options() {
    let stderr = usage_error(&["--bogus", "fig1"]);
    assert!(stderr.contains("unknown option `--bogus`"), "{stderr}");
    for option in ["--simulate", "--scale", "--lookups"] {
        assert!(stderr.contains(option), "{option} missing from: {stderr}");
    }
}

#[test]
fn malformed_lookup_count_exits_two() {
    let stderr = usage_error(&["--lookups", "abc", "fig1"]);
    assert!(stderr.contains("invalid lookup count `abc`"), "{stderr}");
}

#[test]
fn trailing_option_without_a_value_exits_two() {
    let stderr = usage_error(&["fig1", "--lookups"]);
    assert!(stderr.contains("--lookups needs a value"), "{stderr}");
}

#[test]
fn unknown_scale_exits_two_and_lists_the_valid_scales() {
    let stderr = usage_error(&["--scale", "pape", "fig1"]);
    assert!(stderr.contains("unknown scale `pape`"), "{stderr}");
    assert!(stderr.contains("small paper"), "{stderr}");
}

#[test]
fn unknown_machine_exits_two_before_any_figure_prints() {
    let stderr = usage_error(&["fig1", "--simulate", "nosuch", "fig10"]);
    assert!(stderr.contains("unknown machine `nosuch`"), "{stderr}");
    for machine in ["ultrasparc", "pentium2", "modern"] {
        assert!(stderr.contains(machine), "{machine} missing from: {stderr}");
    }
}

#[test]
fn analytic_figures_print_their_headers_and_write_no_file() {
    let dir = std::env::temp_dir().join(format!("figures-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = figures(&["fig1", "table1", "fig5", "fig6", "fig7", "fig8"], &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for header in [
        "== Figure 1: processor-memory performance imbalance",
        "== Table 1: Parameters and Their Typical Values ==",
        "== Figure 5: level vs full CSS-tree ratios ==",
        "== Figure 6: Time analysis",
        "== Figure 7: Space analysis",
        "== Figure 8(a): space (indirect) ==",
        "== Figure 8(b): space (direct) ==",
    ] {
        assert!(stdout.contains(header), "{header} missing from: {stdout}");
    }
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(left.is_empty(), "figures wrote files: {left:?}");
}
