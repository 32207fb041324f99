//! End-to-end exit-code test for the `figures` binary: a figure name it
//! does not know is a usage error (exit 2, naming the valid figures),
//! not a silent exit 0 with no output.

use std::process::Command;

#[test]
fn unknown_figure_name_exits_two_and_lists_the_valid_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig5", "fig99"])
        .output()
        .expect("run figures binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before the names check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown figure `fig99`"), "{stderr}");
    for name in ["fig1", "table1", "fig14", "distributed", "coldstart", "all"] {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}
