//! Workspace lint runner: `cargo run -p check --bin lint [root]`.
//!
//! Walks every crate's `src/` under the workspace root (default: the
//! workspace this binary was built from), applies the rules documented
//! in [`check::lint`], prints each violation as `file:line: [rule]
//! message`, and exits non-zero when any rule is broken — which is what
//! makes it enforceable as a required CI job.
//!
//! `lint --loc <paths..>` counts non-test code lines instead
//! ([`check::lint::code_lines_under`]): one line per path (a crate's
//! `src/`, a directory, or a file), then the total. A file mounted
//! behind a `#[cfg(test)]` module declaration counts nothing.
//!
//! A reader that stops reading early (`lint --loc crates/wire | head -1`)
//! ends the output quietly; the exit code is the one the run earned.

use std::io::{self, ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (lines, code) = if args.first().is_some_and(|a| a == "--loc") {
        loc(&args[1..])
    } else {
        lint(args.first())
    };
    if let Err(e) = emit(&mut io::stdout().lock(), &lines) {
        eprintln!("lint: writing stdout: {e}");
        return ExitCode::from(2);
    }
    code
}

/// Write `lines` to `out`, one a line. A reader that hung up
/// (`BrokenPipe`) is not an error: the rest is simply not written.
fn emit(out: &mut impl Write, lines: &[String]) -> io::Result<()> {
    let written = lines
        .iter()
        .try_for_each(|line| writeln!(out, "{line}"))
        .and_then(|()| out.flush());
    match written {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

/// The lint rules over the workspace at `root`: the violations to print
/// and the exit code.
fn lint(root: Option<&String>) -> (Vec<String>, ExitCode) {
    let root = root
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));
    let violations = match check::lint::lint_workspace(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("lint: failed to walk {}: {e}", root.display());
            return (Vec::new(), ExitCode::from(2));
        }
    };
    if violations.is_empty() {
        let clean = "lint: workspace clean under rules S1/O1/F1/H1/W1/B1/M1/U1/D1";
        return (vec![clean.to_owned()], ExitCode::SUCCESS);
    }
    eprintln!("lint: {} violation(s)", violations.len());
    let lines = violations.iter().map(ToString::to_string).collect();
    (lines, ExitCode::FAILURE)
}

/// The `--loc` mode: non-test code lines per path, then the total.
fn loc(paths: &[String]) -> (Vec<String>, ExitCode) {
    if paths.is_empty() {
        eprintln!("lint: --loc needs at least one path");
        return (Vec::new(), ExitCode::from(2));
    }
    let mut lines = Vec::new();
    let mut total = 0;
    for path in paths {
        match check::lint::code_lines_under(path.as_ref()) {
            Ok(count) => {
                lines.push(format!("{count:>7}  {path}"));
                total += count;
            }
            Err(e) => {
                eprintln!("lint: failed to count {path}: {e}");
                return (lines, ExitCode::from(2));
            }
        }
    }
    lines.push(format!("{total:>7}  total"));
    (lines, ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` whose reader has hung up after `room` bytes.
    struct HungUp {
        room: usize,
        written: Vec<u8>,
    }

    impl Write for HungUp {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(ErrorKind::BrokenPipe.into());
            }
            let n = buf.len().min(self.room);
            self.written.extend_from_slice(&buf[..n]);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_reader_that_hung_up_ends_the_output_quietly() {
        let lines = ["   12  crates/wire", "   30  total"].map(String::from);
        let mut out = HungUp {
            room: 10,
            written: Vec::new(),
        };
        emit(&mut out, &lines).expect("a broken pipe is not an error");
        assert_eq!(out.written, b"   12  cra");
    }

    #[test]
    fn other_write_errors_are_reported() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(ErrorKind::StorageFull.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = emit(&mut Full, &["x".to_owned()]).expect_err("a full disk");
        assert_eq!(err.kind(), ErrorKind::StorageFull);
    }
}
