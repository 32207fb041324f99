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

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--loc") {
        return loc(&args[1..]);
    }
    let root = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));
    let violations = match check::lint::lint_workspace(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("lint: failed to walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if violations.is_empty() {
        println!("lint: workspace clean under rules S1/O1/F1/H1/W1/B1/M1/U1/D1");
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        println!("{v}");
    }
    eprintln!("lint: {} violation(s)", violations.len());
    ExitCode::FAILURE
}

/// The `--loc` mode: non-test code lines per path, then the total.
fn loc(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("lint: --loc needs at least one path");
        return ExitCode::from(2);
    }
    let mut total = 0;
    for path in paths {
        match check::lint::code_lines_under(path.as_ref()) {
            Ok(lines) => {
                println!("{lines:>7}  {path}");
                total += lines;
            }
            Err(e) => {
                eprintln!("lint: failed to count {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!("{total:>7}  total");
    ExitCode::SUCCESS
}
