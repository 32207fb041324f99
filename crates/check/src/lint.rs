//! The workspace source lint: rules the compiler can't enforce,
//! checked mechanically so they hold by construction instead of by
//! review vigilance. Run as `cargo run -p check --bin lint` (a required
//! CI job).
//!
//! | rule | requirement |
//! |------|-------------|
//! | S1   | every `unsafe` block / impl / fn carries a `// SAFETY:` comment on the same line or just above |
//! | O1   | every explicit non-`SeqCst` atomic ordering at an atomic call site carries a `// ORDERING:` justification |
//! | F1   | no `static mut`, no `transmute` |
//! | H1   | every `lib.rs` opens with `//!` docs and declares `#![deny(unsafe_op_in_unsafe_fn)]` |
//! | W1   | no `.unwrap()` / `.expect(` on socket- or file-I/O lines — transport and storage faults must map to typed errors |
//! | M1   | metric names at registration sites (`.counter("…")` / `.gauge("…")` / `.histogram("…")`) are `dot.separated` lowercase, and each name is registered at exactly one source site workspace-wide |
//! | U1   | every `pub` item of a library crate is named somewhere outside its crate's test code — the `#[cfg(test)]` code of every file under the crate's `src`, and the files the crate mounts behind a `#[cfg(test)]` (the whole workspace, `ccbench/` included, counts, and so do `README.md`'s Rust fences; `use` lines do not), unless the facade prelude re-exports it or [`U1_ALLOWED`] lists it with a reason |
//! | B1   | no `from_le_bytes` and no `CRC_TABLE` outside the byte codec, `crates/store/src/bytes.rs` (`#[cfg(test)]` code exempt) — every byte the wire, the store and the manifest read goes through the one bounds-checked reader and the one CRC-32 |
//! | D1   | `README.md`'s Rust fences, which run as doctests of the facade crate, execute: no `ignore`, `no_run` only under a `// Not run: <reason>` first line, and a block whose only items are `fn`s other than `main` calls one of them |
//!
//! O1 exists because of exactly the bug class PR 7 is about: a
//! lifetime-guarding counter (a pin count, a refcount) downgraded to
//! `Relaxed` still passes every test and still races. The lint can't
//! know which counters guard lifetimes, so it demands the human
//! argument — the `// ORDERING:` comment — at every site where the
//! choice was made explicitly, and the model checker then tests the
//! argument. `SeqCst` needs no justification (it is the conservative
//! default), and `#[cfg(test)]` code is exempt.
//!
//! M1 exists because metric names are an interface shared with
//! dashboards and scrape configs: a name that drifts in casing or
//! punctuation, or a second registration site that silently shares (or
//! at a different type, panics on) another site's series, breaks
//! consumers with no compiler involved. Registration is the one place a
//! name is minted — `Registry::counter("…")` et al. — so the lint pins
//! the convention there and demands every other use go through a shared
//! handle or the `find_*` read accessors (which deliberately don't
//! match the registration patterns).
//!
//! W1 exists because the distributed layer's whole contract is that a
//! dead or misbehaving peer surfaces as a typed
//! `MmdbError::Transport`, never a panic: one stray `.unwrap()` on a
//! socket read turns a killed shard into a crashed coordinator. The
//! storage layer makes the same promise for files — a truncated or
//! bit-flipped store surfaces as a typed `MmdbError::Storage`, so the
//! rule covers file-I/O lines (`File::open`, `fs::write`, …) too. The
//! lint recognizes I/O lines by token (`TcpStream`, `read_frame`,
//! `.accept()`, `File::open`, …) so unrelated `unwrap`s on the same
//! code path — a `Mutex::lock` poison recovery, a thread join — don't
//! false-positive.
//!
//! U1 exists because rustc's `dead_code` lint never fires on a `pub`
//! item: an operator, a tree variant or a generator can outlive its last
//! caller by many releases while its own unit tests keep it green. The
//! rule matches names, not paths, so it errs towards silence — a method
//! called `len` is "used" if anything calls a `len` — and what it does
//! flag has no caller under any spelling. A re-export is not a use, so
//! `use` statements are not counted.
//!
//! B1 exists because the workspace once had three bounds-checked
//! little-endian readers, two CRC-32 tables and two `Value` encodings —
//! the wire's, the catalog manifest's and the store footer's — and a
//! hostile-count bug had to be fixed in each separately. A decoder
//! that slices bytes and calls `from_le_bytes` itself, or builds its own
//! checksum table, is a fourth reader with its own bounds checks and its
//! own allocation rule; the rule sends it to `ccindex_store::bytes`
//! instead, where a short read is already the caller's typed error.
//!
//! D1 exists because rustdoc wraps a block in `fn main` only when it has
//! none: a README block that defines `fn demo()` and never calls it
//! compiles, passes, and runs none of its assertions.
//!
//! The scanner is deliberately line-based and dependency-free: string
//! literals and comments are blanked by a small state machine before
//! pattern checks, `#[cfg(test)]` items are skipped by brace counting.
//! It is a lint, not a parser — it prefers a rare false positive (fix:
//! write the comment) over a dependency on a Rust parser crate.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One broken rule at one source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path of the offending file (as walked, workspace-relative when
    /// the walk root was relative).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`S1`, `O1`, `F1`, `H1`, `W1`, `B1`, `M1`, `U1`, `D1`).
    pub rule: &'static str,
    /// What to fix.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Lint every `.rs` file under `<root>/crates/*/src` and `<root>/src`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    files.sort();
    let mut violations = Vec::new();
    let mut registrations = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file)?;
        violations.extend(lint_source(&file, &text));
        for (name, line) in metric_registrations(&text) {
            registrations.push((file.clone(), line, name));
        }
    }
    violations.extend(metric_uniqueness(&registrations));
    violations.extend(unused_pub_items(root)?);
    let readme = root.join("README.md");
    if readme.is_file() {
        violations.extend(lint_doctests(&readme, &std::fs::read_to_string(&readme)?));
    }
    Ok(violations)
}

/// Rule U1's allowlist: `pub` items nothing outside their own crate's
/// tests names, kept on purpose — `(defining file, item, reason)`.
pub const U1_ALLOWED: &[(&str, &str, &str)] = &[
    (
        "crates/analysis/src/time_model.rs",
        "estimate_time",
        "§5's time model: cycles and seconds from a cost breakdown, the paper's own formula",
    ),
    (
        "crates/cachesim/src/stats.rs",
        "miss_ratio",
        "the simulator's per-level miss ratio, a reporting helper beside `accesses`",
    ),
    (
        "crates/common/src/layout.rs",
        "ilog_floor",
        "the floor counterpart of `ceil_log` in the layout arithmetic, tested against its definition",
    ),
];

/// Rule U1 over the workspace at `root`: the library items
/// [`unreferenced_pub_items`] finds, less the prelude and
/// [`U1_ALLOWED`]; an allowlist entry whose file exists but whose item is
/// no longer found is reported too, so the list only shrinks.
fn unused_pub_items(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut paths = Vec::new();
    collect_rs(root, &mut paths)?;
    paths.sort();
    let mut sources = Vec::with_capacity(paths.len() + 1);
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        sources.push((path, text));
    }
    // README.md's Rust fences run as doctests, so a name there is a use.
    let readme = root.join("README.md");
    if readme.is_file() {
        let code = fence_code(&std::fs::read_to_string(&readme)?);
        sources.push((readme, code));
    }
    let relative = |path: &Path| {
        let rel = path.strip_prefix(root).unwrap_or(path);
        rel.components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
    };
    let is_library = |path: &Path| {
        let parts = relative(path);
        let in_src = match parts.first().map(String::as_str) {
            Some("crates") => parts.get(2).is_some_and(|p| p == "src"),
            Some("src") => true,
            _ => false,
        };
        in_src && !parts.iter().any(|p| p == "bin")
    };
    let prelude = sources
        .iter()
        .find(|(path, _)| relative(path) == ["src", "lib.rs"])
        .map_or_else(Default::default, |(_, text)| prelude_names(text));
    let mut matched = vec![false; U1_ALLOWED.len()];
    let mut out = Vec::new();
    for (file, line, name) in unreferenced_pub_items(&sources, is_library) {
        if prelude.contains(&name) {
            continue;
        }
        let rel = relative(&file).join("/");
        match U1_ALLOWED
            .iter()
            .position(|&(f, n, _)| f == rel && n == name)
        {
            Some(i) => matched[i] = true,
            None => out.push(Violation {
                file,
                line,
                rule: "U1",
                message: format!(
                    "pub `{name}` is named nowhere outside its crate's tests and test-only \
                     files; delete it, or list it in `check::lint::U1_ALLOWED` with a reason"
                ),
            }),
        }
    }
    for (&(file, name, _), _) in U1_ALLOWED.iter().zip(matched).filter(|(_, m)| !m) {
        if root.join(file).is_file() {
            out.push(Violation {
                file: root.join(file),
                line: 1,
                rule: "U1",
                message: format!(
                    "`U1_ALLOWED` lists `{name}`, which is used or gone; delete the entry"
                ),
            });
        }
    }
    Ok(out)
}

/// Rule U1's scan: `(file, line, name)` for every `pub` item defined
/// outside test code in a file `is_library` accepts whose name appears
/// in no code of `sources` — every source file of the workspace — except
/// its own definition line, `use` statements, and its crate's test code:
/// the `#[cfg(test)]` code of every file under the crate's `src`
/// directory, and the files the crate mounts behind a `#[cfg(test)]`
/// (see `test_mounted_files`). An item defined in such a mounted file
/// is a test helper, so only its own file's tests are discounted.
/// Comments and string literals are not code.
pub fn unreferenced_pub_items(
    sources: &[(PathBuf, String)],
    is_library: impl Fn(&Path) -> bool,
) -> Vec<(PathBuf, usize, String)> {
    use std::collections::HashMap;
    struct Scan {
        code: Vec<String>,
        in_test: Vec<bool>,
        in_use: Vec<bool>,
    }
    let scans: Vec<Scan> = sources
        .iter()
        .map(|(_, text)| {
            let code = strip(text);
            let in_test = test_regions(&code);
            let in_use = use_regions(&code);
            Scan {
                code,
                in_test,
                in_use,
            }
        })
        .collect();
    let mounted = test_mounted_files(sources);
    // Uses per name across the workspace, per file inside its tests, and
    // per crate inside its test code.
    let mut uses: HashMap<&str, usize> = HashMap::new();
    let mut test_uses: HashMap<(usize, &str), usize> = HashMap::new();
    let mut crate_test_uses: HashMap<(&Path, &str), usize> = HashMap::new();
    for (f, scan) in scans.iter().enumerate() {
        let file = &sources[f].0;
        let is_mounted = mounted.contains_key(file);
        let krate = crate_src(file);
        for (i, line) in scan.code.iter().enumerate() {
            if scan.in_use[i] {
                continue;
            }
            for word in words(line) {
                *uses.entry(word).or_default() += 1;
                if scan.in_test[i] {
                    *test_uses.entry((f, word)).or_default() += 1;
                }
                if let Some(krate) = krate.filter(|_| is_mounted || scan.in_test[i]) {
                    *crate_test_uses.entry((krate, word)).or_default() += 1;
                }
            }
        }
    }
    let mut out = Vec::new();
    for (f, ((file, _), scan)) in sources.iter().zip(&scans).enumerate() {
        if !is_library(file) {
            continue;
        }
        for (i, line) in scan.code.iter().enumerate() {
            if scan.in_test[i] || scan.in_use[i] {
                continue;
            }
            let Some(name) = pub_item_name(line) else {
                continue;
            };
            let on_line = words(line).filter(|w| *w == name).count();
            let own_tests = match crate_src(file) {
                Some(krate) if !mounted.contains_key(file) => crate_test_uses.get(&(krate, name)),
                _ => test_uses.get(&(f, name)),
            };
            if uses[name] == on_line + own_tests.copied().unwrap_or(0) {
                out.push((file.clone(), i + 1, name.to_owned()));
            }
        }
    }
    out
}

/// The `src` directory of the crate a source file belongs to: its
/// nearest ancestor named `src` (`None` for a file outside one, such as
/// an integration test).
fn crate_src(file: &Path) -> Option<&Path> {
    file.ancestors()
        .skip(1)
        .find(|dir| dir.file_name().is_some_and(|name| name == "src"))
}

/// The identifier-like words of a stripped line.
fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The name a stripped line defines, if it opens a `pub` (not
/// `pub(crate)`) function, type, trait, constant or static.
fn pub_item_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let mut words = words(rest).peekable();
    while let Some(word) = words.next() {
        match word {
            "unsafe" | "async" | "extern" => {}
            "const" if matches!(words.peek(), Some(&("fn" | "unsafe" | "async" | "extern"))) => {}
            "fn" | "struct" | "enum" | "trait" | "type" | "union" | "static" | "const" => {
                return words.next();
            }
            _ => return None,
        }
    }
    None
}

/// Which stripped lines belong to a `use` statement (from its first line
/// to the one holding its `;`).
fn use_regions(code: &[String]) -> Vec<bool> {
    let mut in_use = vec![false; code.len()];
    let mut open = false;
    for (i, line) in code.iter().enumerate() {
        let t = line.trim_start();
        let t = t
            .strip_prefix("pub(crate) ")
            .or_else(|| t.strip_prefix("pub "))
            .unwrap_or(t);
        open |= t.starts_with("use ");
        in_use[i] = open;
        if open && line.contains(';') {
            open = false;
        }
    }
    in_use
}

/// A Rust code fence of a Markdown file: what rustdoc runs as a doctest.
struct Fence {
    /// 1-based line of the opening fence.
    line: usize,
    /// The info string's words (`rust`, `no_run`, …).
    attrs: Vec<String>,
    /// The code lines, rustdoc's hidden-line `# ` marker removed.
    code: Vec<String>,
}

/// The info-string words rustdoc reads as attributes of a Rust block
/// (besides `edition*` and `ignore-*`); a fence with any other word
/// (`sh`, `text`) is another language.
const RUSTDOC_ATTRS: [&str; 6] = [
    "rust",
    "ignore",
    "no_run",
    "should_panic",
    "compile_fail",
    "test_harness",
];

/// The fences of `markdown` that rustdoc tests as Rust: those whose info
/// string is empty or holds only words rustdoc reads as attributes.
fn rust_fences(markdown: &str) -> Vec<Fence> {
    let mut out = Vec::new();
    let mut open: Option<Fence> = None;
    let mut in_other = false;
    for (i, line) in markdown.lines().enumerate() {
        let fence = line.trim_start().strip_prefix("```");
        if let Some(f) = open.as_mut() {
            match fence {
                Some(_) => out.extend(open.take()),
                None => f.code.push(unhide(line)),
            }
        } else if in_other {
            in_other = fence.is_none();
        } else if let Some(info) = fence {
            let attrs: Vec<String> = info
                .split(|c: char| c == ',' || c.is_whitespace())
                .filter(|w| !w.is_empty())
                .map(str::to_owned)
                .collect();
            if attrs.iter().all(|a| {
                RUSTDOC_ATTRS.contains(&a.as_str())
                    || a.starts_with("edition")
                    || a.starts_with("ignore-")
            }) {
                open = Some(Fence {
                    line: i + 1,
                    attrs,
                    code: Vec::new(),
                });
            } else {
                in_other = true;
            }
        }
    }
    out
}

/// A doctest line as rustdoc compiles it: `# code` and a lone `#` are
/// hidden lines, whose marker goes.
fn unhide(line: &str) -> String {
    let t = line.trim_start();
    match t.strip_prefix("# ") {
        Some(rest) => rest.to_owned(),
        None if t == "#" => String::new(),
        None => line.to_owned(),
    }
}

/// `markdown` with every line outside a Rust fence blanked, so that the
/// fences' code keeps its line numbers.
fn fence_code(markdown: &str) -> String {
    let mut lines = vec![String::new(); markdown.lines().count()];
    for fence in rust_fences(markdown) {
        for (k, code) in fence.code.into_iter().enumerate() {
            lines[fence.line + k] = code;
        }
    }
    lines.join("\n")
}

/// Rule D1 over one Markdown file's Rust fences.
pub fn lint_doctests(file: &Path, markdown: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for fence in rust_fences(markdown) {
        let mut flag = |message: String| {
            out.push(Violation {
                file: file.to_owned(),
                line: fence.line,
                rule: "D1",
                message,
            })
        };
        if fence.attrs.iter().any(|a| a.starts_with("ignore")) {
            flag("an `ignore` block is never compiled; make it run".to_owned());
        }
        let reason = fence.code.first().map(|l| l.trim_start());
        if fence.attrs.iter().any(|a| a == "no_run")
            && !reason.is_some_and(|l| l.starts_with("// Not run: "))
        {
            flag("a `no_run` block opens with a `// Not run: <reason>` line".to_owned());
        }
        if let Some(name) = uncalled_fn(&fence.code) {
            flag(format!(
                "the block's only items are functions and nothing calls `{name}`, so its body \
                 never runs; name it `main` or call it from a (hidden) line"
            ));
        }
    }
    out
}

/// The first top-level function of a doctest whose only items are
/// functions other than `main`, when no top-level statement calls one.
fn uncalled_fn(code: &[String]) -> Option<String> {
    let stripped = strip(&code.join("\n"));
    let mut fns = Vec::new();
    let mut statements = Vec::new();
    for line in stripped
        .iter()
        .filter(|l| l.starts_with(|c: char| !c.is_whitespace()))
    {
        match words(line).next().unwrap_or_default() {
            "fn" => fns.extend(words(line).nth(1)),
            "use" => {}
            "pub" | "async" | "unsafe" | "extern" | "const" | "static" | "struct" | "enum"
            | "impl" | "trait" | "mod" | "type" => return None,
            _ if line.starts_with(['#', '}', ')', ']']) => {}
            _ => statements.push(line),
        }
    }
    let called = |name: &&str| statements.iter().any(|l| l.contains(&format!("{name}(")));
    if fns.contains(&"main") || fns.iter().any(called) {
        return None;
    }
    fns.first().map(|name| (*name).to_owned())
}

/// The names the facade's `pub mod prelude { .. }` re-exports: every word
/// of its `use` statements that is not a path segment (followed by `::`).
pub fn prelude_names(facade_lib: &str) -> std::collections::BTreeSet<String> {
    let code = strip(facade_lib);
    let mut names = std::collections::BTreeSet::new();
    let Some(start) = code.iter().position(|l| l.contains("pub mod prelude")) else {
        return names;
    };
    let mut depth = 0i64;
    for line in &code[start..] {
        let mut rest = line.as_str();
        while let Some(pos) = rest.find(|c: char| c.is_alphanumeric() || c == '_') {
            rest = &rest[pos..];
            let end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            let (word, after) = rest.split_at(end);
            if !after.starts_with("::") && !["pub", "use", "mod", "prelude", "as"].contains(&word) {
                names.insert(word.to_owned());
            }
            rest = after;
        }
        depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
        if depth <= 0 && line.contains('}') {
            break;
        }
    }
    names
}

/// The workspace half of rule M1: every metric name is minted at
/// exactly one registration site. `registrations` is every
/// `(file, line, name)` site found by [`metric_registrations`]; each
/// site past a name's first is a violation pointing back at the
/// original, so the fix — share the handle — is on the screen.
pub fn metric_uniqueness(registrations: &[(PathBuf, usize, String)]) -> Vec<Violation> {
    let mut first: std::collections::BTreeMap<&str, (&PathBuf, usize)> =
        std::collections::BTreeMap::new();
    let mut out = Vec::new();
    for (file, line, name) in registrations {
        match first.get(name.as_str()) {
            None => {
                first.insert(name, (file, *line));
            }
            Some((f0, l0)) => out.push(Violation {
                file: file.clone(),
                line: *line,
                rule: "M1",
                message: format!(
                    "metric `{name}` is already registered at {}:{l0}; register once and \
                     share the handle (reads go through `find_*`)",
                    f0.display()
                ),
            }),
        }
    }
    out
}

/// Every `.rs` file under `dir`, skipping build output (`target`) and
/// hidden directories.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if name != "target" && !name.starts_with('.') {
                collect_rs(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace's one byte codec: the only library file rule B1 lets
/// decode little-endian integers or hold a CRC-32 table.
const CODEC_MODULE: &str = "crates/store/src/bytes.rs";

/// Lint one file's source text (the unit-testable core).
pub fn lint_source(file: &Path, text: &str) -> Vec<Violation> {
    let raw: Vec<&str> = text.lines().collect();
    let code = strip(text);
    debug_assert_eq!(code.len(), raw.len());
    let in_test = test_regions(&code);
    let codec_module = file.ends_with(CODEC_MODULE);
    let mut out = Vec::new();

    for (i, code_line) in code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let lineno = i + 1;

        // F1: forbidden constructs, justification impossible.
        if contains_word(code_line, "static") && contains_word(code_line, "mut") {
            // Only flag the actual `static mut` sequence, not e.g.
            // `static X: Mutex<...>` or `&'static mut` in a type.
            if code_line.contains("static mut") {
                out.push(Violation {
                    file: file.to_owned(),
                    line: lineno,
                    rule: "F1",
                    message: "`static mut` is forbidden; use an atomic, a lock, or OnceLock"
                        .to_owned(),
                });
            }
        }
        if code_line.contains("transmute") {
            out.push(Violation {
                file: file.to_owned(),
                line: lineno,
                rule: "F1",
                message: "`transmute` is forbidden; use safe conversions or raw-pointer casts \
                          with a SAFETY argument"
                    .to_owned(),
            });
        }

        // S1: unsafe needs a SAFETY comment.
        if needs_safety(code_line) && !commented_nearby(&raw, i, "SAFETY:") {
            out.push(Violation {
                file: file.to_owned(),
                line: lineno,
                rule: "S1",
                message: "`unsafe` without a `// SAFETY:` comment on the line or just above"
                    .to_owned(),
            });
        }

        // O1: explicit weak ordering at an atomic call site needs an
        // ORDERING justification.
        if weak_ordering_at_atomic_op(code_line) && !commented_nearby(&raw, i, "ORDERING:") {
            out.push(Violation {
                file: file.to_owned(),
                line: lineno,
                rule: "O1",
                message: "non-SeqCst atomic ordering without a `// ORDERING:` justification \
                          on the line or just above"
                    .to_owned(),
            });
        }

        // W1: socket and file I/O never panic — a dead peer must become
        // a typed transport error and a bad file a typed storage error,
        // not a crash.
        if (socket_io_line(code_line) || file_io_line(code_line))
            && (code_line.contains(".unwrap()") || code_line.contains(".expect("))
        {
            out.push(Violation {
                file: file.to_owned(),
                line: lineno,
                rule: "W1",
                message: "`.unwrap()`/`.expect()` on a socket- or file-I/O line; map the \
                          failure to a typed transport/storage error instead"
                    .to_owned(),
            });
        }

        // B1: bytes are decoded and checksummed by the one codec.
        if !codec_module && (code_line.contains("from_le_bytes") || code_line.contains("CRC_TABLE"))
        {
            out.push(Violation {
                file: file.to_owned(),
                line: lineno,
                rule: "B1",
                message: format!(
                    "`from_le_bytes`/`CRC_TABLE` outside the byte codec; read through \
                     `ccindex_store::bytes` (`{CODEC_MODULE}`) instead"
                ),
            });
        }
    }

    // M1 (per-file half): registration-site metric names follow the
    // naming convention. Uniqueness across files is checked by
    // `lint_workspace` via `metric_uniqueness`.
    for (name, line) in metric_registrations(text) {
        if !valid_metric_name(&name) {
            out.push(Violation {
                file: file.to_owned(),
                line,
                rule: "M1",
                message: format!(
                    "metric name `{name}` must be dot.separated lowercase \
                     (`[a-z0-9]` segments joined by `.`)"
                ),
            });
        }
    }

    // H1: lib.rs hygiene.
    if file.file_name().is_some_and(|n| n == "lib.rs") {
        if !text.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
            out.push(Violation {
                file: file.to_owned(),
                line: 1,
                rule: "H1",
                message: "lib.rs must declare #![deny(unsafe_op_in_unsafe_fn)]".to_owned(),
            });
        }
        let first = raw.iter().find(|l| !l.trim().is_empty());
        if !first.is_some_and(|l| l.trim_start().starts_with("//!")) {
            out.push(Violation {
                file: file.to_owned(),
                line: 1,
                rule: "H1",
                message: "lib.rs must open with `//!` crate-level docs".to_owned(),
            });
        }
    }

    out
}

/// Metric-registration sites in one file: `(name, line)` for every
/// `.counter("…")` / `.gauge("…")` / `.histogram("…")` call with a
/// literal name, outside `#[cfg(test)]` code. The read accessors
/// (`find_counter`, `find_gauge`, `find_histogram`) deliberately don't
/// match — only registration sites mint a name. Detection runs on the
/// stripped line (so a comment or string merely *mentioning* a
/// registration doesn't count); the name itself is read back from the
/// raw line, taking the first as many matches as the stripped line
/// proved are code.
pub fn metric_registrations(text: &str) -> Vec<(String, usize)> {
    const PATTERNS: [&str; 3] = [".counter(\"", ".gauge(\"", ".histogram(\""];
    let raw: Vec<&str> = text.lines().collect();
    let code = strip(text);
    let in_test = test_regions(&code);
    let mut out = Vec::new();
    for (i, code_line) in code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        for pat in PATTERNS {
            let in_code = code_line.matches(pat).count();
            let mut offset = 0;
            for _ in 0..in_code {
                let Some(pos) = raw[i][offset..].find(pat) else {
                    break;
                };
                let start = offset + pos + pat.len();
                offset = start;
                if let Some(len) = raw[i][start..].find('"') {
                    out.push((raw[i][start..start + len].to_owned(), i + 1));
                }
            }
        }
    }
    out.sort_by_key(|(_, line)| *line);
    out
}

/// The naming convention rule M1 enforces on registration literals —
/// the same predicate `ccindex-obs` asserts at runtime
/// (`valid_metric_name`): lowercase `dot.separated` segments of
/// `[a-z0-9]`.
fn valid_metric_name(name: &str) -> bool {
    name.contains('.')
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        })
}

/// Whether a stripped line introduces an unsafe block/impl/fn.
fn needs_safety(code_line: &str) -> bool {
    let mut rest = code_line;
    while let Some(pos) = rest.find("unsafe") {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[pos + "unsafe".len()..];
        let after_ok = !after
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + "unsafe".len()..];
    }
    false
}

/// Whether a stripped line both names a weak `Ordering::` variant and
/// performs an atomic operation — the site where the choice matters.
fn weak_ordering_at_atomic_op(code_line: &str) -> bool {
    let weak = [
        "Ordering::Relaxed",
        "Ordering::Acquire",
        "Ordering::Release",
        "Ordering::AcqRel",
    ];
    if !weak.iter().any(|w| code_line.contains(w)) {
        return false;
    }
    let ops = [
        ".load(",
        ".store(",
        ".fetch_",
        ".compare_exchange",
        ".swap(",
    ];
    ops.iter().any(|op| code_line.contains(op))
}

/// Whether a stripped line performs socket I/O. Token-based on
/// purpose: the socket types and the wire crate's framing/stream
/// helpers name the operations that can fail because a *peer*
/// misbehaved, which is exactly the failure class that must stay
/// typed. Lines that merely sit near sockets (`Mutex::lock` poison
/// recovery, `JoinHandle::join`) carry none of these tokens.
fn socket_io_line(code_line: &str) -> bool {
    const TOKENS: [&str; 16] = [
        "TcpStream",
        "TcpListener",
        "UdpSocket",
        ".accept()",
        "::connect(",
        "read_frame",
        "write_frame",
        "write_vectored",
        "read_request",
        "write_request",
        "read_response",
        "write_response",
        "set_read_timeout",
        "set_write_timeout",
        "set_nodelay",
        "peer_addr",
    ];
    TOKENS.iter().any(|t| code_line.contains(t))
}

/// Whether a stripped line performs file I/O — the storage twin of
/// [`socket_io_line`]. Same token-based discipline: these name the
/// operations that can fail because the *filesystem* misbehaved
/// (missing file, short read, full disk), which is exactly the failure
/// class `MmdbError::Storage` types.
fn file_io_line(code_line: &str) -> bool {
    const TOKENS: [&str; 12] = [
        "File::open",
        "File::create",
        "OpenOptions",
        "fs::read",
        "fs::write",
        "fs::metadata",
        "fs::copy",
        "fs::rename",
        "fs::remove_file",
        "fs::remove_dir",
        "fs::create_dir",
        ".sync_all(",
    ];
    TOKENS.iter().any(|t| code_line.contains(t))
}

/// Whether `needle` appears in a `//` comment on line `i` or anywhere
/// in the contiguous comment block directly above it (blank lines and
/// attribute lines don't break the association; a code line does, so a
/// justification can't drift away from its site).
fn commented_nearby(raw: &[&str], i: usize, needle: &str) -> bool {
    if line_comment_contains(raw[i], needle) {
        return true;
    }
    // Bound the scan so a pathological megacomment can't make the pass
    // quadratic; no real justification block approaches this.
    let mut remaining = 64;
    let mut j = i;
    while remaining > 0 && j > 0 {
        j -= 1;
        let line = raw[j].trim_start();
        if line.is_empty() || line.starts_with("#[") || line.starts_with("#!") {
            continue; // doesn't consume the look-back budget
        }
        if line_comment_contains(raw[j], needle) {
            return true;
        }
        if !line.starts_with("//") {
            return false; // a code line in between breaks the association
        }
        remaining -= 1;
    }
    false
}

fn line_comment_contains(raw_line: &str, needle: &str) -> bool {
    raw_line
        .find("//")
        .is_some_and(|pos| raw_line[pos..].contains(needle))
}

fn contains_word(haystack: &str, word: &str) -> bool {
    let mut rest = haystack;
    while let Some(pos) = rest.find(word) {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[pos + word.len()..];
        let after_ok = !after
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + word.len()..];
    }
    false
}

/// The non-test code lines of one file: lines that still hold code once
/// comments are stripped (blank and comment-only lines, doc comments
/// included, do not count), up to the file's first `#[cfg(test)]`.
pub fn code_lines(text: &str) -> usize {
    strip(text)
        .iter()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .filter(|line| !line.trim().is_empty())
        .count()
}

/// [`code_lines`] summed over `path`: one `.rs` file, or every `.rs`
/// file under a directory. A file mounted behind a `#[cfg(test)]`
/// anywhere in the module tree `path` sits in (its nearest `src`
/// ancestor, or `path` itself) is test code and counts nothing.
pub fn code_lines_under(path: &Path) -> std::io::Result<usize> {
    let tree = path
        .ancestors()
        .find(|p| p.file_name().is_some_and(|n| n == "src"))
        .unwrap_or(path);
    let mut files = Vec::new();
    if tree.is_dir() {
        collect_rs(tree, &mut files)?;
    } else {
        files.push(tree.to_owned());
    }
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let text = std::fs::read_to_string(&file)?;
        sources.push((file, text));
    }
    let mounted = test_mounted_files(&sources);
    Ok(sources
        .iter()
        .filter(|(file, _)| file.starts_with(path) && !mounted.contains_key(file))
        .map(|(_, text)| code_lines(text))
        .sum())
}

/// The files that `#[cfg(test)]` module declarations mount
/// (`#[cfg(test)] mod suite;`, a `#[path = "…"]` honoured), and every
/// file those mount in turn, each mapped to the directory of the file
/// whose declaration sits behind the `#[cfg(test)]`. They are test code
/// throughout, though no line of theirs is under a `#[cfg(test)]` of its
/// own. Only the rules that count code (`--loc`, U1's uses) read this;
/// the rules that exempt test code keep checking these files.
fn test_mounted_files(sources: &[(PathBuf, String)]) -> BTreeMap<PathBuf, PathBuf> {
    // `(declaring file, declared file, behind #[cfg(test)])` per `mod x;`.
    let mut edges = Vec::new();
    for (file, text) in sources {
        let code = strip(text);
        let raw: Vec<&str> = text.lines().collect();
        let in_test = test_regions(&code);
        for (i, line) in code.iter().enumerate() {
            let t = line.trim();
            let t = t
                .strip_prefix("pub(crate) ")
                .or_else(|| t.strip_prefix("pub "))
                .unwrap_or(t);
            let Some(name) = t.strip_prefix("mod ").and_then(|r| r.strip_suffix(';')) else {
                continue;
            };
            let path_attr = (0..i)
                .rev()
                .take_while(|&j| code[j].trim_start().starts_with("#["))
                .find_map(|j| {
                    raw[j]
                        .trim()
                        .strip_prefix("#[path = \"")?
                        .strip_suffix("\"]")
                });
            let dir = file.parent().unwrap_or(Path::new(""));
            let candidates = match path_attr {
                Some(path) => vec![dir.join(path)],
                None => {
                    let base = match file.file_name().and_then(|n| n.to_str()) {
                        Some("lib.rs" | "main.rs" | "mod.rs") => dir.to_owned(),
                        _ => dir.join(file.file_stem().unwrap_or_default()),
                    };
                    let name = name.trim();
                    vec![
                        base.join(format!("{name}.rs")),
                        base.join(name).join("mod.rs"),
                    ]
                }
            };
            if let Some(target) = candidates
                .into_iter()
                .find(|c| sources.iter().any(|(f, _)| f == c))
            {
                edges.push((file, target, in_test[i]));
            }
        }
    }
    let mut mounted: BTreeMap<PathBuf, PathBuf> = edges
        .iter()
        .filter(|&&(_, _, gated)| gated)
        .map(|(from, to, _)| {
            (
                to.clone(),
                from.parent().unwrap_or(Path::new("")).to_owned(),
            )
        })
        .collect();
    loop {
        let next: Vec<(PathBuf, PathBuf)> = edges
            .iter()
            .filter(|(_, to, _)| !mounted.contains_key(to))
            .filter_map(|(from, to, _)| Some((to.clone(), mounted.get(*from)?.clone())))
            .collect();
        if next.is_empty() {
            return mounted;
        }
        mounted.extend(next);
    }
}

/// Blank out comments and string/char-literal contents, preserving the
/// line structure, so pattern checks only see code.
fn strip(text: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum State {
        Code,
        Block(usize), // nesting depth
    }
    let mut state = State::Code;
    let mut out = Vec::new();
    for line in text.lines() {
        let bytes = line.as_bytes();
        let mut stripped = String::with_capacity(line.len());
        let mut i = 0;
        while i < bytes.len() {
            match state {
                State::Block(depth) => {
                    if bytes[i..].starts_with(b"*/") {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        i += 2;
                    } else if bytes[i..].starts_with(b"/*") {
                        state = State::Block(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                State::Code => {}
            }
            if bytes[i..].starts_with(b"//") {
                break; // rest of the line is a comment
            }
            if bytes[i..].starts_with(b"/*") {
                state = State::Block(1);
                i += 2;
                continue;
            }
            match bytes[i] {
                b'"' => {
                    // Skip the string literal body (escapes included);
                    // an unterminated literal (raw string spanning
                    // lines — not used in this workspace) blanks the
                    // rest of the line.
                    stripped.push('"');
                    i += 1;
                    while i < bytes.len() {
                        if bytes[i] == b'\\' {
                            i += 2;
                        } else if bytes[i] == b'"' {
                            i += 1;
                            break;
                        } else {
                            i += 1;
                        }
                    }
                    stripped.push('"');
                }
                b'\'' => {
                    // Char literal vs lifetime: a literal closes within
                    // a few bytes; a lifetime has no closing quote.
                    let close = if i + 1 < bytes.len() && bytes[i + 1] == b'\\' {
                        bytes
                            .get(i + 2..)
                            .and_then(|r| r.iter().position(|&b| b == b'\''))
                            .map(|p| i + 2 + p)
                    } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                        Some(i + 2)
                    } else {
                        None
                    };
                    if let Some(close) = close {
                        stripped.push_str("' '");
                        i = close + 1;
                    } else {
                        stripped.push('\'');
                        i += 1;
                    }
                }
                b => {
                    stripped.push(b as char);
                    i += 1;
                }
            }
        }
        out.push(stripped);
    }
    if text.is_empty() {
        out.push(String::new());
    }
    out
}

/// Which lines sit inside a `#[cfg(test)]` item (computed on stripped
/// lines by brace counting from the attribute).
fn test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        let t = code[i].trim_start();
        let is_test_attr = t.starts_with("#[cfg(test)]")
            || t.starts_with("#[cfg(all(test")
            || t.starts_with("#[cfg(any(test");
        if !is_test_attr {
            i += 1;
            continue;
        }
        // Skip forward over the attributed item, tracking brace depth
        // from its first `{`.
        let mut depth: i64 = 0;
        let mut seen_open = false;
        let mut j = i;
        while j < code.len() {
            in_test[j] = true;
            for b in code[j].bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        seen_open = true;
                    }
                    b'}' => depth -= 1,
                    b';' if !seen_open && depth == 0 => {
                        // An item without a body (e.g. `mod tests;`).
                        seen_open = true;
                        depth = 0;
                    }
                    _ => {}
                }
            }
            j += 1;
            if seen_open && depth <= 0 {
                break;
            }
        }
        i = j;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(text: &str) -> Vec<Violation> {
        lint_source(Path::new("x.rs"), text)
    }

    #[test]
    fn unsafe_without_safety_flagged() {
        let v = lint("fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "S1");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_passes() {
        let ok = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(lint(ok).is_empty());
        let same_line = "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: p valid\n}\n";
        assert!(lint(same_line).is_empty());
    }

    #[test]
    fn safety_comment_does_not_reach_past_code() {
        let v = lint(
            "// SAFETY: this comment is about g, not f\nfn g() {}\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn weak_ordering_without_justification_flagged() {
        let v = lint("fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "O1");
    }

    #[test]
    fn seqcst_and_justified_weak_orderings_pass() {
        assert!(lint("fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::SeqCst); }\n").is_empty());
        assert!(lint(
            "fn f(a: &AtomicUsize) {\n    // ORDERING: observability counter only.\n    a.fetch_add(1, Ordering::Relaxed);\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn match_arms_on_cmp_ordering_not_flagged() {
        // `std::cmp::Ordering` pattern matches have no atomic call on
        // the line, so O1 ignores them.
        assert!(lint("match a.cmp(&b) {\n    Ordering::Less => {}\n    _ => {}\n}\n").is_empty());
    }

    #[test]
    fn forbidden_constructs_flagged() {
        let v = lint("static mut COUNTER: u32 = 0;\n");
        assert_eq!(v[0].rule, "F1");
        let v = lint("fn f(x: u64) -> f64 { unsafe { std::mem::transmute(x) } }\n");
        assert!(v
            .iter()
            .any(|v| v.rule == "F1" && v.message.contains("transmute")));
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        assert!(lint("fn f() { let s = \"unsafe { transmute }\"; }\n").is_empty());
        assert!(lint("// a note that mentions unsafe { } and static mut\nfn f() {}\n").is_empty());
        assert!(lint("/* unsafe {\n   transmute across lines\n*/\nfn f() {}\n").is_empty());
    }

    #[test]
    fn cfg_test_regions_exempt() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    use super::*;\n    fn t(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn lib_rs_hygiene() {
        let v = lint_source(Path::new("lib.rs"), "pub fn f() {}\n");
        assert!(v
            .iter()
            .any(|v| v.rule == "H1" && v.message.contains("deny")));
        assert!(v
            .iter()
            .any(|v| v.rule == "H1" && v.message.contains("//!")));
        let ok = "//! Docs.\n#![deny(unsafe_op_in_unsafe_fn)]\npub fn f() {}\n";
        assert!(lint_source(Path::new("lib.rs"), ok).is_empty());
    }

    #[test]
    fn socket_unwrap_flagged() {
        let v = lint("fn f() { let s = TcpStream::connect(\"a:1\").unwrap(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "W1");
        let v = lint("fn f(l: &TcpListener) { let (s, _) = l.accept().expect(\"peer\"); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "W1");
        let v = lint("fn f(r: &mut impl Read) { let p = read_frame(r, \"e\").unwrap(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "W1");
    }

    #[test]
    fn an_unwrapped_vectored_send_is_w1() {
        let v = lint("fn f(w: &mut impl Write, b: &[IoSlice]) { w.write_vectored(b).unwrap(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "W1");
        let v =
            lint("fn f(s: &TcpStream, b: &[IoSlice]) { (&*s).write_vectored(b).expect(\"n\"); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "W1");
        assert!(lint(
            "fn f(w: &mut impl Write, b: &[IoSlice]) -> Result<usize> { w.write_vectored(b).map_err(io) }\n"
        )
        .is_empty());
    }

    #[test]
    fn socket_io_mapped_to_typed_errors_passes() {
        assert!(
            lint("fn f() -> Result<TcpStream> { TcpStream::connect(a).map_err(conn)? }\n")
                .is_empty()
        );
        assert!(
            lint("fn f(s: &TcpStream) { let e = s.peer_addr().map(|a| a.to_string()); }\n")
                .is_empty()
        );
    }

    #[test]
    fn non_socket_unwraps_near_sockets_not_flagged() {
        // Poison recovery and thread joins have no socket token; they
        // may panic without violating the transport contract.
        assert!(lint(
            "fn f(m: &Mutex<Vec<u8>>) { let g = m.lock().unwrap_or_else(PoisonError::into_inner); }\n"
        )
        .is_empty());
        assert!(
            lint("fn f(h: JoinHandle<()>) { h.join().expect(\"thread panicked\"); }\n").is_empty()
        );
    }

    #[test]
    fn socket_unwrap_in_tests_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let s = TcpStream::connect(\"a:1\").unwrap(); }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn byte_decoding_outside_the_codec_is_b1() {
        let v = lint("fn f(b: [u8; 4]) -> u32 { u32::from_le_bytes(b) }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "B1");
        let v = lint("const CRC_TABLE: [u32; 256] = [0; 256];\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "B1");
        // Encoding, comments, strings and tests are not decoding.
        assert!(lint("fn f(v: u32) -> [u8; 4] { v.to_le_bytes() }\n").is_empty());
        assert!(
            lint("// u32::from_le_bytes\nfn f() -> &'static str { \"CRC_TABLE\" }\n").is_empty()
        );
        let test =
            "#[cfg(test)]\nmod tests {\n    fn t(b: [u8; 8]) -> u64 { u64::from_le_bytes(b) }\n}\n";
        assert!(lint(test).is_empty());
        // The codec module itself is the one exemption.
        let codec = Path::new("ws").join(CODEC_MODULE);
        assert!(lint_source(
            &codec,
            "fn f(b: [u8; 2]) -> u16 { u16::from_le_bytes(b) }\n"
        )
        .is_empty());
    }

    #[test]
    fn file_io_unwrap_flagged() {
        let v = lint("fn f() { let b = std::fs::read(\"x.ccsp\").unwrap(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "W1");
        let v = lint("fn f() { let file = File::open(path).expect(\"store\"); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "W1");
        let v = lint("fn f(p: &Path, b: &[u8]) { std::fs::write(p, b).unwrap(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "W1");
    }

    #[test]
    fn file_io_mapped_to_typed_errors_passes() {
        assert!(lint(
            "fn f(p: &Path) -> Result<Vec<u8>> { std::fs::read(p).map_err(open_fault) }\n"
        )
        .is_empty());
        assert!(
            lint("fn f(p: &Path, b: &[u8]) -> Result<()> { std::fs::write(p, b)?; Ok(()) }\n")
                .is_empty()
        );
    }

    #[test]
    fn file_io_unwrap_in_tests_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { std::fs::write(\"t\", b\"x\").unwrap(); }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn metric_registrations_extracted_from_code_only() {
        let src = "fn m(r: &Registry) {\n\
                   \x20   let c = r.counter(\"serve.requests\");\n\
                   \x20   let g = r.gauge(\"serve.queue.depth\"); // or .counter(\"not.me\")\n\
                   \x20   let h = r.histogram(\"serve.latency.ns\");\n\
                   \x20   let f = r.find_counter(\"serve.requests\");\n\
                   }\n\
                   #[cfg(test)]\nmod tests {\n    fn t(r: &Registry) { r.counter(\"test.only\"); }\n}\n";
        let regs = metric_registrations(src);
        assert_eq!(
            regs,
            vec![
                ("serve.requests".to_owned(), 2),
                ("serve.queue.depth".to_owned(), 3),
                ("serve.latency.ns".to_owned(), 4),
            ]
        );
    }

    #[test]
    fn malformed_metric_names_flagged() {
        let v = lint("fn m(r: &Registry) { r.counter(\"BadName\"); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "M1");
        let v = lint("fn m(r: &Registry) { r.histogram(\"nodots\"); }\n");
        assert_eq!(v[0].rule, "M1");
        assert!(lint("fn m(r: &Registry) { r.gauge(\"serve.queue.depth\"); }\n").is_empty());
        // Dynamic names aren't literals; the runtime assert owns those.
        assert!(lint("fn m(r: &Registry, n: &str) { r.counter(n); }\n").is_empty());
    }

    #[test]
    fn duplicate_metric_registrations_flagged_at_the_second_site() {
        let a = PathBuf::from("a.rs");
        let b = PathBuf::from("b.rs");
        let regs = vec![
            (a.clone(), 10, "serve.requests".to_owned()),
            (b.clone(), 5, "serve.latency.ns".to_owned()),
            (b.clone(), 20, "serve.requests".to_owned()),
        ];
        let v = metric_uniqueness(&regs);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, &v[0].file, v[0].line), ("M1", &b, 20));
        assert!(v[0].message.contains("a.rs:10"), "{}", v[0].message);
    }

    #[test]
    fn code_lines_skip_blanks_comments_and_the_test_module() {
        let fixture = concat!(
            "//! Crate docs.\n",
            "\n",
            "/// A documented function.\n",
            "pub fn f() -> &'static str {\n",
            "    // A comment-only line.\n",
            "    \"a // string, not a comment\" /* trailing */\n",
            "}\n",
            "/* a block\n",
            "   comment */\n",
            "pub fn g() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() {}\n",
            "}\n",
            "pub fn after_the_tests() {}\n",
        );
        // `pub fn f`, the string line, `}` and `pub fn g`; everything
        // from the first `#[cfg(test)]` on is test code.
        assert_eq!(code_lines(fixture), 4);
        assert_eq!(code_lines(""), 0);
    }

    #[test]
    fn unreferenced_pub_items_are_found_by_name_across_the_workspace() {
        let file = |path: &str, text: &str| (PathBuf::from(path), text.to_owned());
        let sources = [
            file(
                "crates/a/src/lib.rs",
                concat!(
                    "//! Docs naming `only_tested` and `orphan` do not count.\n",
                    "pub fn used_elsewhere() {}\n",
                    "pub fn only_tested() -> &'static str { \"orphan\" }\n",
                    "pub fn used_here() {}\n",
                    "fn private() { used_here() }\n",
                    "pub const fn orphan() {}\n",
                    "pub const LIMIT: usize = 3;\n",
                    "pub struct Reexported;\n",
                    "pub(crate) fn internal() {}\n",
                    "pub use self::b::Other;\n",
                    "#[cfg(test)]\n",
                    "mod tests {\n",
                    "    fn t() { super::only_tested(); super::orphan(); }\n",
                    "}\n",
                ),
            ),
            file(
                "crates/b/src/lib.rs",
                "use a::{\n    orphan,\n    Reexported,\n};\npub fn calls() { a::used_elsewhere() }\n",
            ),
            file("ccbench/src/main.rs", "fn main() { b::calls(); }\n"),
            file("crates/b/tests/t.rs", "#[test]\nfn t() { assert_eq!(a::LIMIT, 3); }\n"),
        ];
        let found = unreferenced_pub_items(&sources, |p| p.starts_with("crates/a/src"));
        let names: Vec<(usize, &str)> = found.iter().map(|(_, l, n)| (*l, n.as_str())).collect();
        // `use` lines, comments, strings and the defining file's own tests
        // are not uses; another crate's tests and `ccbench/` are.
        assert_eq!(
            names,
            [(3, "only_tested"), (6, "orphan"), (8, "Reexported")]
        );
        assert!(found
            .iter()
            .all(|(f, ..)| f == Path::new("crates/a/src/lib.rs")));
        let facade = "pub mod prelude {\n    pub use crate::a::{Reexported, X};\n    pub use b::calls;\n}\npub fn after() {}\n";
        let prelude = prelude_names(facade);
        assert_eq!(
            prelude.into_iter().collect::<Vec<_>>(),
            ["Reexported", "X", "calls"]
        );
    }

    #[test]
    fn files_mounted_behind_cfg_test_are_test_code_for_u1() {
        let file = |path: &str, text: &str| (PathBuf::from(path), text.to_owned());
        let sources = [
            file(
                "crates/a/src/lib.rs",
                concat!(
                    "pub mod tree;\n",
                    "pub use tree::{kept, only_suite};\n",
                    "#[cfg(test)]\n",
                    "#[path = \"suite/full.rs\"]\n",
                    "mod full;\n",
                    "#[cfg(test)]\n",
                    "mod suite;\n",
                ),
            ),
            file(
                "crates/a/src/tree.rs",
                "pub fn kept() {}\npub fn only_suite() {}\n",
            ),
            file(
                "crates/a/src/suite/full.rs",
                "fn t() { tree::only_suite(); tree::kept(); b::for_a_suite(); }\n",
            ),
            file(
                "crates/a/src/suite/mod.rs",
                "mod golden;\npub fn helper() {}\n",
            ),
            file(
                "crates/a/src/suite/golden.rs",
                "fn g() { super::helper(); }\n",
            ),
            file(
                "crates/b/src/lib.rs",
                "pub fn for_a_suite() {}\npub fn calls() { a::kept() }\n",
            ),
            file("ccbench/src/main.rs", "fn main() { b::calls(); }\n"),
        ];
        let scope = PathBuf::from("crates/a/src");
        let mounted = test_mounted_files(&sources);
        assert_eq!(
            mounted.into_iter().collect::<Vec<_>>(),
            [
                (PathBuf::from("crates/a/src/suite/full.rs"), scope.clone()),
                (PathBuf::from("crates/a/src/suite/golden.rs"), scope.clone()),
                (PathBuf::from("crates/a/src/suite/mod.rs"), scope),
            ]
        );
        // The suite's mention keeps nothing of its own crate alive; it
        // still counts for another crate's item, and for the suite's own
        // helpers, which U1 keeps checking.
        let found = unreferenced_pub_items(&sources, |p| p.starts_with("crates"));
        let names: Vec<(&Path, usize, &str)> = found
            .iter()
            .map(|(f, l, n)| (f.as_path(), *l, n.as_str()))
            .collect();
        assert_eq!(
            names,
            [(Path::new("crates/a/src/tree.rs"), 2, "only_suite")]
        );
    }

    #[test]
    fn a_sibling_files_unit_tests_are_test_code_for_u1() {
        let file = |path: &str, text: &str| (PathBuf::from(path), text.to_owned());
        let sources = [
            file(
                "crates/a/src/lib.rs",
                "pub mod tree;\npub mod walk;\npub use tree::{kept, only_sibling_tests};\n",
            ),
            file(
                "crates/a/src/tree.rs",
                "pub fn kept() {}\npub fn only_sibling_tests() {}\npub fn for_b_tests() {}\n",
            ),
            file(
                "crates/a/src/walk.rs",
                concat!(
                    "pub fn walk() { crate::tree::kept() }\n",
                    "#[cfg(test)]\n",
                    "mod tests {\n",
                    "    fn t() { crate::tree::only_sibling_tests(); }\n",
                    "}\n",
                ),
            ),
            file(
                "crates/b/src/lib.rs",
                concat!(
                    "pub fn calls() { a::walk::walk() }\n",
                    "#[cfg(test)]\n",
                    "mod tests {\n",
                    "    fn t() { a::tree::for_b_tests(); }\n",
                    "}\n",
                ),
            ),
            file("ccbench/src/main.rs", "fn main() { b::calls(); }\n"),
        ];
        // A sibling file's unit tests are the crate's own tests; another
        // crate's unit tests still count as a use.
        let found = unreferenced_pub_items(&sources, |p| p.starts_with("crates"));
        let names: Vec<(&Path, usize, &str)> = found
            .iter()
            .map(|(f, l, n)| (f.as_path(), *l, n.as_str()))
            .collect();
        assert_eq!(
            names,
            [(Path::new("crates/a/src/tree.rs"), 2, "only_sibling_tests")]
        );
    }

    #[test]
    fn loc_counts_no_line_of_a_file_mounted_behind_cfg_test() {
        let src = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../css-tree/src"));
        let count = |path: &Path| code_lines_under(path).expect("css-tree's sources");
        assert_eq!(count(&src.join("suite")), 0);
        assert_eq!(count(&src.join("suite/golden.rs")), 0);
        let mut files = Vec::new();
        collect_rs(src, &mut files).expect("css-tree's sources");
        let own: usize = files
            .iter()
            .filter(|f| !f.starts_with(src.join("suite")))
            .map(|f| count(f))
            .sum();
        assert!(own > 0);
        assert_eq!(count(src), own);
    }

    #[test]
    fn u1_allowlist_entries_name_real_items_and_carry_reasons() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        for (file, name, reason) in U1_ALLOWED {
            let text = std::fs::read_to_string(root.join(file)).expect("allowlisted file exists");
            assert!(
                strip(&text).iter().any(|l| pub_item_name(l) == Some(name)),
                "{file} defines no pub `{name}`"
            );
            assert!(reason.len() > 20, "{name}: give a reason");
        }
    }

    #[test]
    fn rust_fences_are_read_as_rustdoc_reads_them() {
        let md = concat!(
            "# Title\n",
            "```sh\n",
            "cargo test\n",
            "```\n",
            "```rust,no_run\n",
            "// Not run: binds a port.\n",
            "# hidden();\n",
            "    #[derive(Debug)]\n",
            "```\n",
            "```\n",
            "untagged();\n",
            "```\n",
            "```text\n",
            "prose();\n",
            "```\n",
        );
        let fences = rust_fences(md);
        assert_eq!(fences.len(), 2);
        assert_eq!(
            (fences[0].line, fences[0].attrs.as_slice()),
            (5, &["rust".to_owned(), "no_run".to_owned()][..])
        );
        assert_eq!(
            fences[0].code,
            [
                "// Not run: binds a port.",
                "hidden();",
                "    #[derive(Debug)]"
            ]
        );
        assert_eq!(
            (fences[1].line, fences[1].code.as_slice()),
            (10, &["untagged();".to_owned()][..])
        );
        let code = fence_code(md);
        assert_eq!(code.lines().nth(6), Some("hidden();"));
        assert_eq!(code.lines().filter(|l| !l.is_empty()).count(), 4);
    }

    #[test]
    fn d1_flags_every_block_that_would_not_run() {
        let d1 = |md: &str| -> Vec<usize> {
            lint_doctests(Path::new("README.md"), md)
                .iter()
                .map(|v| {
                    assert_eq!(v.rule, "D1");
                    v.line
                })
                .collect()
        };
        let runs = [
            "```rust\nlet x = 1;\nassert_eq!(x, 1);\n```\n",
            "```rust\nfn main() {\n    assert!(true);\n}\n```\n",
            "```rust\nuse a::b;\nfn demo() -> Result<(), E> {\n    Ok(())\n}\n# demo().unwrap();\n```\n",
            "```rust\nstruct S;\nfn helper() {}\n```\n",
            "```rust,no_run\n// Not run: it binds port 80.\nfn main() {}\n```\n",
            "```sh\nfn demo() {}\n```\n",
        ];
        for md in runs {
            assert!(d1(md).is_empty(), "{md}");
        }
        let never = [
            "```rust\nuse a::b;\n\nfn demo() {\n    assert!(false);\n}\n```\n",
            "```rust\nfn demo() {}\nfn other() {}\nlet x = demo;\n```\n",
            "```rust,ignore\nlet x = 1;\n```\n",
            "```rust,no_run\nfn main() {}\n```\n",
        ];
        for md in never {
            assert_eq!(d1(md), [1], "{md}");
        }
        // Names in a fence are uses of rule U1; prose is not.
        let code = fence_code("`orphan` in prose\n```rust\nlet x = a::orphan();\n```\n");
        assert!(!code.lines().next().unwrap_or_default().contains("orphan"));
        assert!(code.contains("a::orphan()"));
    }

    #[test]
    fn lifetimes_do_not_derail_the_stripper() {
        let src =
            "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g(p: *const u8) -> u8 { unsafe { *p } }\n";
        let v = lint(src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("S1", 2));
    }
}
