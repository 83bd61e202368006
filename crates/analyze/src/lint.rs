//! Source-level lint pass for determinism and safety hygiene.
//!
//! The simulator's contract is byte-identical reports at any thread
//! count, which a single `HashMap` iteration feeding a serializer can
//! silently break. This pass walks the repository's Rust sources with a
//! small hand-rolled lexer (strings, raw strings, char literals, and
//! nested block comments stripped, line structure preserved) and flags:
//!
//! * **`nd-map-in-report`** — `HashMap`/`HashSet` mentioned in files on
//!   report/render/serialization paths, where iteration order reaches
//!   output bytes;
//! * **`nd-unordered-reduction`** — a reduction (`sum`/`product`/`fold`)
//!   folded directly over hash-map iteration, whose float result is
//!   order-dependent;
//! * **`nd-wall-clock`** — `Instant::now`/`SystemTime::now` inside the
//!   timing-critical crates, where simulated time is the only clock;
//! * **`nd-hashmap-iter`** — same-line iteration over a
//!   `HashMap`/`HashSet` (`.iter()`, `.keys()`, `.values()`, `.drain()`,
//!   or a `for` loop) outside test code: hash order varies per process,
//!   so anything folded from it must be re-ordered before use;
//! * **`panic-in-hot-path`** — `.unwrap()`, `.expect(...)`, or `panic!`
//!   in the hot-path files ([`HOT_PATH_FILES`]) outside test code, where
//!   a panic aborts the simulated machine (or the run entry point) instead
//!   of reporting a fault through the exception path or a typed error;
//! * **`unsafe-audit`** — an `unsafe` token without a `// SAFETY:`
//!   comment in the three lines above it. The workspace forbids `unsafe`
//!   outright (`unsafe_code = "forbid"`), so this rule exists for
//!   vendored or future exceptions.
//!
//! A finding is suppressed by `// lint: allow(<rule>)` on the same line
//! or the line above. The `lint` binary (`cargo run -p capcheri-analyze
//! --bin lint`) prints findings sorted by file and line and exits
//! non-zero if any survive.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint hit.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LintFinding {
    /// File the finding is in (as passed to [`lint_source`]).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Stable rule slug.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The lexer's view of a source file: code with literals blanked, plus
/// comment trivia, both line-addressed.
struct Lexed {
    /// One entry per source line: the line with strings/chars/comments
    /// replaced by spaces (so column positions survive).
    code: Vec<String>,
    /// `(line, text)` for every comment, one entry per source line the
    /// comment spans.
    comments: Vec<(u32, String)>,
}

/// Strips literals and comments while preserving line structure.
///
/// Handles escaped strings, byte strings, raw strings with `#` fences,
/// char literals (distinguished from lifetimes by lookahead), line
/// comments, and nested block comments — enough to lex this repository
/// without false positives from tokens inside literals.
fn lex(source: &str) -> Lexed {
    let b = source.as_bytes();
    let mut code = vec![String::new()];
    let mut comments = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;

    let push_char = |code: &mut Vec<String>, c: char| code.last_mut().unwrap().push(c);
    let blank = |code: &mut Vec<String>| code.last_mut().unwrap().push(' ');

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                code.push(String::new());
                line += 1;
                i += 1;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                // Line comment: capture to end of line as trivia.
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                comments.push((line, source[start..i].to_owned()));
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comment.
                let mut depth = 1;
                let mut text_line_start = i;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            comments.push((line, source[text_line_start..i].to_owned()));
                            code.push(String::new());
                            line += 1;
                            text_line_start = i + 1;
                        }
                        i += 1;
                    }
                }
                comments.push((line, source[text_line_start..i].to_owned()));
            }
            b'"' => {
                // Plain (or byte) string; the b prefix was already copied.
                blank(&mut code);
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            code.push(String::new());
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                blank(&mut code);
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                // Raw string: r"..."/r#"..."# (optionally b-prefixed).
                let mut j = i;
                if b[j] == b'b' {
                    j += 1;
                }
                j += 1; // the `r`
                let mut fence = 0;
                while j < b.len() && b[j] == b'#' {
                    fence += 1;
                    j += 1;
                }
                j += 1; // opening quote
                blank(&mut code);
                while j < b.len() {
                    if b[j] == b'"' && closes_raw(b, j, fence) {
                        j += 1 + fence;
                        break;
                    }
                    if b[j] == b'\n' {
                        code.push(String::new());
                        line += 1;
                    }
                    j += 1;
                }
                i = j;
                blank(&mut code);
            }
            b'\'' => {
                // Char literal vs lifetime: 'x' / '\n' are literals,
                // 'static is a lifetime.
                if i + 1 < b.len() && b[i + 1] == b'\\' {
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    blank(&mut code);
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    i += 3;
                    blank(&mut code);
                } else {
                    push_char(&mut code, '\'');
                    i += 1;
                }
            }
            _ => {
                push_char(&mut code, c as char);
                i += 1;
            }
        }
    }
    Lexed { code, comments }
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // r"..", r#"..., br"..., br#"... — and NOT an identifier like `radix`.
    let ident_before = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
    if ident_before {
        return false;
    }
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    // Plain b"..." byte strings fall through to the escaped-string arm.
    if b.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    b.get(j) == Some(&b'"')
}

fn closes_raw(b: &[u8], quote: usize, fence: usize) -> bool {
    (1..=fence).all(|k| b.get(quote + k) == Some(&b'#'))
}

/// `true` if `needle` occurs in `line` as a whole identifier.
fn has_ident(line: &str, needle: &str) -> bool {
    let mut rest = line;
    while let Some(pos) = rest.find(needle) {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = rest[pos + needle.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + needle.len()..];
    }
    false
}

/// Whether iteration order in `file` can reach serialized output.
fn is_report_path(file: &str) -> bool {
    let lower = file.to_ascii_lowercase();
    ["report", "render", "fig", "table", "json", "golden"]
        .iter()
        .any(|m| lower.contains(m))
}

/// Whether `file` is in a crate where wall-clock reads corrupt timing.
fn is_timing_path(file: &str) -> bool {
    ["crates/hetsim", "crates/core", "crates/cheri"]
        .iter()
        .any(|m| file.contains(m))
}

/// The files on the per-access hot path, where a panic aborts the
/// simulated machine instead of latching a fault: the checker front end,
/// its two capability stores, the elision bitmap, the memory engine and
/// its gates, tagged memory, the trace, the baseline protection
/// mechanisms, the timing core, the bus fault model and the event tracer
/// (both called on every grant or beat) — plus the driver and the run
/// entry point every cell passes through, which report a failure as a
/// typed error. Paths are relative to the repository root, and each must
/// exist — a renamed file would otherwise drop out of the rule silently.
pub const HOT_PATH_FILES: [&str; 18] = [
    "crates/core/src/checker.rs",
    "crates/core/src/store.rs",
    "crates/core/src/table.rs",
    "crates/core/src/elide.rs",
    "crates/core/src/engines.rs",
    "crates/core/src/system.rs",
    "crates/hetsim/src/engine.rs",
    "crates/hetsim/src/memory.rs",
    "crates/hetsim/src/trace.rs",
    "crates/hetsim/src/timing.rs",
    "crates/hetsim/src/bus.rs",
    "crates/ioprotect/src/lib.rs",
    "crates/ioprotect/src/none.rs",
    "crates/ioprotect/src/iopmp.rs",
    "crates/ioprotect/src/iommu.rs",
    "crates/ioprotect/src/snpu.rs",
    "crates/bench/src/runner.rs",
    "crates/obs/src/tracer.rs",
];

/// Whether `file` is on the per-access hot path ([`HOT_PATH_FILES`]).
fn is_hot_path(file: &str) -> bool {
    HOT_PATH_FILES.iter().any(|m| file.ends_with(m))
}

/// Lints one file's source text. `file` is used for path-sensitive rules
/// and in findings; it is not opened.
#[must_use]
pub fn lint_source(file: &str, source: &str) -> Vec<LintFinding> {
    let lexed = lex(source);
    let suppressed = |rule: &str, line: u32| {
        lexed.comments.iter().any(|(l, text)| {
            (*l == line || l + 1 == line) && text.contains(&format!("lint: allow({rule})"))
        })
    };
    let has_safety_comment = |line: u32| {
        lexed
            .comments
            .iter()
            .any(|(l, text)| *l <= line && l + 3 >= line && text.contains("SAFETY:"))
    };

    let mut findings = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        if !suppressed(rule, line) {
            findings.push(LintFinding {
                file: file.to_owned(),
                line,
                rule,
                message,
            });
        }
    };

    let report_path = is_report_path(file);
    let timing_path = is_timing_path(file);
    let hot_path = is_hot_path(file);
    // Test modules are file-final in this repository, so everything at
    // or after the first `#[cfg(test)]` is test code — where panics are
    // the assertion mechanism and hash order never reaches a report.
    let first_test_line = lexed
        .code
        .iter()
        .position(|code| code.contains("#[cfg(test)]"))
        .map(|idx| idx as u32 + 1);
    for (idx, code) in lexed.code.iter().enumerate() {
        let line = idx as u32 + 1;
        let in_tests = first_test_line.is_some_and(|t| line >= t);
        let hash_map = has_ident(code, "HashMap") || has_ident(code, "HashSet");
        if hash_map && report_path {
            push(
                "nd-map-in-report",
                line,
                "hash-map iteration order can reach report bytes; \
                 use BTreeMap/BTreeSet or sort before serializing"
                    .to_owned(),
            );
        }
        if hash_map
            && [".values(", ".keys(", ".iter("]
                .iter()
                .any(|m| code.contains(m))
            && [".sum(", ".product(", ".fold("]
                .iter()
                .any(|m| code.contains(m))
        {
            push(
                "nd-unordered-reduction",
                line,
                "reduction over hash-map iteration is order-dependent; \
                 collect and sort first"
                    .to_owned(),
            );
        }
        if hash_map
            && !in_tests
            && ([".iter(", ".keys(", ".values(", ".drain("]
                .iter()
                .any(|m| code.contains(m))
                || (has_ident(code, "for") && has_ident(code, "in")))
        {
            push(
                "nd-hashmap-iter",
                line,
                "iteration over a hash map varies per process; \
                 use an ordered container or sort before consuming"
                    .to_owned(),
            );
        }
        if hot_path
            && !in_tests
            && (code.contains(".unwrap()") || code.contains(".expect(") || code.contains("panic!"))
        {
            push(
                "panic-in-hot-path",
                line,
                "panic on the per-access hot path aborts the simulated \
                 machine; report through the fault/exception path instead"
                    .to_owned(),
            );
        }
        if timing_path && (code.contains("Instant::now") || code.contains("SystemTime::now")) {
            push(
                "nd-wall-clock",
                line,
                "wall-clock read in timing-critical code; \
                 simulated cycles are the only clock here"
                    .to_owned(),
            );
        }
        if has_ident(code, "unsafe") && !has_safety_comment(line) {
            push(
                "unsafe-audit",
                line,
                "`unsafe` without a `// SAFETY:` comment in the 3 lines above".to_owned(),
            );
        }
    }
    findings
}

/// Whether a path component disqualifies a directory from linting:
/// build output and the vendored stand-in crates (external code held to
/// its upstream's conventions, not this repository's).
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | ".git" | "rand" | "proptest" | "criterion")
}

fn walk(dir: &Path, vendored_root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Vendored crates are only skipped at the workspace's
            // crates/ level, so a kernel named `rand.rs` elsewhere
            // still gets linted.
            if name == "target" || name == ".git" || (dir == vendored_root && skip_dir(&name)) {
                continue;
            }
            walk(&path, vendored_root, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root`, skipping build output and the
/// vendored `crates/rand`, `crates/proptest`, and `crates/criterion`.
/// Findings come back sorted by `(file, line, rule)`.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn lint_paths(root: &Path) -> io::Result<Vec<LintFinding>> {
    let mut files = Vec::new();
    walk(root, &root.join("crates"), &mut files)?;
    let mut findings = Vec::new();
    for path in files {
        let source = fs::read_to_string(&path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(lint_source(&label, &source));
    }
    findings.sort();
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_map_in_report_file_is_flagged() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}\n";
        let findings = lint_source("crates/obs/src/report.rs", src);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "nd-map-in-report"));
        assert_eq!(findings[0].line, 1);
        // The same source off the report path is clean.
        assert!(lint_source("crates/obs/src/event.rs", src).is_empty());
    }

    #[test]
    fn tokens_inside_literals_and_comments_do_not_count() {
        let src = concat!(
            "// HashMap in a comment is fine\n",
            "/* nested /* HashMap */ still fine */\n",
            "let s = \"HashMap\";\n",
            "let r = r#\"HashMap \"quoted\" inside\"#;\n",
            "let c = 'H'; let lt: &'static str = s;\n",
        );
        assert!(lint_source("crates/obs/src/report.rs", src).is_empty());
    }

    #[test]
    fn unordered_reduction_is_flagged_anywhere() {
        let src = "let total: f64 = HashMap::new().values().sum();\n";
        let findings = lint_source("crates/perf/src/lib.rs", src);
        // The same line trips the general iteration rule too.
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["nd-unordered-reduction", "nd-hashmap-iter"]);
        // A reduction over a Vec is ordered: clean.
        let ok = "let total: f64 = v.iter().sum();\n";
        assert!(lint_source("crates/perf/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn wall_clock_only_flags_timing_crates() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(
            lint_source("crates/hetsim/src/bus.rs", src)[0].rule,
            "nd-wall-clock"
        );
        assert!(lint_source("crates/bench/src/harness.rs", src).is_empty());
    }

    #[test]
    fn unsafe_requires_a_safety_comment() {
        let bare = "unsafe { core::hint::unreachable_unchecked() }\n";
        let findings = lint_source("crates/core/src/x.rs", bare);
        assert_eq!(findings[0].rule, "unsafe-audit");

        let audited = concat!(
            "// SAFETY: the caller proved the branch unreachable by\n",
            "// exhaustive match above.\n",
            "unsafe { core::hint::unreachable_unchecked() }\n",
        );
        assert!(lint_source("crates/core/src/x.rs", audited).is_empty());

        // \"unsafe\" in a string is not an unsafe block.
        let quoted = "let s = \"unsafe\";\n";
        assert!(lint_source("crates/core/src/x.rs", quoted).is_empty());
    }

    #[test]
    fn hashmap_iteration_is_flagged_outside_tests() {
        let src = "let ks: Vec<u32> = HashMap::new().keys().copied().collect();\n";
        let findings = lint_source("crates/perf/src/pool.rs", src);
        assert!(
            findings.iter().any(|f| f.rule == "nd-hashmap-iter"),
            "{findings:#?}"
        );
        // A for-loop over a hash set on one line is flagged too.
        let looped = "for x in HashSet::new() { use_it(x); }\n";
        assert_eq!(
            lint_source("crates/perf/src/pool.rs", looped)[0].rule,
            "nd-hashmap-iter"
        );
        // The same line after #[cfg(test)] is test code: clean.
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_source("crates/perf/src/pool.rs", &in_tests).is_empty());
        // Membership queries don't iterate: clean.
        let member = "let hit = HashSet::new().contains(&k);\n";
        assert!(lint_source("crates/perf/src/pool.rs", member).is_empty());
    }

    #[test]
    fn panics_are_flagged_only_in_hot_path_files() {
        let src =
            "let v = table.get(&key).unwrap();\nlet w = row.expect(\"row\");\npanic!(\"boom\");\n";
        for file in HOT_PATH_FILES {
            let findings = lint_source(file, src);
            assert_eq!(findings.len(), 3, "{file}: {findings:#?}");
            assert!(findings.iter().all(|f| f.rule == "panic-in-hot-path"));
        }
        // Off the hot path the same source is clean.
        assert!(lint_source("crates/core/src/adapt.rs", src).is_empty());
        // Inside the file-final test module it is clean too.
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_source("crates/core/src/checker.rs", &in_tests).is_empty());
        // And the allow comment suppresses a justified site.
        let allowed = concat!(
            "// lint: allow(panic-in-hot-path)\n",
            "let row = rows.last_mut().expect(\"row just ensured\");\n",
        );
        assert!(lint_source("crates/core/src/elide.rs", allowed).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_one_line() {
        let src = concat!(
            "// lint: allow(nd-map-in-report)\n",
            "use std::collections::HashMap;\n",
            "fn f(m: &HashMap<u32, u32>) {}\n",
        );
        let findings = lint_source("crates/obs/src/report.rs", src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn multi_line_strings_keep_line_numbers_straight() {
        let src = "let s = \"line one\nline two\";\nlet m: HashMap<u8, u8>;\n";
        let findings = lint_source("crates/obs/src/json.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn repo_walk_skips_vendored_crates() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = lint_paths(&root).unwrap();
        assert!(
            findings.iter().all(|f| !f.file.starts_with("crates/rand")
                && !f.file.starts_with("crates/proptest")
                && !f.file.starts_with("crates/criterion")),
            "vendored findings leaked"
        );
    }
}
