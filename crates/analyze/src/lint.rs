//! Source invariant linter (front 2): a hand-rolled scanner over the
//! workspace's `.rs` files enforcing the repository's concurrency and
//! timing conventions.
//!
//! Rules:
//!
//! * `LINT-E101` (`safety-comment`) — every `unsafe` token is preceded
//!   (same line, or the comment block just above, allowing two
//!   intervening statement lines) by a `// SAFETY:` comment.
//! * `LINT-E102` (`atomic-ordering`) — every atomic *declaration*
//!   (struct field, `static`, `let` with an explicit `Atomic*` type)
//!   carries a comment naming its memory-ordering discipline
//!   (`Relaxed`, `Acquire`, `Release`, `AcqRel`, `SeqCst`, or the word
//!   "ordering"). A comment above a run of atomic fields covers the
//!   whole run.
//! * `LINT-E103` (`thread-spawn`) — `thread::spawn` / `thread::Builder`
//!   only in the worker pool (`crates/gemm/src/pool.rs`) and the
//!   serving layer's long-lived service threads
//!   (`crates/serve/src/server.rs` dispatchers,
//!   `crates/serve/src/tcp.rs` acceptor + fixed reader pool);
//!   everything else must go through the pool so §III-D's
//!   spawn-per-call overhead cannot creep back. The serve entries are
//!   deliberate: those threads live for the server's lifetime, never
//!   per GEMM call or per connection.
//! * `LINT-E104` (`instant-now`) — `Instant::now` only in telemetry
//!   (`crates/core/src/telemetry.rs`), the serving layer's single
//!   clock shim (`crates/serve/src/clock.rs`, where wall time is
//!   request semantics: deadlines and the coalescing window), and
//!   bench/example code, so the untimed hot path provably never reads
//!   the clock.
//! * `LINT-W105` — a malformed or unused waiver.
//! * `LINT-E107` (`foreign-fn`) — `extern` blocks and functions (any
//!   ABI; `extern crate` is not one) only in the serving layer's
//!   `poll(2)` wrapper (`crates/serve/src/poll.rs`), so the workspace's
//!   foreign-function surface stays one audited file.
//! * `LINT-E106` (`vector-width-literal`) — hardcoded vector-width
//!   assumptions: references to the retired NEON-128 constants
//!   (`F32_LANES`, `TOTAL_VREGS`, `SPARE_VREGS`), or a width-parametric
//!   model API (`chain_bound_efficiency`, `accumulator_registers`,
//!   `satisfies_register_constraint`) called with a bare lane-count
//!   literal. Lane counts must come from a [`smm_model::VectorIsa`];
//!   only the ISA definitions themselves (`crates/model/src/isa.rs`)
//!   may spell widths out.
//!
//! Test code is exempt: everything at or below a file's first
//! `#[cfg(test)]`, and files under a `tests/` directory.
//!
//! A rule can be waived at a specific site with
//! `// lint:allow(<rule-id>) -- <rationale>` on the same line or the
//! line above; the rationale is mandatory, and only plain `//`
//! comments count (a doc comment cannot waive anything).
//!
//! The scanner strips comments and string/char literals with a small
//! state machine (line comments, nested block comments, escapes, raw
//! strings, lifetime-vs-char disambiguation), so tokens inside strings
//! or docs never trigger rules — and comment text is kept per line for
//! the SAFETY/ordering checks.

use std::path::Path;

use crate::report::{Finding, Report};

/// One source line split into its code and comment parts.
#[derive(Debug, Clone, Default)]
pub struct LineView {
    /// The line with comments and literal contents removed.
    pub code: String,
    /// The concatenated comment text of the line.
    pub comment: String,
}

#[derive(Clone, Copy)]
enum ScanState {
    Normal,
    Block(u32),
    Str,
    RawStr(u32),
}

/// Split `source` into per-line code/comment views.
pub fn strip_source(source: &str) -> Vec<LineView> {
    let mut out = Vec::new();
    let mut state = ScanState::Normal;
    for line in source.lines() {
        let chars: Vec<char> = line.chars().collect();
        let mut view = LineView::default();
        let mut i = 0;
        while i < chars.len() {
            match state {
                ScanState::Normal => {
                    let c = chars[i];
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        view.comment
                            .push_str(&chars[i + 2..].iter().collect::<String>());
                        i = chars.len();
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = ScanState::Block(1);
                        i += 2;
                    } else if (c == 'r' || c == 'b')
                        && !prev_is_ident(&chars, i)
                        && raw_string_hashes(&chars, i).is_some()
                    {
                        let (hashes, skip) = raw_string_hashes(&chars, i).unwrap();
                        view.code.push('"');
                        state = ScanState::RawStr(hashes);
                        i += skip;
                    } else if c == '"' {
                        view.code.push('"');
                        state = ScanState::Str;
                        i += 1;
                    } else if c == '\'' {
                        // Char literal vs lifetime: 'x' / '\n' close
                        // within two chars; a lifetime never closes.
                        if chars.get(i + 1) == Some(&'\\') {
                            i += 2; // skip the escape lead-in
                            while i < chars.len() && chars[i] != '\'' {
                                i += 1;
                            }
                            i += 1;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            i += 3;
                        } else {
                            view.code.push('\'');
                            i += 1;
                        }
                    } else {
                        view.code.push(c);
                        i += 1;
                    }
                }
                ScanState::Block(depth) => {
                    if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        state = if depth == 1 {
                            ScanState::Normal
                        } else {
                            ScanState::Block(depth - 1)
                        };
                        i += 2;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        state = ScanState::Block(depth + 1);
                        i += 2;
                    } else {
                        view.comment.push(chars[i]);
                        i += 1;
                    }
                }
                ScanState::Str => {
                    if chars[i] == '\\' {
                        i += 2;
                    } else if chars[i] == '"' {
                        view.code.push('"');
                        state = ScanState::Normal;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                ScanState::RawStr(hashes) => {
                    if chars[i] == '"' && closes_raw(&chars, i, hashes) {
                        view.code.push('"');
                        state = ScanState::Normal;
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        out.push(view);
    }
    out
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// If `chars[i..]` opens a raw string (`r"`, `r#"`, `br##"`, …),
/// return `(hash_count, chars_to_skip_through_the_quote)`.
fn raw_string_hashes(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j + 1 - i))
    } else {
        None
    }
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|h| chars.get(i + h) == Some(&'#'))
}

/// `needle` as a whole word (non-identifier chars on both sides).
fn has_word(code: &str, needle: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre = start == 0 || !is_ident_byte(bytes[start - 1]);
        let post = end == bytes.len() || !is_ident_byte(bytes[end]);
        if pre && post {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does this line *declare* an atomic (field, `static`, typed `let`)?
/// Initializer expressions (`AtomicU64::new(..)`) and `use` imports do
/// not count; the rationale belongs where the atomic is declared.
pub fn is_atomic_decl(code: &str) -> bool {
    let trimmed = code.trim_start();
    if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
        return false;
    }
    let chars: Vec<char> = code.chars().collect();
    let mut from = 0;
    let s: String = chars.iter().collect();
    while let Some(pos) = s[from..].find("Atomic") {
        let start = from + pos;
        // Walk left over whitespace and type-position sigils to find
        // the `:` of a declaration; `::Atomic` is a path, not a decl.
        let mut j = start;
        let mut colon = false;
        while j > 0 {
            j -= 1;
            let c = chars[j];
            if c.is_whitespace() || c == '[' || c == '&' || c == '<' || c == '(' {
                if colon {
                    break;
                }
                if c == '<' || c == '(' {
                    break; // generic/tuple position without a colon
                }
                continue;
            }
            if c == ':' && !colon {
                colon = true;
                continue;
            }
            break;
        }
        let path_sep = colon && j < chars.len() && chars[j] == ':';
        if colon && !path_sep {
            // Reject initializers: the type token is followed by `::`.
            let mut end = start;
            while end < chars.len() && (chars[end].is_alphanumeric() || chars[end] == '_') {
                end += 1;
            }
            if !(chars.get(end) == Some(&':') && chars.get(end + 1) == Some(&':')) {
                return true;
            }
        }
        from = start + "Atomic".len();
    }
    false
}

const ORDERING_KEYWORDS: [&str; 6] = [
    "relaxed", "acquire", "release", "acqrel", "seqcst", "ordering",
];

fn names_an_ordering(comment: &str) -> bool {
    let lower = comment.to_lowercase();
    ORDERING_KEYWORDS.iter().any(|k| lower.contains(k))
}

/// Is line `i`'s `unsafe` covered by a `SAFETY:` comment — same line,
/// or the comment block above with at most two statement lines between?
fn has_safety_comment(lines: &[LineView], i: usize) -> bool {
    preceded_by(lines, i, 2, |c| c.contains("SAFETY:"), |_| false)
}

/// Is line `i`'s atomic declaration covered by an ordering-rationale
/// comment? The walk up skips sibling atomic declarations, attributes,
/// and the struct header so one comment covers a run of fields.
fn has_ordering_comment(lines: &[LineView], i: usize) -> bool {
    preceded_by(lines, i, 0, names_an_ordering, |code| {
        let t = code.trim();
        is_atomic_decl(code)
            || t.starts_with("#[")
            || (t.ends_with('{')
                && (t.contains("struct ") || t.contains("enum ") || t.contains("union ")))
    })
}

/// Shared look-back: accept if `accept` matches the comment on line `i`
/// or any comment found walking upward, skipping blank lines, lines
/// matched by `skip_code`, and up to `budget` other statement lines.
fn preceded_by(
    lines: &[LineView],
    i: usize,
    mut budget: usize,
    accept: impl Fn(&str) -> bool,
    skip_code: impl Fn(&str) -> bool,
) -> bool {
    if accept(&lines[i].comment) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let line = &lines[j];
        if accept(&line.comment) {
            return true;
        }
        let code = line.code.trim();
        if !line.comment.trim().is_empty() && code.is_empty() {
            continue; // part of the comment block: keep reading upward
        }
        if code.is_empty() || skip_code(&line.code) {
            continue;
        }
        if budget == 0 {
            return false;
        }
        budget -= 1;
    }
    false
}

/// Width-parametric model APIs whose lane-count argument must come
/// from a `VectorIsa`, never a bare literal.
const WIDTH_PARAM_APIS: [&str; 3] = [
    "chain_bound_efficiency",
    "accumulator_registers",
    "satisfies_register_constraint",
];

/// Retired NEON-128 width constants; any surviving reference is a
/// hardcoded 128-bit assumption the width-agnostic API removed.
const RETIRED_WIDTH_CONSTS: [&str; 3] = ["F32_LANES", "TOTAL_VREGS", "SPARE_VREGS"];

/// Does this line call a width-parametric API with a bare integer as
/// its first argument (e.g. `shape.chain_bound_efficiency(4, lat)`)?
fn calls_width_api_with_literal(code: &str) -> bool {
    let bytes = code.as_bytes();
    for api in WIDTH_PARAM_APIS {
        let mut from = 0;
        while let Some(pos) = code[from..].find(api) {
            let start = from + pos;
            let end = start + api.len();
            from = end;
            if start > 0 && is_ident_byte(bytes[start - 1]) {
                continue; // part of a longer identifier
            }
            let Some(args) = code[end..].trim_start().strip_prefix('(') else {
                continue; // definition site or bare mention
            };
            let arg = args.trim_start();
            let digits = arg.chars().take_while(char::is_ascii_digit).count();
            if digits > 0 {
                let after = arg[digits..].trim_start();
                if after.starts_with(',') || after.starts_with(')') {
                    return true;
                }
            }
        }
    }
    false
}

fn path_allows_width_literals(rel: &str) -> bool {
    // The ISA descriptors are where vector widths are *defined*.
    rel.ends_with("crates/model/src/isa.rs")
}

/// A parsed `lint:allow` waiver.
struct Waiver {
    line: usize,
    rule: String,
    used: bool,
}

/// Extract waivers, flagging malformed ones (missing rationale).
/// Only plain `//` comments count: doc comments (`///`, `//!`) are
/// documentation *about* waivers, never waivers themselves.
fn collect_waivers(rel: &str, lines: &[LineView], report: &mut Report) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let comment = &line.comment;
        let lead = comment.trim_start();
        if lead.starts_with('/') || lead.starts_with('!') {
            continue; // doc comment: `///` or `//!`
        }
        let Some(pos) = comment.find("lint:allow(") else {
            continue;
        };
        let rest = &comment[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            report.push(
                Finding::warning("LINT-W105", rel, "malformed waiver: missing `)`")
                    .at(format!("line {}", idx + 1)),
            );
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        if !after.starts_with("--") || after.trim_start_matches('-').trim().is_empty() {
            report.push(
                Finding::warning(
                    "LINT-W105",
                    rel,
                    format!("waiver for `{rule}` lacks a `-- rationale`"),
                )
                .at(format!("line {}", idx + 1)),
            );
            continue;
        }
        waivers.push(Waiver {
            line: idx,
            rule,
            used: false,
        });
    }
    waivers
}

/// Is the finding for `rule` at line `i` waived (same line or above)?
fn waived(waivers: &mut [Waiver], rule: &str, i: usize) -> bool {
    for w in waivers.iter_mut() {
        if w.rule == rule && (w.line == i || w.line + 1 == i) {
            w.used = true;
            return true;
        }
    }
    false
}

fn path_allows_spawn(rel: &str) -> bool {
    // pool.rs: the workers themselves. serve/server.rs + serve/tcp.rs:
    // the serving layer's long-lived dispatcher / acceptor / connection
    // threads — one per server or connection, never one per GEMM.
    // sync/mc/shim.rs: the model checker's thread facade *is* the
    // spawn layer (it registers model threads with the controller).
    // analyze/mc.rs: the model-check drivers spawn *model* threads
    // through the facade — the checker schedules them, not the OS.
    rel.ends_with("crates/gemm/src/pool.rs")
        || rel.ends_with("crates/serve/src/server.rs")
        || rel.ends_with("crates/serve/src/tcp.rs")
        || rel.ends_with("crates/sync/src/mc/shim.rs")
        || rel.ends_with("crates/analyze/src/mc.rs")
}

fn path_allows_clock(rel: &str) -> bool {
    // serve/clock.rs is the serving layer's single clock access point:
    // deadlines and the coalescing window are functional wall-time
    // semantics, and funnelling them through one shim keeps the rest
    // of that crate under this rule.
    rel.ends_with("crates/core/src/telemetry.rs")
        || rel.ends_with("crates/serve/src/clock.rs")
        || rel.contains("crates/bench/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
}

fn path_allows_foreign_fn(rel: &str) -> bool {
    // serve/poll.rs wraps `poll(2)` for the TCP readers: the only
    // foreign function the workspace declares.
    rel.ends_with("crates/serve/src/poll.rs")
}

/// Does this line declare or define a foreign function (`extern "C"
/// {`, `extern fn`, ...)? String contents are already stripped, so
/// the ABI literal reads `""`.
fn declares_foreign_fn(code: &str) -> bool {
    has_word(code, "extern") && !code.contains("extern crate")
}

fn path_is_test(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// Lint one file's source. `rel` is the workspace-relative path with
/// `/` separators (used for the per-file allowlists).
pub fn lint_source(rel: &str, source: &str) -> Report {
    let mut report = Report::new();
    report.files_scanned = 1;
    if path_is_test(rel) {
        return report;
    }
    let lines = strip_source(source);
    let test_start = lines
        .iter()
        .position(|l| l.code.contains("#[cfg(test)]"))
        .unwrap_or(lines.len());
    let mut waivers = collect_waivers(rel, &lines[..test_start], &mut report);

    for (i, line) in lines[..test_start].iter().enumerate() {
        let code = &line.code;
        let loc = || format!("line {}", i + 1);

        if has_word(code, "unsafe")
            && !has_safety_comment(&lines, i)
            && !waived(&mut waivers, "safety-comment", i)
        {
            report.push(
                Finding::error(
                    "LINT-E101",
                    rel,
                    "`unsafe` without a `// SAFETY:` comment justifying it",
                )
                .at(loc()),
            );
        }

        if is_atomic_decl(code)
            && !has_ordering_comment(&lines, i)
            && !waived(&mut waivers, "atomic-ordering", i)
        {
            report.push(
                Finding::error(
                    "LINT-E102",
                    rel,
                    "atomic declared without a comment naming its memory-ordering discipline",
                )
                .at(loc()),
            );
        }

        if (code.contains("thread::spawn") || code.contains("thread::Builder"))
            && !path_allows_spawn(rel)
            && !waived(&mut waivers, "thread-spawn", i)
        {
            report.push(
                Finding::error(
                    "LINT-E103",
                    rel,
                    "thread creation (`thread::spawn`/`thread::Builder`) outside the worker \
                     pool and serving layer — route work through `TaskPool` (§III-D: \
                     spawn-per-call overhead)",
                )
                .at(loc()),
            );
        }

        if code.contains("Instant::now")
            && !path_allows_clock(rel)
            && !waived(&mut waivers, "instant-now", i)
        {
            report.push(
                Finding::error(
                    "LINT-E104",
                    rel,
                    "`Instant::now` outside telemetry/bench code — use \
                     `telemetry::now_if`/`Recorder::now` so untimed paths never read the clock",
                )
                .at(loc()),
            );
        }

        if declares_foreign_fn(code)
            && !path_allows_foreign_fn(rel)
            && !waived(&mut waivers, "foreign-fn", i)
        {
            report.push(
                Finding::error(
                    "LINT-E107",
                    rel,
                    "foreign function (`extern`) outside `crates/serve/src/poll.rs` — keep \
                     the FFI surface in the one audited `poll(2)` wrapper",
                )
                .at(loc()),
            );
        }

        if !path_allows_width_literals(rel)
            && (RETIRED_WIDTH_CONSTS.iter().any(|c| has_word(code, c))
                || calls_width_api_with_literal(code))
            && !waived(&mut waivers, "vector-width-literal", i)
        {
            report.push(
                Finding::error(
                    "LINT-E106",
                    rel,
                    "hardcoded vector width — take the lane count from a `VectorIsa` \
                     descriptor instead of a bare literal or retired NEON-128 constant",
                )
                .at(loc()),
            );
        }
    }

    for w in &waivers {
        if w.used {
            report.waivers_used += 1;
        } else if crate::ordering::RULES.contains(&w.rule.as_str()) {
            // Concurrency-pass waivers are owned by `ordering`; this
            // front cannot see whether they matched a finding there.
        } else {
            report.push(
                Finding::warning(
                    "LINT-W105",
                    rel,
                    format!("waiver for `{}` matched no finding — remove it", w.rule),
                )
                .at(format!("line {}", w.line + 1)),
            );
        }
    }
    report
}

/// Recursively collect the workspace's `.rs` files (skipping build
/// output and VCS metadata), as `(relative_path, absolute_path)`.
pub fn workspace_rs_files(root: &Path) -> Vec<(String, std::path::PathBuf)> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "results" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push((rel, path));
            }
        }
    }
    files.sort();
    files
}

/// Lint every `.rs` file under `root`.
pub fn lint_workspace(root: &Path) -> Report {
    let mut report = Report::new();
    for (rel, path) in workspace_rs_files(root) {
        match std::fs::read_to_string(&path) {
            Ok(source) => report.merge(lint_source(&rel, &source)),
            Err(e) => report.push(Finding::warning(
                "LINT-W105",
                rel,
                format!("unreadable source file: {e}"),
            )),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_strings() {
        let lines = strip_source(
            "let x = \"unsafe // not code\"; // but unsafe here is comment\nunsafe { x }",
        );
        assert!(!has_word(&lines[0].code, "unsafe"));
        assert!(lines[0].comment.contains("unsafe here"));
        assert!(has_word(&lines[1].code, "unsafe"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let lines = strip_source("/* outer /* inner */ still */ code()\n/* open\nunsafe\n*/ fin");
        assert!(lines[0].code.contains("code()"));
        assert!(!has_word(&lines[2].code, "unsafe"));
        assert!(lines[3].code.contains("fin"));
    }

    #[test]
    fn raw_strings_and_lifetimes_survive() {
        let lines = strip_source("let p = r#\"unsafe \" inside\"#; f::<'a>('x', '\\n')");
        assert!(!has_word(&lines[0].code, "unsafe"));
        assert!(lines[0].code.contains("f::<'a>"));
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = lint_source("crates/x/src/a.rs", "fn f() {\n    unsafe { g() }\n}");
        assert!(bad.has_code("LINT-E101"));
        let good = lint_source(
            "crates/x/src/a.rs",
            "fn f() {\n    // SAFETY: g is fine here.\n    unsafe { g() }\n}",
        );
        assert!(!good.has_code("LINT-E101"), "{good}");
    }

    #[test]
    fn atomic_decl_requires_ordering_comment() {
        let bad = lint_source("crates/x/src/a.rs", "struct S {\n    hits: AtomicU64,\n}");
        assert!(bad.has_code("LINT-E102"));
        let good = lint_source(
            "crates/x/src/a.rs",
            "struct S {\n    /// Counters; relaxed, monotonic.\n    hits: AtomicU64,\n    misses: AtomicU64,\n}",
        );
        assert!(!good.has_code("LINT-E102"), "{good}");
        // Initializers and imports are not declarations.
        let init = lint_source(
            "crates/x/src/a.rs",
            "use std::sync::atomic::AtomicU64;\nfn f() { let s = S { hits: AtomicU64::new(0) }; }",
        );
        assert!(!init.has_code("LINT-E102"), "{init}");
    }

    #[test]
    fn spawn_and_clock_are_fenced_to_their_files() {
        let spawn = "fn f() { std::thread::spawn(|| ()); }";
        assert!(lint_source("crates/core/src/exec.rs", spawn).has_code("LINT-E103"));
        assert!(!lint_source("crates/gemm/src/pool.rs", spawn).has_code("LINT-E103"));
        // The serving layer's long-lived service threads are allowed...
        assert!(!lint_source("crates/serve/src/server.rs", spawn).has_code("LINT-E103"));
        assert!(!lint_source("crates/serve/src/tcp.rs", spawn).has_code("LINT-E103"));
        // ...but the rest of that crate is not.
        assert!(lint_source("crates/serve/src/wire.rs", spawn).has_code("LINT-E103"));
        // `thread::Builder` is thread creation too — the literal-spawn
        // loophole is closed.
        let builder = "fn f() { std::thread::Builder::new().spawn(|| ()).unwrap(); }";
        assert!(lint_source("crates/core/src/exec.rs", builder).has_code("LINT-E103"));
        assert!(!lint_source("crates/serve/src/server.rs", builder).has_code("LINT-E103"));
        let clock = "fn f() { let t = Instant::now(); }";
        assert!(lint_source("crates/core/src/exec.rs", clock).has_code("LINT-E104"));
        assert!(!lint_source("crates/core/src/telemetry.rs", clock).has_code("LINT-E104"));
        assert!(!lint_source("crates/bench/src/timing.rs", clock).has_code("LINT-E104"));
        assert!(!lint_source("examples/demo.rs", clock).has_code("LINT-E104"));
        // The serve crate's clock shim is the crate's only allowed
        // clock site; a stray read elsewhere in serve still fails.
        assert!(!lint_source("crates/serve/src/clock.rs", clock).has_code("LINT-E104"));
        assert!(lint_source("crates/serve/src/server.rs", clock).has_code("LINT-E104"));
        // The tracing module is deliberately *not* on the allowlist:
        // its one clock site carries an audited `lint:allow` waiver, so
        // a second unwaivered read there is still caught.
        assert!(lint_source("crates/core/src/trace.rs", clock).has_code("LINT-E104"));
        assert!(!lint_source(
            "crates/core/src/trace.rs",
            "// lint:allow(instant-now) -- tracing's audited clock site\n\
             fn f() { let t = Instant::now(); }",
        )
        .has_code("LINT-E104"));
    }

    #[test]
    fn foreign_functions_are_fenced_to_the_poll_wrapper() {
        let block =
            "extern \"C\" {\n    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;\n}";
        assert!(lint_source("crates/serve/src/tcp.rs", block).has_code("LINT-E107"));
        assert!(lint_source("crates/core/src/exec.rs", block).has_code("LINT-E107"));
        assert!(!lint_source("crates/serve/src/poll.rs", block).has_code("LINT-E107"));
        // Any ABI, and exported definitions too.
        let export = "pub extern \"system\" fn cb() {}";
        assert!(lint_source("crates/x/src/a.rs", export).has_code("LINT-E107"));
        // `extern crate` links a crate; it declares no foreign function.
        assert!(!lint_source("crates/x/src/a.rs", "extern crate alloc;").has_code("LINT-E107"));
        // Mentions in strings and comments are not code.
        let prose = "// extern \"C\" lives in poll.rs\nlet s = \"extern \\\"C\\\"\";";
        assert!(!lint_source("crates/x/src/a.rs", prose).has_code("LINT-E107"));
        let waived = "// lint:allow(foreign-fn) -- vendored shim\nextern \"C\" { fn f(); }";
        assert!(!lint_source("crates/x/src/a.rs", waived).has_code("LINT-E107"));
    }

    #[test]
    fn width_literals_are_fenced_to_isa_definitions() {
        // A bare lane count fed to a width-parametric API is flagged...
        let bad = "let e = shape.chain_bound_efficiency(4, lat);";
        assert!(lint_source("crates/x/src/a.rs", bad).has_code("LINT-E106"));
        let bad2 = "if k.satisfies_register_constraint(4, 32, 2) {}";
        assert!(lint_source("crates/x/src/a.rs", bad2).has_code("LINT-E106"));
        // ...taking it from the ISA is not.
        let good = "let e = shape.chain_bound_efficiency(isa.lanes_f32(), lat);";
        assert!(!lint_source("crates/x/src/a.rs", good).has_code("LINT-E106"));
        // Definition sites do not trip the rule.
        let def = "pub fn chain_bound_efficiency(&self, lanes: usize) -> f64 {";
        assert!(!lint_source("crates/x/src/a.rs", def).has_code("LINT-E106"));
        // Retired constants are flagged everywhere but the ISA file.
        let retired = "let n = mr.div_ceil(F32_LANES);";
        assert!(lint_source("crates/x/src/a.rs", retired).has_code("LINT-E106"));
        assert!(!lint_source("crates/model/src/isa.rs", retired).has_code("LINT-E106"));
        // Waivable like every other rule.
        let waived = "// lint:allow(vector-width-literal) -- NEON-only fallback table\n\
                      let e = shape.chain_bound_efficiency(4, lat);";
        assert!(!lint_source("crates/x/src/a.rs", waived).has_code("LINT-E106"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { unsafe { h() } }\n}";
        assert!(!lint_source("crates/x/src/a.rs", src).has_code("LINT-E101"));
        assert!(!lint_source("tests/integration.rs", "unsafe { h() }").has_code("LINT-E101"));
    }

    #[test]
    fn waivers_suppress_and_unused_waivers_warn() {
        let waived = lint_source(
            "crates/x/src/a.rs",
            "// lint:allow(instant-now) -- park-time accounting, not hot path\nlet t = Instant::now();",
        );
        assert!(!waived.has_code("LINT-E104"), "{waived}");
        assert_eq!(waived.waivers_used, 1);

        let unused = lint_source(
            "crates/x/src/a.rs",
            "// lint:allow(instant-now) -- nothing here\nlet t = 3;",
        );
        assert!(unused.has_code("LINT-W105"));

        let malformed = lint_source(
            "crates/x/src/a.rs",
            "// lint:allow(instant-now)\nlet t = Instant::now();",
        );
        assert!(malformed.has_code("LINT-W105"));
        assert!(malformed.has_code("LINT-E104"));
    }

    #[test]
    fn doc_comments_cannot_waive() {
        // A doc comment describing the waiver syntax is not a waiver
        // (and must not warn as an unused one).
        let r = lint_source(
            "crates/x/src/a.rs",
            "//! Waive with `// lint:allow(instant-now) -- why`.\nfn f() {}",
        );
        assert!(!r.has_code("LINT-W105"), "{r}");
        let doc = lint_source(
            "crates/x/src/a.rs",
            "/// lint:allow(instant-now) -- not a real waiver\nlet t = Instant::now();",
        );
        assert!(doc.has_code("LINT-E104"), "{doc}");
    }

    #[test]
    fn one_comment_covers_a_field_run() {
        let src = "#[repr(align(128))]\nstruct Shard {\n    /// Per-shard relaxed counters.\n    a: AtomicU64,\n    b: AtomicU64,\n    c: [AtomicU64; 4],\n}";
        let r = lint_source("crates/x/src/a.rs", src);
        assert!(!r.has_code("LINT-E102"), "{r}");
    }

    #[test]
    fn static_atomic_needs_its_own_comment() {
        let src = "fn f() {}\nstatic NEXT: AtomicUsize = AtomicUsize::new(0);";
        assert!(lint_source("crates/x/src/a.rs", src).has_code("LINT-E102"));
        let ok = "/// Slot allocator; relaxed monotonic counter.\nstatic NEXT: AtomicUsize = AtomicUsize::new(0);";
        assert!(!lint_source("crates/x/src/a.rs", ok).has_code("LINT-E102"));
    }
}
