//! The determinism-contract rules.
//!
//! Every rule is a token-level pass over a [`FileSource`]; see
//! `STATIC_ANALYSIS.md` at the repo root for the contract each rule
//! enforces, its known approximations, and the waiver syntax.

use crate::dataflow::{self, Bindings};
use crate::index::{Receiver, WorkspaceIndex};
use crate::lexer::{is_ident_char, FileSource};

/// Rule identifiers. The kebab-case name doubles as the waiver tag:
/// `// lint: <name>-ok(reason)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Iteration over `std::collections::HashMap`/`HashSet` (RandomState
    /// order) in a compute/state crate.
    NondeterministicIter,
    /// `std::time::{SystemTime, Instant}` in a compute/state crate.
    AmbientTime,
    /// `std::collections::hash_map::RandomState` anywhere.
    RandomState,
    /// Direct `rand`-crate usage bypassing the vendored seeded RNG.
    RandCrate,
    /// `std::env` read outside the documented `STEMBED_*` allowlist.
    EnvRead,
    /// `unsafe` block/fn/impl without a `SAFETY:` comment.
    UndocumentedUnsafe,
    /// `#[target_feature]` fn without a scalar reference sibling.
    MissingScalarSibling,
    /// f32/f64 `sum()`/`fold` reduction outside the fixed-lane kernels.
    UnfusedFloatReduction,
    /// Hand arithmetic (`+`/`^`/shifts/`wrapping_*`) on a seed-derived
    /// value outside the sanctioned derivation layer (the PR 3 stream
    /// overlap bug class).
    SeedArithmetic,
    /// An `&mut self` method on `Database` that writes fact storage
    /// without journalling through `record_mutation` (the PR 4/7
    /// journal/epoch contract).
    UnjournalledMutation,
    /// A float `+=`/`-=`/`*=` accumulator inside a loop over a
    /// hash-ordered source — reassociation the fixed-lane kernels exist
    /// to prevent.
    ManualFloatAccumulation,
    /// `unwrap`/`expect`/`panic!`/literal indexing in compute-crate
    /// production code without a documented panic contract.
    PanicPath,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondeterministicIter => "nondeterministic-iter",
            Rule::AmbientTime => "ambient-time",
            Rule::RandomState => "random-state",
            Rule::RandCrate => "rand-crate",
            Rule::EnvRead => "env-read",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::MissingScalarSibling => "missing-scalar-sibling",
            Rule::UnfusedFloatReduction => "unfused-float-reduction",
            Rule::SeedArithmetic => "seed-arithmetic",
            Rule::UnjournalledMutation => "unjournalled-mutation",
            Rule::ManualFloatAccumulation => "manual-float-accumulation",
            Rule::PanicPath => "panic-path",
        }
    }

    pub fn all() -> [Rule; 12] {
        [
            Rule::NondeterministicIter,
            Rule::AmbientTime,
            Rule::RandomState,
            Rule::RandCrate,
            Rule::EnvRead,
            Rule::UndocumentedUnsafe,
            Rule::MissingScalarSibling,
            Rule::UnfusedFloatReduction,
            Rule::SeedArithmetic,
            Rule::UnjournalledMutation,
            Rule::ManualFloatAccumulation,
            Rule::PanicPath,
        ]
    }

    pub fn help(self) -> &'static str {
        match self {
            Rule::NondeterministicIter => {
                "iterate a BTreeMap/BTreeSet or a sorted Vec instead; if the order provably \
                 cannot reach any output, waive with `// lint: nondeterministic-iter-ok(reason)`"
            }
            Rule::AmbientTime => {
                "wall-clock reads belong in bench/profiling crates; timing diagnostics that \
                 never feed an output may be waived with `// lint: ambient-time-ok(reason)`"
            }
            Rule::RandomState => {
                "RandomState is seeded from the OS; use a BTree container or \
                 the vendored DetRng-derived structures"
            }
            Rule::RandCrate => {
                "use the vendored seeded RNG (stembed_runtime::rng::DetRng); \
                 direct rand-crate draws are not seed-reproducible"
            }
            Rule::EnvRead => {
                "only `STEMBED_*` environment variables are part of the documented contract; \
                 waive with `// lint: env-read-ok(reason)` for non-output-affecting reads"
            }
            Rule::UndocumentedUnsafe => {
                "add a `// SAFETY:` comment directly above, stating the exact invariant \
                 (CPU-feature gate, length precondition, Send/Sync justification)"
            }
            Rule::MissingScalarSibling => {
                "every #[target_feature] fn needs a portable reference: a `<base>_scalar` \
                 sibling (or `<base>_with`/`<base>_wide` generic body) in the same file"
            }
            Rule::UnfusedFloatReduction => {
                "route float reductions through stembed_runtime::kernel / linalg (fixed-lane \
                 order); deterministic serial reductions may be waived with \
                 `// lint: unfused-float-reduction-ok(reason)`"
            }
            Rule::SeedArithmetic => {
                "derive sub-streams with stembed_runtime::derive_seed(seed, STREAM) — hand \
                 mixing (`seed ^ SALT`, `seed.wrapping_add(i)`) risks overlapping RNG \
                 streams; name each stream with a constant instead"
            }
            Rule::UnjournalledMutation => {
                "every fact-storage write must reach the journal: call `record_mutation` \
                 (or delegate to insert/restore/delete) so the epoch, cache invalidation, \
                 and the write-ahead log that drains the journal observe the mutation"
            }
            Rule::ManualFloatAccumulation => {
                "accumulating floats over a hash-ordered source reassociates per run; \
                 iterate a sorted container, or route the reduction through the \
                 fixed-lane kernel layer"
            }
            Rule::PanicPath => {
                "document the contract: a `# Panics` doc section on the enclosing fn or a \
                 `// PANICS:` comment at the site (poisoned-WAL discipline makes stray \
                 panics unrecoverable, not unsound); literal indexing is accepted when \
                 the receiver is a fixed-size array provably long enough"
            }
        }
    }
}

/// A rule violation (pre-waiver).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based.
    pub line: usize,
    /// 1-based, inclusive; `== line` for single-line findings. Rules that
    /// flag a whole item (e.g. an unjournalled method) span its body.
    pub end_line: usize,
    /// 1-based column (chars).
    pub col: usize,
    pub message: String,
    /// The raw source line, for the diagnostic rendering.
    pub snippet: String,
}

/// A violation silenced by a `// lint: <rule>-ok(reason)` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    pub rule: Rule,
    pub file: String,
    pub line: usize,
    pub reason: String,
}

/// Which rule families apply to a file, derived from its path.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// Inside one of the compute/state crates' `src/` trees.
    pub compute: bool,
    /// Exempt from the float-reduction rule (the fixed-lane kernel homes).
    pub float_exempt: bool,
}

/// Crates whose `src/` trees carry the determinism contract.
pub const COMPUTE_CRATES: [&str; 8] = [
    "crates/core",
    "crates/node2vec",
    "crates/reldb",
    "crates/dbgraph",
    "crates/linalg",
    "crates/ml",
    "crates/wal",
    "crates/runtime",
];

impl Scope {
    /// Classify a workspace-relative path (forward slashes).
    pub fn of(rel_path: &str) -> Scope {
        let compute = COMPUTE_CRATES
            .iter()
            .any(|c| rel_path.starts_with(&format!("{c}/src/")));
        let float_exempt =
            rel_path.starts_with("crates/linalg/") || rel_path == "crates/runtime/src/kernel.rs";
        Scope {
            compute,
            float_exempt,
        }
    }
}

/// Files exempt from the seed-arithmetic rule: the sanctioned derivation
/// layer itself (SplitMix64 finalizer rounds *are* seed arithmetic).
const SEED_EXEMPT_FILES: [&str; 2] = ["crates/runtime/src/seed.rs", "crates/runtime/src/rng.rs"];

/// Run every applicable rule over one file. Returns surviving findings and
/// the waivers that silenced the rest. `index` carries the cross-file
/// symbol information (possibly built from this file alone — see
/// [`crate::lint_source`]).
pub fn check_file(
    rel_path: &str,
    src: &FileSource,
    index: &WorkspaceIndex,
) -> (Vec<Finding>, Vec<Waiver>) {
    let scope = Scope::of(rel_path);
    let exempt = exempt_regions(src);
    let bindings = dataflow::analyze(src, index);
    let mut raw_findings: Vec<Finding> = Vec::new();

    if scope.compute {
        nondeterministic_iter(rel_path, src, &exempt, &bindings, index, &mut raw_findings);
        ambient_time(rel_path, src, &exempt, &mut raw_findings);
        env_read(rel_path, src, &exempt, &mut raw_findings);
        if !scope.float_exempt {
            float_reduction(rel_path, src, &exempt, &mut raw_findings);
            manual_float_accumulation(rel_path, src, &exempt, &bindings, index, &mut raw_findings);
        }
        if !SEED_EXEMPT_FILES.contains(&rel_path) {
            seed_arithmetic(rel_path, src, &exempt, &bindings, &mut raw_findings);
        }
        unjournalled_mutation(rel_path, src, &exempt, index, &mut raw_findings);
        panic_path(rel_path, src, &exempt, &bindings, index, &mut raw_findings);
    }
    // Contract-global rules: any crate, tests included. The analyzer's
    // own sources are exempt from the pure token-pattern rules — they
    // necessarily spell out the forbidden tokens (rule names, match
    // patterns, fixtures in doc comments).
    if !rel_path.starts_with("crates/xtask/") {
        random_state(rel_path, src, &mut raw_findings);
        rand_crate(rel_path, src, &mut raw_findings);
    }
    undocumented_unsafe(rel_path, src, &mut raw_findings);
    missing_scalar_sibling(rel_path, src, index, &mut raw_findings);

    raw_findings.sort_by_key(|a| (a.line, a.col));
    raw_findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line && a.col == b.col);

    // Resolve waivers.
    let mut findings = Vec::new();
    let mut waivers = Vec::new();
    for f in raw_findings {
        match waiver_for(src, f.rule, f.line) {
            Some(reason) => waivers.push(Waiver {
                rule: f.rule,
                file: f.file,
                line: f.line,
                reason,
            }),
            None => findings.push(f),
        }
    }
    (findings, waivers)
}

// ---------------------------------------------------------------------
// Waivers and comment scanning
// ---------------------------------------------------------------------

/// Search the flagged line's own comment, then the contiguous run of
/// comment-only / attribute / blank lines directly above it, for
/// `lint: <rule>-ok(reason)`.
fn waiver_for(src: &FileSource, rule: Rule, line: usize) -> Option<String> {
    let tag = format!("{}-ok", rule.name());
    if let Some(r) = parse_waiver(src.comment_on(line), &tag) {
        return Some(r);
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        let comment = src.comment_on(l);
        if let Some(r) = parse_waiver(comment, &tag) {
            return Some(r);
        }
        let continues = src.code_blank(l) || src.attr_line(l);
        if !continues {
            break;
        }
    }
    None
}

fn parse_waiver(comment: &str, tag: &str) -> Option<String> {
    let idx = comment.find("lint:")?;
    let rest = comment[idx + 5..].trim_start();
    let rest = rest.strip_prefix(tag)?;
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    let reason = rest[..close].trim();
    if reason.is_empty() {
        None // a waiver must state a reason
    } else {
        Some(reason.to_string())
    }
}

/// Does the contiguous comment block on/above `line` (skipping attribute
/// lines) contain a `SAFETY:` justification?
fn has_safety_comment(src: &FileSource, line: usize) -> bool {
    let is_safety =
        |c: &str| c.contains("SAFETY:") || c.contains("Safety:") || c.contains("safety:");
    if is_safety(src.comment_on(line)) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if is_safety(src.comment_on(l)) {
            return true;
        }
        if !(src.code_blank(l) || src.attr_line(l)) {
            return false;
        }
    }
    false
}

// ---------------------------------------------------------------------
// Exempt-region detection: `#[cfg(test)]` and `#[cfg(feature = …)]`
// ---------------------------------------------------------------------

/// 1-based line spans exempt from the *scoped* compute rules: test code
/// (`#[cfg(test)]`) and feature-gated code (`#[cfg(feature = "…")]`) —
/// the determinism contract binds the default build, and no compute crate
/// enables features by default. `#[cfg(not(feature = …))]` (the default
/// build's half) is deliberately NOT exempt.
fn exempt_regions(src: &FileSource) -> Vec<(usize, usize)> {
    let mut regions = attr_regions(src, "#[cfg(test)]");
    regions.extend(attr_regions(src, "#[cfg(feature"));
    regions
}

/// Line spans of items gated by an attribute starting with `pat`: from the
/// attribute to the matching `}` of the item's body, or through the `;`
/// for braceless items (`use`, type aliases).
fn attr_regions(src: &FileSource, pat: &str) -> Vec<(usize, usize)> {
    let code = &src.code;
    let mut regions = Vec::new();
    let mut search = 0usize;
    let chars: Vec<char> = code.chars().collect();
    while let Some(pos) = code[byte_of(code, search)..].find(pat) {
        let start = search + code[byte_of(code, search)..][..pos].chars().count();
        // First `{` after the attribute opens the item's body; a `;` first
        // means a braceless item — the region is just those lines.
        let mut i = start + pat.chars().count();
        while i < chars.len() && chars[i] != '{' && chars[i] != ';' {
            i += 1;
        }
        if i >= chars.len() {
            break;
        }
        let (l0, _) = src.line_col(start);
        if chars[i] == ';' {
            let (l1, _) = src.line_col(i);
            regions.push((l0, l1));
            search = i + 1;
            continue;
        }
        let mut depth = 0usize;
        while i < chars.len() {
            match chars[i] {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        let (l1, _) = src.line_col(i.min(chars.len().saturating_sub(1)));
        regions.push((l0, l1));
        search = i + 1;
        if search >= chars.len() {
            break;
        }
    }
    regions
}

fn in_exempt(exempt: &[(usize, usize)], line: usize) -> bool {
    exempt.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Byte offset of a char offset (the scanner works in chars, `str::find`
/// in bytes).
fn byte_of(s: &str, char_off: usize) -> usize {
    s.char_indices().nth(char_off).map_or(s.len(), |(b, _)| b)
}

// ---------------------------------------------------------------------
// Small token helpers
// ---------------------------------------------------------------------

/// Offsets (in chars) of word-boundary occurrences of `word` in `code`.
fn word_occurrences(code: &str, word: &str) -> Vec<usize> {
    let chars: Vec<char> = code.chars().collect();
    let wchars: Vec<char> = word.chars().collect();
    let mut out = Vec::new();
    if wchars.is_empty() || chars.len() < wchars.len() {
        return out;
    }
    for i in 0..=chars.len() - wchars.len() {
        if chars[i..i + wchars.len()] == wchars[..] {
            let before_ok = i == 0 || !is_ident_char(chars[i - 1]);
            let after = chars.get(i + wchars.len());
            let after_ok = after.is_none_or(|&c| !is_ident_char(c));
            if before_ok && after_ok {
                out.push(i);
            }
        }
    }
    out
}

/// Occurrences of a literal substring (no boundary check), in char offsets.
fn substr_occurrences(code: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(b) = code[from..].find(pat) {
        let char_off = code[..from + b].chars().count();
        out.push(char_off);
        from += b + pat.len();
    }
    out
}

/// Walk backwards from char offset `end` (exclusive) over one receiver
/// component: skips a balanced `[…]`/`(…)` suffix chain, then reads the
/// identifier. Returns the identifier, or None.
fn receiver_ident(chars: &[char], mut end: usize) -> Option<String> {
    // Skip whitespace.
    while end > 0 && chars[end - 1].is_whitespace() {
        end -= 1;
    }
    // Skip balanced bracket groups (possibly several: `a[i][j]`).
    loop {
        if end == 0 {
            return None;
        }
        let c = chars[end - 1];
        if c == ']' || c == ')' {
            let open = if c == ']' { '[' } else { '(' };
            let close = c;
            let mut depth = 0usize;
            while end > 0 {
                let ch = chars[end - 1];
                if ch == close {
                    depth += 1;
                } else if ch == open {
                    depth -= 1;
                    if depth == 0 {
                        end -= 1;
                        break;
                    }
                }
                end -= 1;
            }
            // A call suffix `f(…)` means the receiver is a call result —
            // read the fn name as the component.
        } else {
            break;
        }
    }
    let stop = end;
    let mut start = end;
    while start > 0 && is_ident_char(chars[start - 1]) {
        start -= 1;
    }
    if start == stop {
        return None;
    }
    Some(chars[start..stop].iter().collect())
}

// ---------------------------------------------------------------------
// Rule: nondeterministic-iter
// ---------------------------------------------------------------------

const ITER_METHODS: [&str; 10] = [
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".retain(",
];

fn nondeterministic_iter(
    rel_path: &str,
    src: &FileSource,
    exempt: &[(usize, usize)],
    bindings: &Bindings,
    index: &WorkspaceIndex,
    out: &mut Vec<Finding>,
) {
    let code = &src.code;
    let chars: Vec<char> = code.chars().collect();

    // 1. Iteration method calls on hash-tagged receivers — the tags come
    // from the dataflow pass (annotations, aliases, `let` chains, and
    // helper-call returns resolved through the workspace index).
    for m in ITER_METHODS {
        for off in substr_occurrences(code, m) {
            if let Some(recv) = receiver_ident(&chars, off) {
                if bindings.is_hash(&recv) {
                    let (line, col) = src.line_col(off + 1);
                    if in_exempt(exempt, line) {
                        continue;
                    }
                    out.push(Finding {
                        rule: Rule::NondeterministicIter,
                        file: rel_path.to_string(),
                        line,
                        end_line: line,
                        col,
                        message: format!(
                            "iteration over hash-ordered container `{recv}` via `{}`",
                            m.trim_end_matches('(')
                        ),
                        snippet: src.raw_line(line).to_string(),
                    });
                }
            }
        }
    }

    // 2. `for … in [&[mut]] <tracked or helper()> {`.
    for off in word_occurrences(code, "for") {
        // Find ` in ` after the pattern, then the expression up to `{`.
        let tail: String = chars[off..].iter().take(400).collect();
        let Some(in_pos) = tail.find(" in ") else {
            continue;
        };
        let Some(brace) = tail[in_pos..].find('{') else {
            continue;
        };
        let expr = tail[in_pos + 4..in_pos + brace].trim();
        let expr = expr
            .strip_prefix("&mut ")
            .or_else(|| expr.strip_prefix('&'))
            .unwrap_or(expr)
            .trim();
        let flagged = if expr.chars().all(|c| is_ident_char(c) || c == '.') {
            // Plain ident chain: the last component decides.
            let last = expr.rsplit('.').next().unwrap_or(expr);
            (!expr.is_empty() && bindings.is_hash(last)).then(|| last.to_string())
        } else if let Some(paren) = expr.find('(') {
            // A call: flag when the callee is an indexed helper returning
            // a hash container (`for g in groups_by_key() {`). Iteration
            // *methods* on tracked receivers were handled by the scan
            // above.
            let callee: String = expr[..paren]
                .chars()
                .rev()
                .take_while(|&c| is_ident_char(c))
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            (!callee.is_empty() && !expr[..paren].contains('.') && index.returns_hash(&callee))
                .then(|| format!("{callee}()"))
        } else {
            None
        };
        if let Some(what) = flagged {
            let (line, col) = src.line_col(off);
            if in_exempt(exempt, line) {
                continue;
            }
            out.push(Finding {
                rule: Rule::NondeterministicIter,
                file: rel_path.to_string(),
                line,
                end_line: line,
                col,
                message: format!("`for` loop over hash-ordered container `{what}`"),
                snippet: src.raw_line(line).to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: ambient-time
// ---------------------------------------------------------------------

fn ambient_time(
    rel_path: &str,
    src: &FileSource,
    exempt: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    for word in ["Instant", "SystemTime"] {
        for off in word_occurrences(&src.code, word) {
            let (line, col) = src.line_col(off);
            if in_exempt(exempt, line) {
                continue;
            }
            out.push(Finding {
                rule: Rule::AmbientTime,
                file: rel_path.to_string(),
                line,
                end_line: line,
                col,
                message: format!("ambient wall-clock read: `{word}` in a compute/state crate"),
                snippet: src.raw_line(line).to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rules: random-state, rand-crate
// ---------------------------------------------------------------------

fn random_state(rel_path: &str, src: &FileSource, out: &mut Vec<Finding>) {
    for off in word_occurrences(&src.code, "RandomState") {
        let (line, col) = src.line_col(off);
        out.push(Finding {
            rule: Rule::RandomState,
            file: rel_path.to_string(),
            line,
            end_line: line,
            col,
            message: "std RandomState is seeded from the OS at process start".into(),
            snippet: src.raw_line(line).to_string(),
        });
    }
}

fn rand_crate(rel_path: &str, src: &FileSource, out: &mut Vec<Finding>) {
    for off in word_occurrences(&src.code, "rand") {
        // Flag `rand::…` paths and `use rand` / `extern crate rand`.
        let chars: Vec<char> = src.code.chars().collect();
        let after: String = chars[off + 4..].iter().take(2).collect();
        let is_path = after.starts_with("::");
        let line_start = src.code[..byte_of(&src.code, off)]
            .rfind('\n')
            .map_or(0, |b| b + 1);
        let line_text = &src.code[line_start..byte_of(&src.code, off)];
        let is_use = line_text.trim_start().starts_with("use")
            || line_text.trim_start().starts_with("extern crate");
        if is_path || (is_use && (after.starts_with(';') || after.starts_with("::"))) {
            let (line, col) = src.line_col(off);
            out.push(Finding {
                rule: Rule::RandCrate,
                file: rel_path.to_string(),
                line,
                end_line: line,
                col,
                message: "direct rand-crate usage bypasses the vendored seeded RNG".into(),
                snippet: src.raw_line(line).to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: env-read
// ---------------------------------------------------------------------

fn env_read(rel_path: &str, src: &FileSource, exempt: &[(usize, usize)], out: &mut Vec<Finding>) {
    // Consts in this file naming allowlisted variables:
    // `const NAME: &str = "STEMBED_…";`
    let mut allow_consts: Vec<String> = Vec::new();
    {
        let raw = &src.raw;
        let mut from = 0usize;
        while let Some(b) = raw[from..].find("const ") {
            let rest = &raw[from + b + 6..];
            let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            if let Some(q) = rest.find('"') {
                let lit: String = rest[q + 1..].chars().take_while(|&c| c != '"').collect();
                if lit.starts_with("STEMBED_") && !name.is_empty() {
                    allow_consts.push(name);
                }
            }
            from += b + 6;
        }
    }

    for pat in ["env::var_os", "env::var", "env::vars", "env::args"] {
        for off in substr_occurrences(&src.code, pat) {
            // Skip when a longer pattern already matched at this offset
            // (`env::var` inside `env::var_os`).
            let after_pat: Option<char> = src.code.chars().nth(off + pat.chars().count());
            if after_pat.is_some_and(is_ident_char) {
                continue;
            }
            let (line, col) = src.line_col(off);
            if in_exempt(exempt, line) {
                continue;
            }
            // Read the first argument from the raw text.
            let arg_start = off + pat.chars().count();
            let raw_chars: Vec<char> = src.raw.chars().collect();
            let mut j = arg_start;
            while j < raw_chars.len() && raw_chars[j] != '(' {
                j += 1;
            }
            j += 1;
            while j < raw_chars.len() && raw_chars[j].is_whitespace() {
                j += 1;
            }
            let allowed = if raw_chars.get(j) == Some(&'"') {
                let lit: String = raw_chars[j + 1..]
                    .iter()
                    .take_while(|&&c| c != '"')
                    .collect();
                lit.starts_with("STEMBED_")
            } else {
                let ident: String = raw_chars[j..]
                    .iter()
                    .take_while(|&&c| is_ident_char(c))
                    .collect();
                allow_consts.contains(&ident)
            };
            if !allowed {
                out.push(Finding {
                    rule: Rule::EnvRead,
                    file: rel_path.to_string(),
                    line,
                    end_line: line,
                    col,
                    message: format!("`{pat}` read outside the STEMBED_* allowlist"),
                    snippet: src.raw_line(line).to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: undocumented-unsafe
// ---------------------------------------------------------------------

fn undocumented_unsafe(rel_path: &str, src: &FileSource, out: &mut Vec<Finding>) {
    for off in word_occurrences(&src.code, "unsafe") {
        let (line, col) = src.line_col(off);
        if !has_safety_comment(src, line) {
            out.push(Finding {
                rule: Rule::UndocumentedUnsafe,
                file: rel_path.to_string(),
                line,
                end_line: line,
                col,
                message: "`unsafe` without a `SAFETY:` comment stating the invariant".into(),
                snippet: src.raw_line(line).to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: missing-scalar-sibling
// ---------------------------------------------------------------------

const FEATURE_SUFFIXES: [&str; 6] = ["_avx2", "_avx512", "_fma", "_sse41", "_sse2", "_neon"];

fn missing_scalar_sibling(
    rel_path: &str,
    src: &FileSource,
    index: &WorkspaceIndex,
    out: &mut Vec<Finding>,
) {
    let code = &src.code;
    let chars: Vec<char> = code.chars().collect();
    for off in substr_occurrences(code, "#[target_feature") {
        // The decorated fn's name: first `fn NAME` after the attribute.
        let tail: String = chars[off..].iter().take(600).collect();
        let Some(fn_rel) = tail.find("fn ") else {
            continue;
        };
        let name: String = tail[fn_rel + 3..]
            .trim_start()
            .chars()
            .take_while(|&c| is_ident_char(c))
            .collect();
        if name.is_empty() {
            continue;
        }
        let base = FEATURE_SUFFIXES
            .iter()
            .find_map(|s| name.strip_suffix(s))
            .unwrap_or(&name);
        let candidates = [
            format!("{name}_scalar"),
            format!("{base}_scalar"),
            format!("{base}_with"),
            format!("{base}_wide"),
        ];
        // A sibling in the same file (textual) or anywhere in the indexed
        // workspace (a scalar twin in a sibling module) both count.
        let has_sibling = candidates.iter().any(|c| {
            index.has_fn(c)
                || word_occurrences(code, c)
                    .iter()
                    .any(|&o| preceded_by_fn(&chars, o))
        });
        if !has_sibling {
            let (line, col) = src.line_col(off);
            out.push(Finding {
                rule: Rule::MissingScalarSibling,
                file: rel_path.to_string(),
                line,
                end_line: line,
                col,
                message: format!(
                    "#[target_feature] fn `{name}` has no scalar reference sibling \
                     (looked for `{base}_scalar`/`{base}_with`/`{base}_wide`)"
                ),
                snippet: src.raw_line(line).to_string(),
            });
        }
    }
}

/// Is the identifier at char offset `off` preceded by the keyword `fn`?
fn preceded_by_fn(chars: &[char], off: usize) -> bool {
    let mut e = off;
    while e > 0 && chars[e - 1].is_whitespace() {
        e -= 1;
    }
    e >= 2 && chars[e - 2] == 'f' && chars[e - 1] == 'n' && (e == 2 || !is_ident_char(chars[e - 3]))
}

// ---------------------------------------------------------------------
// Rule: unfused-float-reduction
// ---------------------------------------------------------------------

const FLOAT_REDUCTIONS: [&str; 8] = [
    ".sum::<f32>",
    ".sum::<f64>",
    ".product::<f32>",
    ".product::<f64>",
    ".fold(0.0",
    ".fold(-0.0",
    ".fold(0f32",
    ".fold(0f64",
];

// ---------------------------------------------------------------------
// Rule: seed-arithmetic
// ---------------------------------------------------------------------

/// Operators and integer-mixing methods that, applied to a seed-provenance
/// value, hand-derive an RNG stream (the PR 3 overlap bug class). `-`, `*`
/// and single `<`/`>`/`|` are deliberately excluded: deref/ref sigils,
/// comparisons, and closure pipes would swamp the rule with noise.
fn seed_arithmetic(
    rel_path: &str,
    src: &FileSource,
    exempt: &[(usize, usize)],
    bindings: &Bindings,
    out: &mut Vec<Finding>,
) {
    let code = &src.code;
    let chars: Vec<char> = code.chars().collect();
    let seedy = |w: &str| dataflow::is_seedy_name(w) || bindings.is_seed(w);

    let fire = |off: usize, msg: String, out: &mut Vec<Finding>| {
        let (line, col) = src.line_col(off);
        if in_exempt(exempt, line) {
            return;
        }
        out.push(Finding {
            rule: Rule::SeedArithmetic,
            file: rel_path.to_string(),
            line,
            end_line: line,
            col,
            message: msg,
            snippet: src.raw_line(line).to_string(),
        });
    };

    // 1. Operator contexts around each seed-provenance identifier.
    let mut i = 0usize;
    while i < chars.len() {
        if !is_ident_char(chars[i]) {
            i += 1;
            continue;
        }
        let s = i;
        while i < chars.len() && is_ident_char(chars[i]) {
            i += 1;
        }
        if chars[s].is_ascii_digit() {
            continue; // a numeric literal, not an identifier
        }
        let word: String = chars[s..i].iter().collect();
        if !seedy(&word) {
            continue;
        }
        // Operator directly before (skipping whitespace).
        let mut b = s;
        while b > 0 && chars[b - 1].is_whitespace() {
            b -= 1;
        }
        let before = b > 0
            && match chars[b - 1] {
                '+' | '^' => true,
                '<' => b >= 2 && chars[b - 2] == '<',
                '>' => b >= 2 && chars[b - 2] == '>',
                // `+= seed` / `^= seed` (not `==`, `<=`, `>=`).
                '=' => b >= 2 && matches!(chars[b - 2], '+' | '^'),
                _ => false,
            };
        // Operator or mixing-method call directly after.
        let mut j = i;
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        let mut method: Option<String> = None;
        let after = j < chars.len()
            && match chars[j] {
                '+' | '^' => true,
                '<' => chars.get(j + 1) == Some(&'<'),
                '>' => chars.get(j + 1) == Some(&'>'),
                '.' => {
                    let m: String = chars[j + 1..]
                        .iter()
                        .take_while(|&&c| is_ident_char(c))
                        .collect();
                    let mixing = ["wrapping_", "checked_", "overflowing_", "rotate_"]
                        .iter()
                        .any(|p| m.starts_with(p));
                    if mixing {
                        method = Some(m);
                    }
                    mixing
                }
                _ => false,
            };
        if before || after {
            let msg = match method {
                Some(m) => format!("`.{m}` on seed-provenance value `{word}`"),
                None => format!("hand arithmetic on seed-provenance value `{word}`"),
            };
            fire(s, msg, out);
        }
    }

    // 2. Seed-provenance values passed as *arguments* to integer-mixing
    // methods (`epoch.wrapping_add(seed)` launders the seed through the
    // receiver).
    for meth in ["wrapping_", "checked_", "overflowing_", "rotate_"] {
        let pat = format!(".{meth}");
        for off in substr_occurrences(code, &pat) {
            let mut j = off + pat.chars().count();
            while j < chars.len() && is_ident_char(chars[j]) {
                j += 1;
            }
            if chars.get(j) != Some(&'(') {
                continue;
            }
            let close = paren_close(&chars, j);
            let args: String = chars[j + 1..close.min(chars.len())].iter().collect();
            let has_seed_arg = args
                .split(|c: char| !is_ident_char(c))
                .any(|w| !w.is_empty() && !w.starts_with(|c: char| c.is_ascii_digit()) && seedy(w));
            if has_seed_arg {
                fire(
                    off + 1,
                    format!("seed-provenance value passed to `{meth}…` integer mixing"),
                    out,
                );
            }
        }
    }
}

/// Matching `)` for the `(` at char offset `open`.
fn paren_close(chars: &[char], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < chars.len() {
        match chars[i] {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    chars.len().saturating_sub(1)
}

/// Matching `}` for the `{` at char offset `open`.
fn brace_close(chars: &[char], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < chars.len() {
        match chars[i] {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    chars.len().saturating_sub(1)
}

// ---------------------------------------------------------------------
// Rule: unjournalled-mutation
// ---------------------------------------------------------------------

/// Body substrings that constitute a fact-storage write.
const STORAGE_WRITES: [&str; 2] = [".slots", ".live"];

/// Body substrings that reach the journal/epoch path: the primitive, or a
/// delegation to one of the public mutators that call it.
const JOURNAL_SIGNALS: [&str; 6] = [
    "record_mutation(",
    "self.insert(",
    "self.restore(",
    "self.delete(",
    "self.delete_unchecked(",
    "self.apply_mutation(",
];

fn unjournalled_mutation(
    rel_path: &str,
    src: &FileSource,
    exempt: &[(usize, usize)],
    index: &WorkspaceIndex,
    out: &mut Vec<Finding>,
) {
    let code_lines: Vec<&str> = src.code.split('\n').collect();
    for f in index.fns_in_file(rel_path) {
        if f.impl_type.as_deref() != Some("Database") || f.receiver != Some(Receiver::RefMut) {
            continue;
        }
        // 1-based line span of the body, `{` to `}`.
        let Some((b0, b1)) = f.body else {
            continue;
        };
        if in_exempt(exempt, f.line) {
            continue;
        }
        let body = code_lines[b0.saturating_sub(1)..b1.min(code_lines.len())].join("\n");
        if !STORAGE_WRITES.iter().any(|w| body.contains(w)) {
            continue;
        }
        if JOURNAL_SIGNALS.iter().any(|s| body.contains(s)) {
            continue;
        }
        let end_line = b1;
        let col = src.raw_line(f.line).find("fn ").map_or(1, |b| b + 1);
        out.push(Finding {
            rule: Rule::UnjournalledMutation,
            file: rel_path.to_string(),
            line: f.line,
            end_line,
            col,
            message: format!(
                "`&mut self` method `{}` on `Database` writes fact storage \
                 without journalling",
                f.name
            ),
            snippet: src.raw_line(f.line).to_string(),
        });
    }
}

// ---------------------------------------------------------------------
// Rule: manual-float-accumulation
// ---------------------------------------------------------------------

fn manual_float_accumulation(
    rel_path: &str,
    src: &FileSource,
    exempt: &[(usize, usize)],
    bindings: &Bindings,
    index: &WorkspaceIndex,
    out: &mut Vec<Finding>,
) {
    let code = &src.code;
    let chars: Vec<char> = code.chars().collect();
    for off in word_occurrences(code, "for") {
        let tail: String = chars[off..].iter().take(400).collect();
        let Some(in_pos) = tail.find(" in ") else {
            continue;
        };
        let Some(brace_rel) = tail[in_pos..].find('{') else {
            continue;
        };
        let expr = tail[in_pos + 4..in_pos + brace_rel].trim();
        // A hash-ordered source: any tracked identifier in the expression,
        // or a free-fn call the index knows returns a hash container.
        let mut hashy = expr.split(|c: char| !is_ident_char(c)).any(|w| {
            !w.is_empty() && !w.starts_with(|c: char| c.is_ascii_digit()) && bindings.is_hash(w)
        });
        if !hashy {
            if let Some(p) = expr.find('(') {
                let callee: String = expr[..p]
                    .chars()
                    .rev()
                    .take_while(|&c| is_ident_char(c))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                hashy =
                    !callee.is_empty() && !expr[..p].contains('.') && index.returns_hash(&callee);
            }
        }
        if !hashy {
            continue;
        }
        let open = off + tail[..in_pos + brace_rel].chars().count();
        let close = brace_close(&chars, open);
        for op in ["+=", "-=", "*="] {
            for o in substr_occurrences(code, op) {
                if o <= open || o >= close {
                    continue;
                }
                let Some(name) = receiver_ident(&chars, o) else {
                    continue;
                };
                if !bindings.is_float(&name) {
                    continue;
                }
                let (line, col) = src.line_col(o);
                if in_exempt(exempt, line) {
                    continue;
                }
                out.push(Finding {
                    rule: Rule::ManualFloatAccumulation,
                    file: rel_path.to_string(),
                    line,
                    end_line: line,
                    col,
                    message: format!(
                        "float accumulator `{name}` updated with `{op}` inside a \
                         loop over a hash-ordered source"
                    ),
                    snippet: src.raw_line(line).to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: panic-path
// ---------------------------------------------------------------------

/// Is the panic at `line` covered by a documented contract: a `PANICS:`
/// comment on the line (or the contiguous comment block above), or a
/// `# Panics` doc section on the enclosing fn?
fn panic_documented(src: &FileSource, index: &WorkspaceIndex, rel_path: &str, line: usize) -> bool {
    let marked = |c: &str| c.contains("PANICS:") || c.contains("# Panics");
    if marked(src.comment_on(line)) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if marked(src.comment_on(l)) {
            return true;
        }
        if !(src.code_blank(l) || src.attr_line(l)) {
            break;
        }
    }
    index
        .enclosing_fn(rel_path, line)
        .is_some_and(|f| f.doc_panics)
}

fn panic_path(
    rel_path: &str,
    src: &FileSource,
    exempt: &[(usize, usize)],
    bindings: &Bindings,
    index: &WorkspaceIndex,
    out: &mut Vec<Finding>,
) {
    let code = &src.code;
    let chars: Vec<char> = code.chars().collect();

    for (pat, what) in [
        (".unwrap()", "`.unwrap()`"),
        (".expect(", "`.expect(…)`"),
        ("panic!", "`panic!` invocation"),
    ] {
        for off in substr_occurrences(code, pat) {
            let anchor = if pat.starts_with('.') { off + 1 } else { off };
            let (line, col) = src.line_col(anchor);
            if in_exempt(exempt, line) || panic_documented(src, index, rel_path, line) {
                continue;
            }
            out.push(Finding {
                rule: Rule::PanicPath,
                file: rel_path.to_string(),
                line,
                end_line: line,
                col,
                message: format!("{what} on a production compute path"),
                snippet: src.raw_line(line).to_string(),
            });
        }
    }

    // Indexing with an integer literal: `xs[3]` panics unless the receiver
    // is a fixed-size array the dataflow pass proved long enough.
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] == '[' && i > 0 && is_ident_char(chars[i - 1]) {
            let mut j = i + 1;
            while j < chars.len() && chars[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 1 && chars.get(j) == Some(&']') {
                let lit: usize = chars[i + 1..j]
                    .iter()
                    .collect::<String>()
                    .parse()
                    .unwrap_or(0);
                let proven = receiver_ident(&chars, i)
                    .and_then(|r| bindings.array_len(&r))
                    .is_some_and(|n| lit < n);
                if !proven {
                    let (line, col) = src.line_col(i);
                    if !in_exempt(exempt, line) && !panic_documented(src, index, rel_path, line) {
                        out.push(Finding {
                            rule: Rule::PanicPath,
                            file: rel_path.to_string(),
                            line,
                            end_line: line,
                            col,
                            message: format!(
                                "literal index `[{lit}]` without a provable fixed-size \
                                 array bound"
                            ),
                            snippet: src.raw_line(line).to_string(),
                        });
                    }
                }
            }
        }
        i += 1;
    }
}

fn float_reduction(
    rel_path: &str,
    src: &FileSource,
    exempt: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    for pat in FLOAT_REDUCTIONS {
        for off in substr_occurrences(&src.code, pat) {
            let (line, col) = src.line_col(off + 1);
            if in_exempt(exempt, line) {
                continue;
            }
            out.push(Finding {
                rule: Rule::UnfusedFloatReduction,
                file: rel_path.to_string(),
                line,
                end_line: line,
                col,
                message: format!(
                    "float reduction `{}` outside the fixed-lane kernel layer",
                    pat.trim_start_matches('.')
                ),
                snippet: src.raw_line(line).to_string(),
            });
        }
    }
}
