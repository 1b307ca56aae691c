//! Per-file analysis context: path classification, token depths,
//! `#[cfg(test)]`/`#[test]` region detection, `par::` parallel-closure
//! region detection, and `simlint::allow` suppression parsing.

use crate::lexer::{self, Comment, Token};
use std::collections::{BTreeMap, BTreeSet};

/// How a file participates in the build, derived from its path. Rules
/// target kinds: e.g. the panic rule audits `Lib` only, the wallclock
/// rule skips `Test` and `Example`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    Lib,
    Bin,
    Test,
    Example,
}

/// A line-level suppression: which rules a comment allows, and whether a
/// justification was given after the rule list.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rules: Vec<String>,
    pub justified: bool,
    /// Line of the comment itself.
    pub line: u32,
    /// Whole-file allow (`simlint::allow-file(...)`).
    pub file_wide: bool,
}

/// Paren/brace nesting level *before* each token is applied.
#[derive(Debug, Clone, Copy, Default)]
struct Depth {
    paren: u32,
    brace: u32,
}

/// Everything the rules need to know about one source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    pub kind: FileKind,
    pub tokens: Vec<Token>,
    /// Inclusive line ranges covered by `#[test]` fns or `#[cfg(test)]`
    /// items.
    test_ranges: Vec<(u32, u32)>,
    /// Inclusive token-index ranges lexically inside a `par::map`,
    /// `par::for_each` or `par::join` call.
    par_ranges: Vec<(usize, usize)>,
    /// Line → rules allowed on that line.
    line_allows: BTreeMap<u32, BTreeSet<String>>,
    /// Rules allowed for the whole file.
    file_allows: BTreeSet<String>,
    /// All allow comments, for the bare-allow (missing justification) rule.
    pub allows: Vec<Allow>,
}

/// Classify a workspace-relative path into its [`FileKind`].
pub fn classify(rel: &str) -> FileKind {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.contains(&"tests") {
        return FileKind::Test;
    }
    if parts.contains(&"examples") {
        return FileKind::Example;
    }
    if rel.ends_with("src/main.rs") || parts.windows(2).any(|w| w == ["src", "bin"]) {
        return FileKind::Bin;
    }
    FileKind::Lib
}

/// The `par::` entry points whose closures run concurrently.
const PAR_CALLS: &[&str] = &["map", "for_each", "join"];

impl SourceFile {
    pub fn parse(rel: &str, src: &str) -> SourceFile {
        let lexed = lexer::lex(src);
        let depths = compute_depths(&lexed.tokens);
        let test_ranges = find_test_ranges(&lexed.tokens, &depths);
        let par_ranges = find_par_ranges(&lexed.tokens, &depths);
        let allows = parse_allows(&lexed.comments);

        let mut line_allows: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
        let mut file_allows: BTreeSet<String> = BTreeSet::new();
        for a in &allows {
            if a.file_wide {
                file_allows.extend(a.rules.iter().cloned());
            } else {
                // A trailing comment suppresses its own line; a comment
                // alone on a line suppresses the line below as well.
                for l in [a.line, a.line + 1] {
                    line_allows
                        .entry(l)
                        .or_default()
                        .extend(a.rules.iter().cloned());
                }
            }
        }

        SourceFile {
            rel: rel.to_string(),
            kind: classify(rel),
            tokens: lexed.tokens,
            test_ranges,
            par_ranges,
            line_allows,
            file_allows,
            allows,
        }
    }

    /// Is `line` inside a `#[test]` fn or `#[cfg(test)]` item?
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// Is token index `i` lexically inside a `par::` call?
    pub fn in_par_region(&self, i: usize) -> bool {
        self.par_ranges.iter().any(|&(a, b)| a <= i && i <= b)
    }

    pub fn has_par_regions(&self) -> bool {
        !self.par_ranges.is_empty()
    }

    /// Is `rule` suppressed at `line` (or file-wide)?
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.file_allows.contains(rule)
            || self
                .line_allows
                .get(&line)
                .is_some_and(|set| set.contains(rule))
    }
}

fn compute_depths(tokens: &[Token]) -> Vec<Depth> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut d = Depth::default();
    for t in tokens {
        out.push(d);
        if t.is_punct('(') {
            d.paren += 1;
        } else if t.is_punct(')') {
            d.paren = d.paren.saturating_sub(1);
        } else if t.is_punct('{') {
            d.brace += 1;
        } else if t.is_punct('}') {
            d.brace = d.brace.saturating_sub(1);
        }
    }
    out
}

/// Does the token slice of a `cfg(...)` argument enable the item under
/// test builds? True for `test` / `any(test, ..)`, false when the only
/// `test` is under `not(..)` — close enough for lint purposes.
fn cfg_args_mean_test(args: &[Token]) -> bool {
    for (i, t) in args.iter().enumerate() {
        if t.is_ident("test") || t.is_ident("doctest") {
            let negated = i >= 2 && args[i - 1].is_punct('(') && args[i - 2].is_ident("not");
            if !negated {
                return true;
            }
        }
    }
    false
}

/// Find line ranges of items gated to test builds: `#[test]` and
/// `#[cfg(test)]` (including `any(test, ...)`) attributes, extended over
/// the attributed item's braces (or to its `;` for brace-less items).
fn find_test_ranges(tokens: &[Token], depths: &[Depth]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let n = tokens.len();
    let mut i = 0usize;
    while i < n {
        if !(tokens[i].is_punct('#') && i + 1 < n && tokens[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching `]`.
        let attr_start = i;
        let mut j = i + 2;
        let mut bracket = 1i32;
        let mut attr: Vec<Token> = Vec::new();
        while j < n && bracket > 0 {
            if tokens[j].is_punct('[') {
                bracket += 1;
            } else if tokens[j].is_punct(']') {
                bracket -= 1;
            }
            if bracket > 0 {
                attr.push(tokens[j].clone());
            }
            j += 1;
        }
        let is_test_attr = match attr.first() {
            Some(t) if t.is_ident("test") && attr.len() == 1 => true,
            Some(t) if t.is_ident("cfg") => cfg_args_mean_test(&attr[1..]),
            _ => false,
        };
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes, then span the attributed item.
        let mut k = j;
        while k + 1 < n && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[') {
            let mut b = 1i32;
            k += 2;
            while k < n && b > 0 {
                if tokens[k].is_punct('[') {
                    b += 1;
                } else if tokens[k].is_punct(']') {
                    b -= 1;
                }
                k += 1;
            }
        }
        let item_brace = depths.get(k).map(|d| d.brace).unwrap_or(0);
        let mut end_line = tokens.get(k.min(n - 1)).map(|t| t.line).unwrap_or(0);
        while k < n {
            let t = &tokens[k];
            if t.is_punct(';') && depths[k].brace <= item_brace && depths[k].paren == 0 {
                end_line = t.line;
                break;
            }
            if t.is_punct('{') && depths[k].brace == item_brace {
                // Span to the matching close brace.
                let mut m = k + 1;
                while m < n {
                    if tokens[m].is_punct('}') && depths[m].brace == item_brace + 1 {
                        break;
                    }
                    m += 1;
                }
                end_line = tokens.get(m.min(n - 1)).map(|t| t.line).unwrap_or(end_line);
                k = m;
                break;
            }
            k += 1;
        }
        ranges.push((tokens[attr_start].line, end_line));
        i = k.max(j);
    }
    ranges
}

/// Find token ranges inside `par::` calls. The region runs from the
/// call's name to the end of the enclosing statement — a `;`
/// at no deeper nesting — or to the close of the enclosing block for
/// tail expressions. This over-approximates (the whole chained statement
/// is marked, not just closure bodies), which is the safe direction for
/// a determinism lint.
fn find_par_ranges(tokens: &[Token], depths: &[Depth]) -> Vec<(usize, usize)> {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let n = tokens.len();
    for i in 0..n {
        let t = &tokens[i];
        let trigger = t.kind == lexer::TokKind::Ident
            && PAR_CALLS.contains(&t.text.as_str())
            && i >= 3
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].is_ident("par");
        if !trigger {
            continue;
        }
        if let Some(&(_, last_end)) = ranges.last() {
            if i <= last_end {
                continue; // already inside a marked region
            }
        }
        let d0 = depths[i];
        let mut j = i + 1;
        while j < n {
            let tj = &tokens[j];
            if tj.is_punct(';') && depths[j].paren <= d0.paren && depths[j].brace <= d0.brace {
                break;
            }
            if tj.is_punct('}') && depths[j].brace <= d0.brace {
                break;
            }
            j += 1;
        }
        ranges.push((i, j.min(n.saturating_sub(1))));
    }
    ranges
}

/// Parse every `simlint::allow(rules...)` / `simlint::allow-file(rules...)`
/// comment. A justification is any non-empty text after the closing
/// paren (conventionally `: why this is sound`).
fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("simlint::allow") {
            let after = &rest[pos + "simlint::allow".len()..];
            let (file_wide, args) = if let Some(a) = after.strip_prefix("-file(") {
                (true, a)
            } else if let Some(a) = after.strip_prefix('(') {
                (false, a)
            } else {
                rest = after;
                continue;
            };
            let Some(close) = args.find(')') else {
                break;
            };
            let rules: Vec<String> = args[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            let tail = args[close + 1..]
                .trim_start_matches([':', ' ', '-', '—'])
                .trim();
            if !rules.is_empty() {
                out.push(Allow {
                    rules,
                    justified: !tail.is_empty(),
                    line: c.line,
                    file_wide,
                });
            }
            rest = &args[close + 1..];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_kinds() {
        assert_eq!(classify("crates/fabric/src/solver.rs"), FileKind::Lib);
        assert_eq!(classify("crates/bench/src/bin/repro.rs"), FileKind::Bin);
        assert_eq!(classify("crates/fabric/tests/proptests.rs"), FileKind::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Example);
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
    }

    #[test]
    fn cfg_test_region_spans_module() {
        let src = "fn lib_code() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn more() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(2));
        assert!(f.in_test_region(4));
        assert!(!f.in_test_region(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.in_test_region(2));
    }

    #[test]
    fn par_region_covers_chained_closures() {
        let src = "fn f(v: &[u64], c: &C) {\n    par::for_each(v, |x| {\n        c.raw.fetch_add(*x, O);\n    });\n    c.raw.fetch_add(1, O);\n}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let in_par: Vec<bool> = (0..f.tokens.len()).map(|i| f.in_par_region(i)).collect();
        let adds: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("fetch_add"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(adds.len(), 2);
        assert!(in_par[adds[0]], "closure-body fetch_add is parallel");
        assert!(!in_par[adds[1]], "statement after the chain is serial");
    }

    #[test]
    fn allow_parses_rules_and_justification() {
        let src = "// simlint::allow(wallclock): operator-facing elapsed print\nlet t = Instant::now();\n// simlint::allow(panic-in-lib)\nx.unwrap();\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.suppressed("wallclock", 2));
        assert!(!f.suppressed("wallclock", 4));
        assert!(f.suppressed("panic-in-lib", 4));
        assert_eq!(f.allows.len(), 2);
        assert!(f.allows[0].justified);
        assert!(!f.allows[1].justified);
    }

    #[test]
    fn allow_file_suppresses_everywhere() {
        let src = "//! simlint::allow-file(hash-iter-reach): inserts into BTreeMap\nuse std::collections::HashMap;\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.suppressed("hash-iter-reach", 2));
        assert!(f.suppressed("hash-iter-reach", 999));
    }
}
