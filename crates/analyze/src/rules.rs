//! The four `pwe-lint` rules.
//!
//! Every rule is a scan over the token stream of one file — no parsing, no
//! type information.  That is enough because each rule targets a *lexical*
//! commitment the workspace makes:
//!
//! * **D1** `det-hash` — no `std::collections::HashMap`/`HashSet`: their
//!   `RandomState` seeds differ per process, which breaks the repo's
//!   bit-reproducibility claim.  Use `pwe_primitives::hash::DetHashMap` /
//!   `DetHashSet` (or an ordered `BTree*` collection).  Allowlist: exactly
//!   the file that defines the deterministic aliases.
//! * **D2** `no-wall-clock` / `no-raw-spawn` — `Instant::now`/`SystemTime`
//!   only in the one diagnostic timestamp in `crates/asym/src/cost.rs`
//!   (the bench bins time through its `CostReport::elapsed`); thread
//!   creation only inside the pool (`vendor/rayon`).
//! * **U1** `safety-comment` — every `unsafe` token (block, fn, impl, or
//!   fn-pointer type) must be preceded by a comment containing `SAFETY:`
//!   with no `;`, `{`, `}` or `,` between the comment and the keyword.
//! * **L1** `untracked-alloc` — files opting in with a
//!   `//! pwe-lint: deny-untracked-alloc` marker must annotate every
//!   allocating construct with an `// alloc:` comment on the same or the
//!   preceding line, tying it to the `TaskScratch`/`SmallMem` ledger entry
//!   that charges it.  `#[cfg(test)]` items are exempt.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeSet;

/// One lint finding; rendered as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A comment-free view of the token stream with `::` merged into one
/// element, so path rules read the way they are written.
struct CodeTok {
    text: String,
    line: u32,
}

fn code_view(tokens: &[Token]) -> Vec<CodeTok> {
    let mut code: Vec<CodeTok> = Vec::new();
    for tok in tokens {
        let text = match tok.kind {
            TokenKind::Comment => continue,
            TokenKind::Ident | TokenKind::Punct | TokenKind::Lifetime => tok.text.clone(),
            TokenKind::Literal => "<lit>".to_string(),
            TokenKind::Number => "<num>".to_string(),
        };
        if text == ":" && code.last().is_some_and(|p| p.text == ":") {
            // Only merge when the two colons are adjacent in the source
            // (same line); `match x { _ => y }: ` shapes never produce
            // colon pairs the rules care about anyway.
            if code.last().unwrap().line == tok.line {
                code.last_mut().unwrap().text = "::".to_string();
                continue;
            }
        }
        code.push(CodeTok {
            text,
            line: tok.line,
        });
    }
    code
}

fn matches_at(code: &[CodeTok], at: usize, pattern: &[&str]) -> bool {
    pattern.len() <= code.len() - at.min(code.len())
        && pattern
            .iter()
            .zip(&code[at..])
            .all(|(want, tok)| *want == tok.text)
}

/// Run every rule that applies to `rel_path` over `src`.
pub fn check_file(rel_path: &str, src: &str) -> Vec<Finding> {
    let tokens = lex(src);
    let code = code_view(&tokens);
    let mut findings = Vec::new();
    rule_d1_det_hash(rel_path, &code, &mut findings);
    rule_d2_wall_clock_and_spawn(rel_path, &code, &mut findings);
    rule_u1_safety_comment(rel_path, &tokens, &mut findings);
    rule_l1_untracked_alloc(rel_path, &tokens, &code, &mut findings);
    findings
}

// ---------------------------------------------------------------------------
// D1: deterministic hashing
// ---------------------------------------------------------------------------

/// The only file allowed to name the std hash collections: the one defining
/// the deterministic aliases everyone else must use.
const D1_ALLOW: &[&str] = &["crates/primitives/src/hash.rs"];

fn rule_d1_det_hash(rel: &str, code: &[CodeTok], findings: &mut Vec<Finding>) {
    if D1_ALLOW.contains(&rel) {
        return;
    }
    let flag = |findings: &mut Vec<Finding>, line: u32, name: &str| {
        findings.push(Finding {
            file: rel.to_string(),
            line,
            rule: "D1",
            message: format!(
                "std::collections::{name} seeds RandomState per process; \
                 use pwe_primitives::hash::Det{name} (or a BTree collection)"
            ),
        });
    };
    for i in 0..code.len() {
        if !matches_at(code, i, &["std", "::", "collections", "::"]) {
            continue;
        }
        match code.get(i + 4).map(|t| t.text.as_str()) {
            Some("HashMap") | Some("HashSet") => {
                flag(findings, code[i + 4].line, &code[i + 4].text.clone());
            }
            Some("{") => {
                for tok in code[i + 5..].iter().take_while(|tok| tok.text != "}") {
                    if tok.text == "HashMap" || tok.text == "HashSet" {
                        flag(findings, tok.line, &tok.text.clone());
                    }
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// D2: wall-clock and raw thread spawns
// ---------------------------------------------------------------------------

fn d2_clock_allowed(rel: &str) -> bool {
    // One diagnostic `elapsed` field in the cost report; never feeds a
    // counter or a layout decision (asserted by cost_model_claims).
    rel == "crates/asym/src/cost.rs"
}

fn d2_spawn_allowed(rel: &str) -> bool {
    rel.starts_with("vendor/rayon/")
}

fn rule_d2_wall_clock_and_spawn(rel: &str, code: &[CodeTok], findings: &mut Vec<Finding>) {
    for (i, tok) in code.iter().enumerate() {
        if !d2_clock_allowed(rel) {
            if matches_at(code, i, &["Instant", "::", "now"]) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: tok.line,
                    rule: "D2",
                    message: "wall-clock (Instant::now) outside the cost report; \
                              counters and layouts must not depend on time"
                        .to_string(),
                });
            }
            if tok.text == "SystemTime" {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: tok.line,
                    rule: "D2",
                    message: "wall-clock (SystemTime) outside the cost report; \
                              counters and layouts must not depend on time"
                        .to_string(),
                });
            }
        }
        if !d2_spawn_allowed(rel)
            && (matches_at(code, i, &["thread", "::", "spawn"])
                || matches_at(code, i, &["thread", "::", "Builder"]))
        {
            findings.push(Finding {
                file: rel.to_string(),
                line: tok.line,
                rule: "D2",
                message: "raw thread creation outside vendor/rayon; all parallelism \
                          must go through the instrumented pool (rayon::join)"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// U1: SAFETY comments
// ---------------------------------------------------------------------------

fn rule_u1_safety_comment(rel: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, tok) in tokens.iter().enumerate() {
        if !(tok.kind == TokenKind::Ident && tok.text == "unsafe") {
            continue;
        }
        let mut justified = false;
        for prev in tokens[..i].iter().rev() {
            match prev.kind {
                TokenKind::Comment if prev.text.contains("SAFETY:") => {
                    justified = true;
                    break;
                }
                TokenKind::Comment => continue,
                // Crossing a statement/item boundary means any earlier
                // SAFETY comment belongs to someone else.
                TokenKind::Punct if matches!(prev.text.as_str(), ";" | "{" | "}" | ",") => break,
                _ => continue,
            }
        }
        if !justified {
            findings.push(Finding {
                file: rel.to_string(),
                line: tok.line,
                rule: "U1",
                message: "`unsafe` without an immediately preceding `// SAFETY:` comment \
                          stating the invariant that makes it sound"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// L1: ledger-tracked allocation (opt-in per file)
// ---------------------------------------------------------------------------

/// The opt-in marker; conventionally the first inner doc line of the module.
pub const L1_MARKER: &str = "pwe-lint: deny-untracked-alloc";

/// `Type::method` pairs treated as allocation sites.
const ALLOC_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "BinaryHeap",
    "BTreeMap",
    "BTreeSet",
    "String",
    "Box",
];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];
/// Method names that materialize a new allocation on any receiver.
const ALLOC_METHODS: &[&str] = &["to_vec", "collect"];

fn rule_l1_untracked_alloc(
    rel: &str,
    tokens: &[Token],
    code: &[CodeTok],
    findings: &mut Vec<Finding>,
) {
    // Opt-in is an exact `//! pwe-lint: deny-untracked-alloc` line, not a
    // substring — prose *mentioning* the marker (as this file does) must
    // not enroll the file.
    let opted_in = tokens.iter().any(|t| {
        t.kind == TokenKind::Comment
            && t.text.starts_with("//!")
            && t.text
                .trim_start_matches('/')
                .trim_start_matches('!')
                .trim()
                == L1_MARKER
    });
    if !opted_in {
        return;
    }
    // Lines carrying an `alloc:` accounting comment bless allocation sites
    // on the same line or the line below.
    let alloc_lines: BTreeSet<u32> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Comment && t.text.contains("alloc:"))
        .map(|t| t.line)
        .collect();
    let skip = cfg_test_ranges(code);
    let mut flag = |line: u32, what: &str| {
        findings.push(Finding {
            file: rel.to_string(),
            line,
            rule: "L1",
            message: format!(
                "{what} in a deny-untracked-alloc module without an `// alloc:` \
                 accounting comment (same line or line above) charging it to the ledger"
            ),
        });
    };
    let mut i = 0;
    while i < code.len() {
        if let Some(end) = skip
            .iter()
            .find(|(start, _)| *start == i)
            .map(|&(_, end)| end)
        {
            i = end;
            continue;
        }
        let tok = &code[i];
        let mut site: Option<(u32, String)> = None;
        if ALLOC_TYPES.contains(&tok.text.as_str())
            && matches_at(code, i + 1, &["::"])
            && code
                .get(i + 2)
                .is_some_and(|t| ALLOC_CTORS.contains(&t.text.as_str()))
        {
            site = Some((tok.line, format!("{}::{}", tok.text, code[i + 2].text)));
        } else if tok.text == "vec" && matches_at(code, i + 1, &["!"]) {
            site = Some((tok.line, "vec! macro".to_string()));
        } else if tok.text == "."
            && code
                .get(i + 1)
                .is_some_and(|t| ALLOC_METHODS.contains(&t.text.as_str()))
        {
            site = Some((code[i + 1].line, format!(".{}()", code[i + 1].text)));
        }
        if let Some((line, what)) = site {
            if !(alloc_lines.contains(&line) || alloc_lines.contains(&line.saturating_sub(1))) {
                flag(line, &what);
            }
        }
        i += 1;
    }
}

/// Half-open index ranges of code tokens covered by a `#[cfg(test)]` item
/// (attribute through the matching close brace of the item's body).
fn cfg_test_ranges(code: &[CodeTok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if matches_at(code, i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            let mut j = i + 7;
            while j < code.len() && code[j].text != "{" {
                j += 1;
            }
            let mut depth = 0usize;
            while j < code.len() {
                match code[j].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            ranges.push((i, (j + 1).min(code.len())));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    ranges
}
