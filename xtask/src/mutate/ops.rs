//! The jetmut operator set: small, mostly type-preserving source edits
//! drawn from this codebase's real bug classes (DESIGN.md §18).
//!
//! Every matcher works on the jetlint *code* token stream (comments and
//! string literals are separate token kinds), so an operator symbol
//! inside a string or a comment can never become a mutation site — the
//! same soundness property the lints inherit from the lexer. Matchers
//! over-approximate deliberately: a token pattern that looks like a
//! comparison but is really a generic-argument bracket produces a mutant
//! that fails to compile, which the runner classifies `unviable` and
//! excludes from the score denominator. The compiler is the precise
//! disambiguator; discovery only has to be cheap and deterministic.

use crate::lex::TokenKind;
use crate::SourceFile;

/// One operator family, for `MUTATION.json` and the DESIGN.md §18 table.
pub struct OpInfo {
    /// Stable operator id, embedded in mutant ids.
    pub id: &'static str,
    /// What the operator rewrites.
    pub description: &'static str,
}

/// Every operator family, in report order.
pub const OPERATORS: [OpInfo; 15] = [
    OpInfo {
        id: "cmp-boundary", description: "comparison boundary flip: `<` ↔ `<=`, `>` ↔ `>=`"
    },
    OpInfo {
        id: "arith-swap",
        description: "arithmetic swap: `+` ↔ `-`, `*` ↔ `/` (compound too)",
    },
    OpInfo { id: "range-flip", description: "range flip: `..` ↔ `..=`" },
    OpInfo { id: "logic-swap", description: "short-circuit swap: `&&` ↔ `||`" },
    OpInfo { id: "negate-drop", description: "deletion of a logical/bitwise `!`" },
    OpInfo { id: "minmax-swap", description: "aggregation swap: `min(` ↔ `max(`" },
    OpInfo { id: "bitop-swap", description: "bit-op swap: binary `&` ↔ `|`, `&=` ↔ `|=`" },
    OpInfo { id: "shift-swap", description: "shift direction swap: `<<` ↔ `>>`" },
    OpInfo { id: "const-01", description: "integer literal off-by-one: `0` ↔ `1`" },
    OpInfo { id: "len-off-by-one", description: "`.len()` → `.len().wrapping_add(1)`" },
    OpInfo { id: "flow-drop", description: "bare `return;` deletion, `continue;` ↔ `break;`" },
    OpInfo {
        id: "delete-strategy-swap",
        description: "`DeleteStrategy::{Tag,Vap,Dap}` cyclic swap (kernel reset guard)",
    },
    OpInfo {
        id: "dap-source-drop",
        description: "`regular_from(s, t, d)` → `regular(t, d)`: the event loses its DAP source",
    },
    OpInfo {
        id: "reseed-drop",
        description: "`initial_event(v)` → `initial_event(v).filter(|_| false)`: no reseed",
    },
    OpInfo {
        id: "vertex-swap",
        description: "`[u as usize]` → `[x as usize]`, `x` the fn's only `VertexId` parameter",
    },
];

/// One concrete mutation site before id assignment: replace the byte span
/// `start..end` (whose current text is `orig`) with `repl`.
pub(crate) struct Candidate {
    /// Operator family id (one of [`OPERATORS`]).
    pub op: &'static str,
    /// Byte offset of the first mutated byte.
    pub start: usize,
    /// Byte offset one past the last mutated byte.
    pub end: usize,
    /// 1-based source line of the site.
    pub line: usize,
    /// The original spanned text.
    pub orig: String,
    /// The replacement text (empty for deletions).
    pub repl: String,
}

/// Keywords that can never end or begin an operand expression; an
/// operator token next to one is punctuation of the grammar (generics,
/// bounds, patterns), not an arithmetic/comparison site.
const NON_OPERAND_KEYWORDS: [&str; 31] = [
    "if", "else", "match", "for", "while", "loop", "let", "fn", "impl", "trait", "struct", "enum",
    "mod", "use", "pub", "where", "in", "as", "ref", "move", "dyn", "mut", "crate", "super",
    "unsafe", "static", "const", "type", "return", "break", "continue",
];

/// True when code token `i` can end an operand: an identifier (not a
/// grammar keyword), a number, or a closing `)` / `]`.
fn operand_end(f: &SourceFile<'_>, i: usize) -> bool {
    if i >= f.code.len() {
        return false;
    }
    match f.ct(i).kind {
        TokenKind::Ident => !NON_OPERAND_KEYWORDS.contains(&f.ctext(i)),
        TokenKind::Number => true,
        TokenKind::Punct => matches!(f.ctext(i), ")" | "]"),
        _ => false,
    }
}

/// True when code token `i` can begin an operand: an identifier, a
/// number, an opening `(`, or a `!`-negated expression.
fn operand_start(f: &SourceFile<'_>, i: usize) -> bool {
    if i >= f.code.len() {
        return false;
    }
    match f.ct(i).kind {
        TokenKind::Ident => !NON_OPERAND_KEYWORDS.contains(&f.ctext(i)),
        TokenKind::Number => true,
        TokenKind::Punct => matches!(f.ctext(i), "(" | "!"),
        _ => false,
    }
}

/// True when code tokens `i` and `j` abut with no whitespace between
/// them — how multi-byte operators (`<=`, `..`, `&&`, `<<`) appear in the
/// single-byte-punct token stream.
fn adjacent(f: &SourceFile<'_>, i: usize, j: usize) -> bool {
    j < f.code.len() && f.ct(i).end == f.ct(j).start
}

/// True when the code token after `i` (index `j = i + 1`) is the
/// punctuation `p` and abuts token `i`.
fn punct_adj(f: &SourceFile<'_>, i: usize, j: usize, p: &str) -> bool {
    f.is_punct(j, p) && adjacent(f, i, j)
}

/// True when the code token before `ci` is the punctuation `p` and abuts
/// it — i.e. `ci` is the second byte of a two-byte operator.
fn prev_punct_adj(f: &SourceFile<'_>, ci: usize, p: &str) -> bool {
    ci > 0 && f.is_punct(ci - 1, p) && adjacent(f, ci - 1, ci)
}

/// True when code token `i` is an identifier starting with an uppercase
/// letter — the heuristic for "this is a type name, so the `<` after it
/// opens generics".
fn type_like(f: &SourceFile<'_>, i: usize) -> bool {
    i < f.code.len()
        && f.ct(i).kind == TokenKind::Ident
        && f.ctext(i).starts_with(|c: char| c.is_ascii_uppercase())
}

/// Runs every operator matcher against code token `ci`, appending any
/// candidate mutations. The caller filters `#[cfg(test)]` spans.
pub(crate) fn match_at(f: &SourceFile<'_>, ci: usize, out: &mut Vec<Candidate>) {
    match f.ct(ci).kind {
        TokenKind::Punct => match_punct(f, ci, out),
        TokenKind::Ident => match_ident(f, ci, out),
        TokenKind::Number => match_number(f, ci, out),
        _ => {}
    }
}

fn cand(
    f: &SourceFile<'_>,
    op: &'static str,
    ci: usize,
    start: usize,
    end: usize,
    repl: &str,
) -> Candidate {
    Candidate {
        op,
        start,
        end,
        line: f.ct(ci).line,
        orig: f.text[start..end].to_string(),
        repl: repl.to_string(),
    }
}

fn match_punct(f: &SourceFile<'_>, ci: usize, out: &mut Vec<Candidate>) {
    let tok = *f.ct(ci);
    let prev = ci.checked_sub(1);
    let prev_end = prev.is_some_and(|p| operand_end(f, p));
    match f.ctext(ci) {
        "<" | ">" => {
            let (this, widened, shifted) =
                if f.ctext(ci) == "<" { ("<", "<=", ">>") } else { (">", ">=", "<<") };
            // Mid-sequence of `<<` / `>>`: the first byte already matched.
            if prev_punct_adj(f, ci, this) {
                return;
            }
            if punct_adj(f, ci, ci + 1, this) {
                // `<<` / `>>` (or `<<=` / `>>=`): swap the direction.
                let assign = punct_adj(f, ci + 1, ci + 2, "=");
                if prev_end && (assign || operand_start(f, ci + 2)) {
                    out.push(cand(f, "shift-swap", ci, tok.start, f.ct(ci + 1).end, shifted));
                }
                return;
            }
            if punct_adj(f, ci, ci + 1, "=") {
                // `<=` / `>=` → `<` / `>`.
                if prev_end && operand_start(f, ci + 2) {
                    out.push(cand(f, "cmp-boundary", ci, tok.start, f.ct(ci + 1).end, this));
                }
                return;
            }
            // Bare `<` / `>` → `<=` / `>=`. For `<`, a preceding type name
            // or a generic parameter list (`fn f<T>`) opens generics.
            if this == "<"
                && (prev.is_some_and(|p| type_like(f, p)) || ci >= 2 && f.is_ident(ci - 2, "fn"))
            {
                return;
            }
            if prev_end && operand_start(f, ci + 1) {
                out.push(cand(f, "cmp-boundary", ci, tok.start, tok.end, widened));
            }
        }
        "+" | "-" | "*" | "/" => {
            let repl = match f.ctext(ci) {
                "+" => "-",
                "-" => "+",
                "*" => "/",
                _ => "*",
            };
            if punct_adj(f, ci, ci + 1, ">") {
                return; // `->`
            }
            if !prev_end {
                return; // unary / deref / grammar position
            }
            let compound = punct_adj(f, ci, ci + 1, "=");
            let rhs = if compound { ci + 2 } else { ci + 1 };
            if operand_start(f, rhs) {
                out.push(cand(f, "arith-swap", ci, tok.start, tok.end, repl));
            }
        }
        "." => {
            // Second dot of a `..` pair: already matched at the first.
            if prev_punct_adj(f, ci, ".") {
                return;
            }
            if !punct_adj(f, ci, ci + 1, ".") || punct_adj(f, ci + 1, ci + 2, ".") {
                return;
            }
            if punct_adj(f, ci + 1, ci + 2, "=") {
                // `..=` → `..`
                out.push(cand(f, "range-flip", ci, tok.start, f.ct(ci + 2).end, ".."));
            } else if operand_start(f, ci + 2) && !type_like(f, ci + 2) {
                // `..` → `..=` (an uppercase successor is `..Struct { }`
                // functional update, not a range end).
                out.push(cand(f, "range-flip", ci, tok.start, f.ct(ci + 1).end, "..="));
            }
        }
        "&" | "|" => {
            let (this, other, logic) =
                if f.ctext(ci) == "&" { ("&", "|", "||") } else { ("|", "&", "&&") };
            if prev_punct_adj(f, ci, this) {
                return; // second byte of `&&` / `||`
            }
            if punct_adj(f, ci, ci + 1, this) {
                if prev_end && operand_start(f, ci + 2) {
                    out.push(cand(f, "logic-swap", ci, tok.start, f.ct(ci + 1).end, logic));
                }
                return;
            }
            if !prev_end {
                return; // reference / closure-params / pattern position
            }
            let compound = punct_adj(f, ci, ci + 1, "=");
            let rhs = if compound { ci + 2 } else { ci + 1 };
            // `a & mut ..` cannot parse, so a following `mut` means this
            // `&` takes a reference after all (`a as &mut T` shapes).
            if operand_start(f, rhs) && !f.is_ident(rhs, "mut") {
                out.push(cand(f, "bitop-swap", ci, tok.start, tok.end, other));
            }
        }
        "!" => {
            // `name!(..)` macro bangs, `#![..]` attrs, and `!=` are not
            // negations.
            if prev.is_some_and(|p| f.ct(p).kind == TokenKind::Ident || f.is_punct(p, "#")) {
                return;
            }
            if punct_adj(f, ci, ci + 1, "=") {
                return;
            }
            if operand_start(f, ci + 1) {
                out.push(cand(f, "negate-drop", ci, tok.start, tok.end, ""));
            }
        }
        _ => {}
    }
}

fn match_ident(f: &SourceFile<'_>, ci: usize, out: &mut Vec<Candidate>) {
    let tok = *f.ct(ci);
    let prev_is = |p: &str| ci > 0 && f.is_punct(ci - 1, p);
    match f.ctext(ci) {
        name @ ("min" | "max") if (prev_is(".") || prev_is(":")) && f.is_punct(ci + 1, "(") => {
            let repl = if name == "min" { "max" } else { "min" };
            out.push(cand(f, "minmax-swap", ci, tok.start, tok.end, repl));
        }
        "len" if prev_is(".") && f.is_punct(ci + 1, "(") && f.is_punct(ci + 2, ")") => {
            out.push(cand(
                f,
                "len-off-by-one",
                ci,
                tok.start,
                f.ct(ci + 2).end,
                "len().wrapping_add(1)",
            ));
        }
        "return" if f.is_punct(ci + 1, ";") => {
            out.push(cand(f, "flow-drop", ci, tok.start, tok.end, ""));
        }
        kw @ ("continue" | "break") if f.is_punct(ci + 1, ";") => {
            let repl = if kw == "continue" { "break" } else { "continue" };
            out.push(cand(f, "flow-drop", ci, tok.start, tok.end, repl));
        }
        v @ ("Tag" | "Vap" | "Dap")
            if ci >= 3
                && f.is_punct(ci - 1, ":")
                && f.is_punct(ci - 2, ":")
                && f.is_ident(ci - 3, "DeleteStrategy") =>
        {
            let repl = match v {
                "Tag" => "Vap",
                "Vap" => "Dap",
                _ => "Tag",
            };
            out.push(cand(f, "delete-strategy-swap", ci, tok.start, tok.end, repl));
        }
        // `regular_from(s, ` → `regular(`: the first argument is the source.
        "regular_from"
            if f.is_punct(ci + 1, "(")
                && ci + 4 < f.code.len()
                && f.ct(ci + 2).kind == TokenKind::Ident
                && f.is_punct(ci + 3, ",") =>
        {
            out.push(cand(f, "dap-source-drop", ci, tok.start, f.ct(ci + 4).start, "regular("));
        }
        // A method call `.initial_event(..)`: filter its answer away.
        "initial_event" if prev_is(".") && f.is_punct(ci + 1, "(") => {
            if let Some(close) = matching_paren(f, ci + 1) {
                let (start, end) = (f.ct(close).start, f.ct(close).end);
                out.push(cand(f, "reseed-drop", close, start, end, ").filter(|_| false)"));
            }
        }
        name if prev_is("[")
            && f.is_ident(ci + 1, "as")
            && f.is_ident(ci + 2, "usize")
            && f.is_punct(ci + 3, "]") =>
        {
            if let Some(param) = sole_vertex_param(f, ci) {
                if param != name {
                    out.push(cand(f, "vertex-swap", ci, tok.start, tok.end, param));
                }
            }
        }
        _ => {}
    }
}

/// Index of the `)` closing the `(` at code token `open`.
fn matching_paren(f: &SourceFile<'_>, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for i in open..f.code.len() {
        if f.is_punct(i, "(") {
            depth += 1;
        } else if f.is_punct(i, ")") {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// The name of the only `VertexId`-typed parameter of the nearest `fn`
/// before code token `ci`, if that fn has exactly one.
fn sole_vertex_param<'f>(f: &'f SourceFile<'_>, ci: usize) -> Option<&'f str> {
    let fn_tok = (0..ci).rev().find(|&i| f.is_ident(i, "fn"))?;
    let open = (fn_tok..ci).find(|&i| f.is_punct(i, "("))?;
    let close = matching_paren(f, open)?;
    let mut params = (open + 1..close.saturating_sub(2)).filter(|&i| {
        f.ct(i).kind == TokenKind::Ident
            && f.is_punct(i + 1, ":")
            && f.is_ident(i + 2, "VertexId")
            && (f.is_punct(i + 3, ",") || i + 3 == close)
    });
    let first = params.next()?;
    params.next().is_none().then(|| f.ctext(first))
}

fn match_number(f: &SourceFile<'_>, ci: usize, out: &mut Vec<Candidate>) {
    let tok = *f.ct(ci);
    let text = f.ctext(ci);
    // Exactly `0` or `1`, optionally with an integer suffix. A leading
    // `x`/`b`/`o`/`e`/`.` in the remainder means hex/binary/octal/float —
    // out of the operator's off-by-one shape.
    let Some(first) = text.chars().next() else { return };
    if first != '0' && first != '1' {
        return;
    }
    let suffix = &text[1..];
    if !(suffix.is_empty() || suffix.starts_with('u') || suffix.starts_with('i')) {
        return;
    }
    // `x.0` tuple fields (and `0` as a float's fractional part can't
    // occur: the lexer keeps floats whole).
    if ci > 0 && f.is_punct(ci - 1, ".") {
        return;
    }
    let repl = format!("{}{}", if first == '0' { '1' } else { '0' }, suffix);
    out.push(cand(f, "const-01", ci, tok.start, tok.end, &repl));
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use crate::mutate::sites::discover_file;
    use crate::SourceFile;

    /// Every `op` mutant of `src`, applied.
    fn mutants(src: &str, op: &str) -> Vec<String> {
        let file = SourceFile::new(Path::new("crates/core/src/k.rs"), src);
        discover_file(&file)
            .into_iter()
            .filter(|s| s.op == op)
            .map(|s| format!("{}{}{}", &src[..s.start], s.repl, &src[s.end..]))
            .collect()
    }

    #[test]
    fn dap_source_drop_removes_the_first_argument() {
        let src = "fn f(u: VertexId) { e(Event::regular_from(u, v, d)); }\n\
                   pub fn regular_from(source: VertexId, t: VertexId) {}\n";
        assert_eq!(
            mutants(src, "dap-source-drop"),
            ["fn f(u: VertexId) { e(Event::regular(v, d)); }\n\
              pub fn regular_from(source: VertexId, t: VertexId) {}\n"]
        );
    }

    #[test]
    fn reseed_drop_filters_the_whole_call() {
        let src = "fn f() { if let Some(s) = cx.alg.initial_event(g(x)) { p(s); } }\n\
                   fn initial_event(v: u32) {}\n";
        assert_eq!(
            mutants(src, "reseed-drop"),
            ["fn f() { if let Some(s) = cx.alg.initial_event(g(x)).filter(|_| false) { p(s); } }\n\
              fn initial_event(v: u32) {}\n"]
        );
    }

    #[test]
    fn vertex_swap_needs_exactly_one_vertex_parameter() {
        let one = "fn f(v: &[f64], x: VertexId) { let u = 1; v[u as usize]; v[x as usize]; }\n";
        assert_eq!(
            mutants(one, "vertex-swap"),
            ["fn f(v: &[f64], x: VertexId) { let u = 1; v[x as usize]; v[x as usize]; }\n"]
        );
        let two = "fn f(v: &[f64], x: VertexId, y: VertexId) { v[u as usize]; }\n";
        assert!(mutants(two, "vertex-swap").is_empty());
    }
}
