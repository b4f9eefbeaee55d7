//! A recursive-descent parser for the Rust subset the analyzer needs:
//! items (`mod`/`fn`/`impl`/`trait`) and whether a fn is `pub`, blocks,
//! paths, calls, method calls, macro invocations, closures and paths used
//! as values, built directly on the [`crate::lexer`] token stream.
//!
//! The parser is **total and error-tolerant**: it never fails and never
//! loops — anything it cannot classify is skipped token-by-token, and
//! every skipping helper is bounded. The produced AST over-approximates
//! "which fns can this function call or name", which is the only question
//! the analyses ask of it. Known, deliberate approximations:
//!
//! * every path that is not called is a value reference, locals and
//!   constants included; name resolution decides which of them name fns;
//! * expression-bodied closures contribute their calls to the enclosing
//!   scope (block-bodied closures nest properly);
//! * `if`/`match`/`loop` control flow is flattened — both arms "happen";
//! * nested `fn` items inside bodies are inlined into the enclosing
//!   function;
//! * type information does not exist: method calls are resolved by name.

use crate::ast::{
    Block, CallExpr, ClosureExpr, Expr, File, FnItem, ImplItem, Item, MacroExpr, MethodCallExpr,
    ModItem, RefExpr, TraitItem,
};
use crate::lexer::{self, Lexed, Tok, Token};

/// A parsed file plus the raw lex it came from (the lex carries the
/// comments that drive `lint:allow` suppressions and SAFETY tracking).
pub struct Parsed {
    /// The AST.
    pub file: File,
    /// The underlying lex.
    pub lexed: Lexed,
}

/// Infers the crate name from a workspace-relative path.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") | Some("vendor") => parts.next().unwrap_or("unknown").to_string(),
        Some("perfbench") => "perfbench".to_string(),
        // Root package sources, integration tests, examples.
        _ => "demodq".to_string(),
    }
}

/// Parses one source file into the analyzer AST.
pub fn parse_source(rel: &str, source: &str) -> Parsed {
    let lexed = lexer::lex(source);
    let mut parser = Parser { toks: &lexed.tokens, pos: 0, prev: None };
    let items = parser.parse_items(false);
    Parsed { file: File { rel: rel.to_string(), krate: crate_of(rel), items }, lexed }
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Last consumed token kind (closure-start disambiguation).
    prev: Option<Tok>,
}

/// Attribute and visibility flags pending application to the next item.
#[derive(Default, Clone, Copy)]
struct PendingAttrs {
    test: bool,
    cfg_test: bool,
    /// An unrestricted `pub` preceded the item.
    public: bool,
}

impl<'a> Parser<'a> {
    fn peek(&self, ahead: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + ahead).map(|t| &t.tok)
    }

    fn line(&self) -> usize {
        self.toks.get(self.pos).map(|t| t.line).unwrap_or(0)
    }

    fn bump(&mut self) {
        if let Some(t) = self.toks.get(self.pos) {
            self.prev = Some(t.tok.clone());
        }
        self.pos += 1;
    }

    fn at_punct(&self, c: char) -> bool {
        matches!(self.peek(0), Some(Tok::Punct(p)) if *p == c)
    }

    fn ident_at(&self, ahead: usize) -> Option<&'a str> {
        match self.peek(ahead) {
            Some(Tok::Ident(name)) => Some(name.as_str()),
            _ => None,
        }
    }

    // -- item level ---------------------------------------------------------

    /// Parses items until EOF, or until the matching `}` when
    /// `until_close` is set (the `}` is consumed).
    fn parse_items(&mut self, until_close: bool) -> Vec<Item> {
        let mut items = Vec::new();
        let mut pending = PendingAttrs::default();
        while self.pos < self.toks.len() {
            if until_close && self.at_punct('}') {
                self.bump();
                break;
            }
            match self.peek(0) {
                Some(Tok::Punct('#')) => {
                    let attrs = self.parse_attribute();
                    pending.test |= attrs.test;
                    pending.cfg_test |= attrs.cfg_test;
                }
                Some(Tok::Ident(kw)) => match kw.as_str() {
                    "fn" => {
                        items.push(Item::Fn(self.parse_fn(pending)));
                        pending = PendingAttrs::default();
                    }
                    "mod" => {
                        if let Some(m) = self.parse_mod(pending) {
                            items.push(Item::Mod(m));
                        }
                        pending = PendingAttrs::default();
                    }
                    "impl" => {
                        items.push(Item::Impl(self.parse_impl(pending)));
                        pending = PendingAttrs::default();
                    }
                    "trait" => {
                        items.push(Item::Trait(self.parse_trait()));
                        pending = PendingAttrs::default();
                    }
                    "struct" | "enum" | "union" => {
                        self.bump();
                        self.skip_to_semi_or_braces();
                        pending = PendingAttrs::default();
                    }
                    "use" | "type" | "static" | "const" | "extern" | "macro_rules" => {
                        // `const fn` / `unsafe extern "C" fn` are handled by
                        // the modifier pass below; a bare `const`/`static`/
                        // `use`/`type` item is skipped to its `;`, and
                        // `extern "C" { ... }` / `macro_rules! m { ... }`
                        // to their closing brace.
                        if (kw == "const" || kw == "extern") && self.fn_follows_modifiers() {
                            self.bump();
                            continue;
                        }
                        self.bump();
                        self.skip_to_semi_or_braces();
                        pending = PendingAttrs::default();
                    }
                    "pub" | "unsafe" | "async" | "default" => {
                        self.bump();
                        if self.at_punct('(') {
                            self.skip_delimited('(', ')');
                        } else if kw == "pub" {
                            pending.public = true;
                        }
                    }
                    _ => self.bump(),
                },
                Some(_) => self.bump(),
                None => break,
            }
        }
        items
    }

    /// After a `const`/`extern` modifier, does a `fn` keyword follow
    /// (within the `extern "C" fn` / `const fn` shapes)?
    fn fn_follows_modifiers(&self) -> bool {
        let mut k = 1;
        while k < 6 {
            match self.peek(k) {
                Some(Tok::Str) => k += 1, // the "C" in extern "C" fn
                Some(Tok::Ident(n)) if n == "fn" => return true,
                Some(Tok::Ident(n)) if n == "unsafe" || n == "extern" => k += 1,
                _ => return false,
            }
        }
        false
    }

    /// Consumes a `#[...]` / `#![...]` attribute, classifying
    /// `#[test]` and `#[cfg(test, ...)]`.
    fn parse_attribute(&mut self) -> PendingAttrs {
        let mut out = PendingAttrs::default();
        self.bump(); // '#'
        if self.at_punct('!') {
            self.bump();
        }
        if !self.at_punct('[') {
            return out;
        }
        // Inspect the head of the attribute before skipping it whole.
        match self.ident_at(1) {
            Some("test") if matches!(self.peek(2), Some(Tok::Punct(']'))) => out.test = true,
            // #[cfg(test)] / #[cfg(test, feature = "...")] — `test`
            // must be the first argument, same as the lexical lint.
            Some("cfg")
                if matches!(self.peek(2), Some(Tok::Punct('(')))
                    && self.ident_at(3) == Some("test") =>
            {
                out.cfg_test = true;
            }
            _ => {}
        }
        self.skip_delimited('[', ']');
        out
    }

    /// Parses `fn name ...(...) ... { body }` (cursor on `fn`). Bodyless
    /// declarations (`;`) produce `body: None`.
    fn parse_fn(&mut self, pending: PendingAttrs) -> FnItem {
        let line = self.line();
        self.bump(); // fn
        let name = match self.peek(0) {
            Some(Tok::Ident(n)) => {
                let n = n.clone();
                self.bump();
                n
            }
            _ => String::from("<anon>"),
        };
        // Signature: skip generics/params/return type up to `{` or `;`.
        let body = if self.skip_signature() { Some(self.parse_block()) } else { None };
        let is_test = pending.test || pending.cfg_test;
        FnItem { name, line, is_test, is_pub: pending.public, body }
    }

    /// Skips a fn signature up to its body. Returns `true` when a `{`
    /// body follows (cursor on the `{`), `false` for `;` declarations
    /// (the `;` is consumed).
    fn skip_signature(&mut self) -> bool {
        let mut guard = 0usize;
        while self.pos < self.toks.len() && guard < 100_000 {
            guard += 1;
            match self.peek(0) {
                Some(Tok::Punct('{')) => return true,
                Some(Tok::Punct(';')) => {
                    self.bump();
                    return false;
                }
                Some(Tok::Punct('<')) => self.skip_angles(),
                Some(Tok::Punct('(')) => self.skip_delimited('(', ')'),
                Some(Tok::Punct('[')) => self.skip_delimited('[', ']'),
                Some(Tok::Punct('-')) if matches!(self.peek(1), Some(Tok::Punct('>'))) => {
                    self.bump();
                    self.bump();
                }
                _ => self.bump(),
            }
        }
        false
    }

    /// Parses `mod name { items }`; returns `None` for `mod name;`.
    fn parse_mod(&mut self, pending: PendingAttrs) -> Option<ModItem> {
        self.bump(); // mod
        let name = match self.peek(0) {
            Some(Tok::Ident(n)) => {
                let n = n.clone();
                self.bump();
                n
            }
            _ => return None,
        };
        if self.at_punct('{') {
            self.bump();
            let items = self.parse_items(true);
            Some(ModItem { name, cfg_test: pending.test || pending.cfg_test, items })
        } else {
            if self.at_punct(';') {
                self.bump();
            }
            None
        }
    }

    /// Parses `impl [<...>] [Trait for] Type { assoc items }`.
    fn parse_impl(&mut self, pending: PendingAttrs) -> ImplItem {
        self.bump(); // impl
        let mut idents: Vec<String> = Vec::new();
        let mut after_for: Option<usize> = None;
        let mut guard = 0usize;
        while self.pos < self.toks.len() && guard < 100_000 {
            guard += 1;
            match self.peek(0) {
                Some(Tok::Punct('{')) => break,
                Some(Tok::Punct(';')) => {
                    // `impl Trait for Type;` style (rare) — no body.
                    self.bump();
                    return ImplItem {
                        type_name: impl_type_name(&idents, after_for),
                        fns: Vec::new(),
                        cfg_test: pending.test || pending.cfg_test,
                    };
                }
                Some(Tok::Punct('<')) => self.skip_angles(),
                Some(Tok::Punct('(')) => self.skip_delimited('(', ')'),
                Some(Tok::Punct('-')) if matches!(self.peek(1), Some(Tok::Punct('>'))) => {
                    self.bump();
                    self.bump();
                }
                Some(Tok::Ident(n)) if n == "for" => {
                    after_for = Some(idents.len());
                    self.bump();
                }
                Some(Tok::Ident(n)) if n == "where" => {
                    // Everything after `where` is bounds, not the type.
                    self.skip_where_clause();
                    break;
                }
                Some(Tok::Ident(n)) => {
                    idents.push(n.clone());
                    self.bump();
                }
                _ => self.bump(),
            }
        }
        let type_name = impl_type_name(&idents, after_for);
        let mut fns = Vec::new();
        if self.at_punct('{') {
            self.bump();
            for item in self.parse_items(true) {
                if let Item::Fn(f) = item {
                    fns.push(f);
                }
            }
        }
        ImplItem { type_name, fns, cfg_test: pending.test || pending.cfg_test }
    }

    /// Parses `trait Name ... { items }` (default method bodies kept).
    fn parse_trait(&mut self) -> TraitItem {
        self.bump(); // trait
        let name = match self.peek(0) {
            Some(Tok::Ident(n)) => {
                let n = n.clone();
                self.bump();
                n
            }
            _ => String::from("<anon>"),
        };
        // Supertraits / generics / where clause, up to the body.
        let mut guard = 0usize;
        while self.pos < self.toks.len() && guard < 100_000 {
            guard += 1;
            match self.peek(0) {
                Some(Tok::Punct('{')) => break,
                Some(Tok::Punct(';')) => {
                    self.bump();
                    return TraitItem { name, fns: Vec::new() };
                }
                Some(Tok::Punct('<')) => self.skip_angles(),
                Some(Tok::Punct('(')) => self.skip_delimited('(', ')'),
                Some(Tok::Punct('-')) if matches!(self.peek(1), Some(Tok::Punct('>'))) => {
                    self.bump();
                    self.bump();
                }
                _ => self.bump(),
            }
        }
        let mut fns = Vec::new();
        if self.at_punct('{') {
            self.bump();
            for item in self.parse_items(true) {
                if let Item::Fn(f) = item {
                    fns.push(f);
                }
            }
        }
        TraitItem { name, fns }
    }

    /// Skips a `where` clause up to (not including) the `{` that opens
    /// the item body, or through a terminating `;`.
    fn skip_where_clause(&mut self) {
        self.bump(); // where
        let mut guard = 0usize;
        while self.pos < self.toks.len() && guard < 100_000 {
            guard += 1;
            match self.peek(0) {
                Some(Tok::Punct('{')) => return,
                Some(Tok::Punct(';')) => return,
                Some(Tok::Punct('<')) => self.skip_angles(),
                Some(Tok::Punct('(')) => self.skip_delimited('(', ')'),
                Some(Tok::Punct('-')) if matches!(self.peek(1), Some(Tok::Punct('>'))) => {
                    self.bump();
                    self.bump();
                }
                _ => self.bump(),
            }
        }
    }

    /// Skips a non-fn item body: to the first top-level `;`, or through a
    /// balanced `{ ... }` when one opens first.
    fn skip_to_semi_or_braces(&mut self) {
        let mut guard = 0usize;
        while self.pos < self.toks.len() && guard < 200_000 {
            guard += 1;
            match self.peek(0) {
                Some(Tok::Punct(';')) => {
                    self.bump();
                    return;
                }
                Some(Tok::Punct('{')) => {
                    self.skip_delimited('{', '}');
                    return;
                }
                Some(Tok::Punct('(')) => self.skip_delimited('(', ')'),
                Some(Tok::Punct('[')) => self.skip_delimited('[', ']'),
                Some(Tok::Punct('<')) => self.skip_angles(),
                _ => self.bump(),
            }
        }
    }

    /// Skips a balanced `open ... close` region, cursor on `open`.
    fn skip_delimited(&mut self, open: char, close: char) {
        let mut depth = 0i64;
        let mut guard = 0usize;
        while self.pos < self.toks.len() && guard < 500_000 {
            guard += 1;
            match self.peek(0) {
                Some(Tok::Punct(c)) if *c == open => depth += 1,
                Some(Tok::Punct(c)) if *c == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skips a balanced `< ... >` region (generics/turbofish), cursor on
    /// `<`. `->` arrows inside do not count as closers. Bails out after a
    /// bounded number of tokens (a `<` that was really a comparison).
    fn skip_angles(&mut self) {
        let start = self.pos;
        let mut depth = 0i64;
        let mut guard = 0usize;
        while self.pos < self.toks.len() && guard < 1_000 {
            guard += 1;
            match self.peek(0) {
                Some(Tok::Punct('-')) if matches!(self.peek(1), Some(Tok::Punct('>'))) => {
                    self.bump();
                }
                Some(Tok::Punct('<')) => depth += 1,
                Some(Tok::Punct('>')) => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                Some(Tok::Punct(';')) | Some(Tok::Punct('{')) | Some(Tok::Punct('}')) => {
                    // A `<` that opened generics never runs into these;
                    // this was a comparison — rewind past just the `<`.
                    self.pos = start + 1;
                    return;
                }
                None => break,
                _ => {}
            }
            self.bump();
        }
        self.pos = (start + 1).min(self.toks.len());
    }

    // -- expression level ---------------------------------------------------

    /// Parses a `{ ... }` block, cursor on the `{`.
    fn parse_block(&mut self) -> Block {
        self.bump(); // '{'
        self.prev = Some(Tok::Punct('{'));
        Block { exprs: self.parse_exprs_until(Some('}')) }
    }

    /// Walks expression-position tokens until the matching closer (which
    /// is consumed) or EOF, producing the flat list of interesting nodes.
    fn parse_exprs_until(&mut self, close: Option<char>) -> Vec<Expr> {
        let mut exprs = Vec::new();
        while self.pos < self.toks.len() {
            match self.peek(0) {
                Some(Tok::Punct(c)) if Some(*c) == close => {
                    self.bump();
                    return exprs;
                }
                Some(Tok::Punct('}')) => {
                    // Unbalanced close for our context: let the caller
                    // deal with it (error tolerance — don't consume).
                    return exprs;
                }
                Some(Tok::Punct('{')) => {
                    exprs.push(Expr::Block(self.parse_block()));
                }
                Some(Tok::Punct('(')) => {
                    self.bump();
                    self.prev = Some(Tok::Punct('('));
                    exprs.extend(self.parse_exprs_until(Some(')')));
                    self.prev = Some(Tok::Punct(')'));
                }
                Some(Tok::Punct('[')) => {
                    self.bump();
                    self.prev = Some(Tok::Punct('['));
                    exprs.extend(self.parse_exprs_until(Some(']')));
                    self.prev = Some(Tok::Punct(']'));
                }
                Some(Tok::Punct('#')) => {
                    self.bump();
                    if self.at_punct('!') {
                        self.bump();
                    }
                    if self.at_punct('[') {
                        self.skip_delimited('[', ']');
                    }
                }
                Some(Tok::Punct('.')) => self.parse_dot(&mut exprs),
                Some(Tok::Punct('|')) => {
                    if self.closure_starts_here() {
                        if let Some(expr) = self.parse_closure() {
                            exprs.push(expr);
                            continue;
                        }
                    }
                    self.bump();
                }
                Some(Tok::Ident(kw)) if kw == "move" && matches!(self.peek(1), Some(Tok::Punct('|'))) => {
                    self.bump();
                    if let Some(expr) = self.parse_closure() {
                        exprs.push(expr);
                    }
                }
                Some(Tok::Ident(kw)) if kw == "fn" && self.ident_at(1).is_some() => {
                    // Nested fn item: its calls attribute to the encloser.
                    self.bump();
                    self.bump(); // name
                    if self.skip_signature() {
                        exprs.push(Expr::Block(self.parse_block()));
                    }
                }
                Some(Tok::Ident(_)) => {
                    if let Some(expr) = self.parse_path_expr() {
                        exprs.push(expr);
                    }
                }
                Some(_) => self.bump(),
                None => break,
            }
        }
        exprs
    }

    /// `.` in expression position: method call, field access, tuple
    /// index, `.await`, or a range `..`.
    fn parse_dot(&mut self, exprs: &mut Vec<Expr>) {
        let dot_index = self.pos;
        self.bump(); // '.'
        let Some(Tok::Ident(name)) = self.peek(0) else {
            return; // `.0` tuple index, `..` range — nothing to do
        };
        let name = name.clone();
        let line = self.line();
        // Turbofish between name and args: `.collect::<Vec<_>>()`.
        let mut k = 1;
        if matches!(self.peek(1), Some(Tok::Punct(':')))
            && matches!(self.peek(2), Some(Tok::Punct(':')))
            && matches!(self.peek(3), Some(Tok::Punct('<')))
        {
            // Consume name + `::`, then the angles; then expect `(`.
            self.bump(); // name
            self.bump(); // ':'
            self.bump(); // ':'
            self.skip_angles();
            if self.at_punct('(') {
                let recv = receiver_chain(self.toks, dot_index);
                let (args, n_args, args_have_ident) = self.parse_args();
                exprs.push(Expr::MethodCall(MethodCallExpr {
                    name,
                    recv,
                    line,
                    n_args,
                    args_have_ident,
                    args,
                }));
            }
            return;
        }
        if matches!(self.peek(k), Some(Tok::Punct('('))) {
            self.bump(); // name
            let recv = receiver_chain(self.toks, dot_index);
            let (args, n_args, args_have_ident) = self.parse_args();
            exprs.push(Expr::MethodCall(MethodCallExpr {
                name,
                recv,
                line,
                n_args,
                args_have_ident,
                args,
            }));
        } else {
            // Field access / `.await`.
            self.bump();
            k = 0;
            let _ = k;
        }
    }

    /// An identifier in expression position: a (possibly multi-segment)
    /// path that is called, invoked as a macro, or used as a value.
    fn parse_path_expr(&mut self) -> Option<Expr> {
        let line = self.line();
        let mut path: Vec<String> = Vec::new();
        while let Some(Tok::Ident(seg)) = self.peek(0) {
            path.push(seg.clone());
            self.bump();
            // `::` continuation (segment or turbofish).
            if matches!(self.peek(0), Some(Tok::Punct(':')))
                && matches!(self.peek(1), Some(Tok::Punct(':')))
            {
                match self.peek(2) {
                    Some(Tok::Ident(_)) => {
                        self.bump();
                        self.bump();
                        continue;
                    }
                    Some(Tok::Punct('<')) => {
                        self.bump();
                        self.bump();
                        self.skip_angles();
                        // `Vec::<u8>::new(...)` — the path may continue.
                        if matches!(self.peek(0), Some(Tok::Punct(':')))
                            && matches!(self.peek(1), Some(Tok::Punct(':')))
                            && matches!(self.peek(2), Some(Tok::Ident(_)))
                        {
                            self.bump();
                            self.bump();
                            continue;
                        }
                        break;
                    }
                    _ => break,
                }
            }
            break;
        }
        if path.is_empty() {
            self.bump();
            return None;
        }
        // Macro invocation `name!(..)` / `name![..]` / `name!{..}`.
        if path.len() == 1
            && matches!(self.peek(0), Some(Tok::Punct('!')))
            && matches!(
                self.peek(1),
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{'))
            )
        {
            let name = path.pop().unwrap_or_default();
            self.bump(); // '!'
            let body = match self.peek(0) {
                Some(Tok::Punct('(')) => {
                    self.bump();
                    self.parse_exprs_until(Some(')'))
                }
                Some(Tok::Punct('[')) => {
                    self.bump();
                    self.parse_exprs_until(Some(']'))
                }
                _ => {
                    self.bump();
                    self.parse_exprs_until(Some('}'))
                }
            };
            return Some(Expr::Macro(MacroExpr { name, line, body }));
        }
        if self.at_punct('(') {
            let (args, _n, args_have_ident) = self.parse_args();
            return Some(Expr::Call(CallExpr { path, line, args_have_ident, args }));
        }
        Some(Expr::Ref(RefExpr { path, line }))
    }

    /// Parses a `( ... )` argument list, cursor on `(`. Returns the
    /// nested expressions, the top-level argument count, and whether any
    /// identifier appears in the span.
    fn parse_args(&mut self) -> (Vec<Expr>, usize, bool) {
        self.bump(); // '('
        self.prev = Some(Tok::Punct('('));
        let mut exprs = Vec::new();
        let mut commas = 0usize;
        let mut any_token = false;
        let mut has_ident = false;
        loop {
            match self.peek(0) {
                Some(Tok::Punct(')')) => {
                    self.bump();
                    break;
                }
                Some(Tok::Punct('}')) | None => break, // tolerance
                Some(Tok::Punct(',')) => {
                    commas += 1;
                    any_token = true;
                    self.bump();
                }
                Some(Tok::Punct('{')) => {
                    any_token = true;
                    let before = self.pos;
                    exprs.push(Expr::Block(self.parse_block()));
                    has_ident |= self.span_has_ident(before);
                }
                Some(Tok::Punct('(')) => {
                    any_token = true;
                    let before = self.pos;
                    self.bump();
                    exprs.extend(self.parse_exprs_until(Some(')')));
                    has_ident |= self.span_has_ident(before);
                }
                Some(Tok::Punct('[')) => {
                    any_token = true;
                    let before = self.pos;
                    self.bump();
                    exprs.extend(self.parse_exprs_until(Some(']')));
                    has_ident |= self.span_has_ident(before);
                }
                Some(Tok::Punct('.')) => {
                    any_token = true;
                    self.parse_dot(&mut exprs);
                }
                Some(Tok::Punct('|')) => {
                    any_token = true;
                    if self.closure_starts_here() {
                        if let Some(expr) = self.parse_closure() {
                            exprs.push(expr);
                            continue;
                        }
                    }
                    self.bump();
                }
                Some(Tok::Ident(kw)) if kw == "move" && matches!(self.peek(1), Some(Tok::Punct('|'))) => {
                    any_token = true;
                    self.bump();
                    if let Some(expr) = self.parse_closure() {
                        exprs.push(expr);
                    }
                }
                Some(Tok::Ident(_)) => {
                    any_token = true;
                    has_ident = true;
                    if let Some(expr) = self.parse_path_expr() {
                        exprs.push(expr);
                    }
                }
                Some(_) => {
                    any_token = true;
                    self.bump();
                }
            }
        }
        let n_args = if any_token { commas + 1 } else { 0 };
        (exprs, n_args, has_ident)
    }

    /// Did the region consumed since `before` contain an identifier?
    fn span_has_ident(&self, before: usize) -> bool {
        self.toks[before..self.pos.min(self.toks.len())]
            .iter()
            .any(|t| matches!(t.tok, Tok::Ident(_)))
    }

    /// Is the `|` at the cursor a closure opener (vs binary or)? Decided
    /// from the previously consumed token: closures appear after
    /// delimiters, separators and `return`/`=`, never after an operand.
    fn closure_starts_here(&self) -> bool {
        match &self.prev {
            None => true,
            Some(Tok::Punct(c)) => matches!(c, '(' | ',' | '=' | '{' | ';' | ':' | '>'),
            Some(Tok::Ident(kw)) => matches!(kw.as_str(), "return" | "else" | "move" | "in"),
            _ => false,
        }
    }

    /// Parses `|params| body`, cursor on the opening `|`. Returns `None`
    /// (cursor restored) when no closing `|` appears nearby — the token
    /// was a binary `|` after all.
    fn parse_closure(&mut self) -> Option<Expr> {
        let start = self.pos;
        let line = self.line();
        self.bump(); // '|'
        let mut guard = 0usize;
        let mut depth = 0i64;
        // Scan the parameter list for the closing `|` at depth 0.
        while self.pos < self.toks.len() && guard < 200 {
            guard += 1;
            match self.peek(0) {
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('<')) => {
                    depth += 1;
                    self.bump();
                }
                Some(Tok::Punct(')')) | Some(Tok::Punct(']')) | Some(Tok::Punct('>')) => {
                    depth -= 1;
                    self.bump();
                }
                Some(Tok::Punct('|')) if depth <= 0 => {
                    self.bump();
                    // Block body nests; expression body contributes to
                    // the enclosing scope (the walker keeps going).
                    let body = if self.at_punct('{') {
                        self.parse_block().exprs
                    } else {
                        Vec::new()
                    };
                    return Some(Expr::Closure(ClosureExpr { line, body }));
                }
                Some(Tok::Punct('{')) | Some(Tok::Punct('}')) | Some(Tok::Punct(';')) | None => {
                    break; // not a closure — params never contain these
                }
                _ => self.bump(),
            }
        }
        self.pos = start;
        self.bump(); // consume the `|` as a plain operator
        None
    }
}

/// `impl` self-type name from the collected top-level idents.
fn impl_type_name(idents: &[String], after_for: Option<usize>) -> String {
    let slice = match after_for {
        Some(i) if i < idents.len() => &idents[i..],
        _ => idents,
    };
    slice.last().cloned().unwrap_or_else(|| String::from("<unknown>"))
}

/// The trailing `ident(.ident)*` chain immediately before the `.` at
/// `dot_index` — the method receiver, when it is a simple chain.
fn receiver_chain(toks: &[Token], dot_index: usize) -> Vec<String> {
    let mut chain: Vec<String> = Vec::new();
    let mut j = dot_index;
    loop {
        if j == 0 {
            break;
        }
        match &toks[j - 1].tok {
            Tok::Ident(name) => {
                chain.push(name.clone());
                j -= 1;
                // A preceding `.` continues the chain; `::` means the
                // head is a path segment — include it and stop.
                if j >= 1 && matches!(toks[j - 1].tok, Tok::Punct('.')) {
                    j -= 1;
                    continue;
                }
                break;
            }
            _ => break,
        }
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;

    fn parse(src: &str) -> File {
        parse_source("crates/demo/src/lib.rs", src).file
    }

    /// Flattens every call-ish node in a fn body to `name@line` strings.
    fn calls_of(file: &File, fn_name: &str) -> Vec<String> {
        let fns = file.functions();
        let f = fns
            .iter()
            .find(|f| f.item.name == fn_name)
            .unwrap_or_else(|| panic!("fn {fn_name} not parsed"));
        let mut out = Vec::new();
        if let Some(body) = &f.item.body {
            body.walk(&mut |e| match e {
                Expr::Call(c) => out.push(c.path.join("::")),
                Expr::MethodCall(m) => out.push(format!(".{}", m.name)),
                Expr::Macro(m) => out.push(format!("{}!", m.name)),
                _ => {}
            });
        }
        out
    }

    #[test]
    fn items_fns_and_impls_parse() {
        let src = r#"
            pub struct Foo { a: u8 }
            impl Foo {
                pub fn new() -> Foo { Foo { a: helper() } }
                fn private(&self) { self.a.to_string(); }
            }
            impl std::fmt::Display for Foo {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write!(f, "x") }
            }
            mod inner {
                pub fn nested() { super::helper(); }
            }
            fn helper() -> u8 { 7 }
        "#;
        let file = parse(src);
        let fns = file.functions();
        let names: Vec<&str> = fns.iter().map(|f| f.item.name.as_str()).collect();
        assert_eq!(names, vec!["new", "private", "fmt", "nested", "helper"]);
        let new = fns.iter().find(|f| f.item.name == "new").expect("new");
        assert_eq!(new.owner, Some("Foo"));
        let fmt = fns.iter().find(|f| f.item.name == "fmt").expect("fmt");
        assert_eq!(fmt.owner, Some("Foo"), "impl Trait for Type owns by Type");
        let nested = fns.iter().find(|f| f.item.name == "nested").expect("nested");
        assert_eq!(nested.modules, vec!["inner".to_string()]);
        assert_eq!(calls_of(&file, "new"), vec!["helper"]);
    }

    #[test]
    fn method_calls_carry_receiver_chains() {
        let src = r#"
            fn f(&self) {
                let g = self.states.lock();
                REGISTRY.lock();
                foo().lock();
                self.deques[0].lock();
            }
        "#;
        let file = parse(src);
        let fns = file.functions();
        let body = fns[0].item.body.as_ref().expect("body");
        let mut methods = Vec::new();
        body.walk(&mut |e| {
            if let Expr::MethodCall(m) = e {
                methods.push((m.name.clone(), m.recv.clone(), m.n_args));
            }
        });
        assert_eq!(methods.len(), 4);
        assert_eq!(methods[0], ("lock".into(), vec!["self".into(), "states".into()], 0));
        assert_eq!(methods[1], ("lock".into(), vec!["REGISTRY".into()], 0));
        assert_eq!(methods[2].1, Vec::<String>::new(), "computed receiver has no chain");
        assert_eq!(methods[3].1, Vec::<String>::new(), "indexed receiver has no chain");
    }

    #[test]
    fn closures_and_macros_nest() {
        let src = r#"
            fn f(v: &[u64]) {
                v.iter().map(|x| helper(*x)).count();
                let g = move |a: u64| { deep(a); };
                let total = v.len() | 1; // binary or, not a closure
                println!("total {}", format!("{}", other()));
            }
        "#;
        let file = parse(src);
        let calls = calls_of(&file, "f");
        assert!(calls.contains(&"helper".to_string()), "{calls:?}");
        assert!(calls.contains(&"deep".to_string()), "{calls:?}");
        assert!(calls.contains(&"other".to_string()), "{calls:?}");
        assert!(calls.contains(&"println!".to_string()), "{calls:?}");
        assert!(calls.contains(&"format!".to_string()), "{calls:?}");
    }

    #[test]
    fn literal_vs_derived_call_arguments() {
        let src = r#"
            fn f(seed: u64) {
                Rng64::seed_from_u64(42);
                Rng64::seed_from_u64(seed ^ 0x9E37);
                Rng64::seed_from_u64(split_seed(7, 3));
            }
        "#;
        let file = parse(src);
        let fns = file.functions();
        let mut flags = Vec::new();
        fns[0].item.body.as_ref().expect("body").walk(&mut |e| {
            if let Expr::Call(c) = e {
                if c.path.last().map(String::as_str) == Some("seed_from_u64") {
                    flags.push(c.args_have_ident);
                }
            }
        });
        assert_eq!(flags, vec![false, true, true]);
    }

    #[test]
    fn test_attributes_mark_functions() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn helper_in_tests() { SystemTime::now(); }
            }
            #[test]
            fn a_test() { Instant::now(); }
            fn library_code() {}
        "#;
        let file = parse(src);
        let fns = file.functions();
        let by_name = |n: &str| fns.iter().find(|f| f.item.name == n).expect("fn");
        assert!(by_name("helper_in_tests").in_test);
        assert!(by_name("a_test").in_test);
        assert!(!by_name("library_code").in_test);
    }

    #[test]
    fn turbofish_and_generics_do_not_derail() {
        let src = r#"
            fn f<T: Clone + Into<Vec<u8>>>(x: T) -> Vec<u8> where T: Sized {
                let v = Vec::<u8>::with_capacity(4);
                let c: Vec<u8> = x.clone().into();
                items.iter().collect::<Vec<_>>();
                target(c)
            }
            fn g() {}
        "#;
        let file = parse(src);
        let fns = file.functions();
        assert_eq!(fns.len(), 2, "g must still be seen after f's generics");
        let calls = calls_of(&file, "f");
        assert!(calls.contains(&"Vec::with_capacity".to_string()), "{calls:?}");
        assert!(calls.contains(&".collect".to_string()), "{calls:?}");
        assert!(calls.contains(&"target".to_string()), "{calls:?}");
    }

    #[test]
    fn trait_default_bodies_and_extern_blocks() {
        let src = r#"
            pub trait Scorer {
                fn name(&self) -> &str;
                fn score(&self) -> f64 { fallback() }
            }
            extern "C" {
                fn epoll_create1(flags: i32) -> i32;
            }
            const unsafe extern "C" fn shim() {}
        "#;
        let file = parse(src);
        let fns = file.functions();
        let names: Vec<&str> = fns.iter().map(|f| f.item.name.as_str()).collect();
        assert!(names.contains(&"score"));
        assert!(names.contains(&"shim"));
        assert_eq!(calls_of(&file, "score"), vec!["fallback"]);
    }

    #[test]
    fn visibility_and_value_references() {
        let src = r#"
            pub fn open() { rows.iter().map(Summary::render).count(); Some(helper); }
            pub(crate) fn crate_only() {}
            pub const unsafe fn modified() {}
            fn private() {}
            impl Summary { pub fn render(&self) {} fn hidden(&self) {} }
        "#;
        let file = parse(src);
        let fns = file.functions();
        let public: Vec<&str> =
            fns.iter().filter(|f| f.item.is_pub).map(|f| f.item.name.as_str()).collect();
        assert_eq!(public, vec!["open", "modified", "render"]);
        let mut refs = Vec::new();
        fns[0].item.body.as_ref().expect("body").walk(&mut |e| {
            if let Expr::Ref(r) = e {
                refs.push(r.path.join("::"));
            }
        });
        assert_eq!(refs, vec!["rows", "Summary::render", "helper"]);
    }

    #[test]
    fn crate_inference() {
        assert_eq!(crate_of("crates/mlcore/src/kernels.rs"), "mlcore");
        assert_eq!(crate_of("vendor/rayon/src/lib.rs"), "rayon");
        assert_eq!(crate_of("src/lib.rs"), "demodq");
        assert_eq!(crate_of("tests/study_resume.rs"), "demodq");
    }
}
