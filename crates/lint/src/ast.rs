//! The analyzer's AST: a deliberately small subset of Rust surface
//! syntax — items, functions, blocks, paths, calls, method calls,
//! macros, closures and paths used as values — which is exactly the
//! structure the flow-aware analyses (T001/L001/E001/K001/U001) consume.
//!
//! Everything the parser cannot classify is skipped, never mis-parsed:
//! the AST over-approximates "what does this function call or name" and
//! nothing else. Expression *values* are not modelled beyond the paths
//! they name; argument spans only record whether they contain an
//! identifier (enough to tell a literal-only `seed_from_u64(42)` from a
//! derived seed).

/// One parsed source file.
#[derive(Debug, Default)]
pub struct File {
    /// Workspace-relative path (forward slashes).
    pub rel: String,
    /// Crate name inferred from the path (`crates/<name>`, `vendor/<name>`,
    /// or the root package).
    pub krate: String,
    /// Top-level items, in source order.
    pub items: Vec<Item>,
}

/// A top-level or module-nested item.
#[derive(Debug)]
pub enum Item {
    /// `mod name { ... }` (inline). `mod name;` declarations are dropped —
    /// module identity is derived from file paths, not `mod` statements.
    Mod(ModItem),
    /// A free function.
    Fn(FnItem),
    /// `impl [Trait for] Type { ... }` — methods carry the type name.
    Impl(ImplItem),
    /// `trait Name { ... }` — default method bodies are analysed too.
    Trait(TraitItem),
}

/// An inline module.
#[derive(Debug)]
pub struct ModItem {
    /// Module name.
    pub name: String,
    /// `true` when the module is gated `#[cfg(test)]`.
    pub cfg_test: bool,
    /// Nested items.
    pub items: Vec<Item>,
}

/// A function (free, method, or trait default).
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `true` for `#[test]` / `#[cfg(test)]`-gated functions.
    pub is_test: bool,
    /// `true` for an unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// The body; `None` for bodyless declarations (trait methods,
    /// `extern` items).
    pub body: Option<Block>,
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplItem {
    /// The implemented type's name (last path segment of the self type).
    pub type_name: String,
    /// Methods and associated functions.
    pub fns: Vec<FnItem>,
    /// `true` when the impl is gated `#[cfg(test)]`.
    pub cfg_test: bool,
}

/// A trait definition (only its default-bodied methods matter here).
#[derive(Debug)]
pub struct TraitItem {
    /// Trait name.
    pub name: String,
    /// Declared methods (bodyless ones have `body: None`).
    pub fns: Vec<FnItem>,
}

/// A `{ ... }` block: the flat list of interesting expressions inside,
/// in source order. Control-flow keywords are not modelled — an `if`'s
/// two arms simply contribute their expressions in order, which is the
/// right over-approximation for "may call".
#[derive(Debug, Default)]
pub struct Block {
    /// Expressions in source order.
    pub exprs: Vec<Expr>,
}

/// An expression node the analyses care about.
#[derive(Debug)]
pub enum Expr {
    /// `path::to::f(args)` — a call through a (possibly one-segment) path.
    Call(CallExpr),
    /// `recv.name(args)` — a method call.
    MethodCall(MethodCallExpr),
    /// `name!(...)` / `name![...]` / `name!{...}`.
    Macro(MacroExpr),
    /// `|args| body` / `move |args| body`. Expression-bodied closures
    /// contribute their calls to the *enclosing* scope (documented
    /// approximation); block-bodied ones nest here.
    Closure(ClosureExpr),
    /// A nested `{ ... }` block (loop/if/match bodies and friends).
    Block(Block),
    /// A path used as a value, not called here: `.map(f)`,
    /// `Some(Type::f)`, but also every local variable and constant.
    Ref(RefExpr),
}

/// A path call.
#[derive(Debug)]
pub struct CallExpr {
    /// Path segments, e.g. `["SystemTime", "now"]` or `["helper"]`.
    pub path: Vec<String>,
    /// 1-based line of the call.
    pub line: usize,
    /// `true` when the argument span contains at least one identifier.
    pub args_have_ident: bool,
    /// Nested expressions found inside the argument list.
    pub args: Vec<Expr>,
}

/// A path in value position.
#[derive(Debug)]
pub struct RefExpr {
    /// Path segments, e.g. `["StudyResults", "n_model_evaluations"]`.
    pub path: Vec<String>,
    /// 1-based line.
    pub line: usize,
}

/// A method call.
#[derive(Debug)]
pub struct MethodCallExpr {
    /// Method name.
    pub name: String,
    /// The trailing `ident(.ident)*` chain of the receiver, when the
    /// receiver is such a chain (e.g. `["self", "states"]` for
    /// `self.states.lock()`); empty for computed receivers.
    pub recv: Vec<String>,
    /// 1-based line of the call.
    pub line: usize,
    /// Number of top-level arguments (0 distinguishes `Mutex::lock()`
    /// from `io::Read::read(&mut buf)`).
    pub n_args: usize,
    /// `true` when the argument span contains at least one identifier.
    pub args_have_ident: bool,
    /// Nested expressions found inside the argument list.
    pub args: Vec<Expr>,
}

/// A macro invocation.
#[derive(Debug)]
pub struct MacroExpr {
    /// Macro name without the `!`.
    pub name: String,
    /// 1-based line.
    pub line: usize,
    /// Nested expressions found inside the macro body.
    pub body: Vec<Expr>,
}

/// A closure.
#[derive(Debug)]
pub struct ClosureExpr {
    /// 1-based line of the opening `|`.
    pub line: usize,
    /// The closure body's expressions (block-bodied closures only; an
    /// expression body contributes to the enclosing block instead).
    pub body: Vec<Expr>,
}

impl Block {
    /// Walks every expression in the block (depth-first, source order),
    /// including nested blocks, closures, macro bodies and call
    /// arguments.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Expr)) {
        walk_exprs(&self.exprs, visit);
    }
}

fn walk_exprs<'a>(exprs: &'a [Expr], visit: &mut impl FnMut(&'a Expr)) {
    for expr in exprs {
        visit(expr);
        match expr {
            Expr::Call(c) => walk_exprs(&c.args, visit),
            Expr::MethodCall(m) => walk_exprs(&m.args, visit),
            Expr::Macro(m) => walk_exprs(&m.body, visit),
            Expr::Closure(c) => walk_exprs(&c.body, visit),
            Expr::Block(b) => walk_exprs(&b.exprs, visit),
            Expr::Ref(_) => {}
        }
    }
}

impl File {
    /// Every function in the file with its module path (inline `mod`s
    /// below the file) and owning type (for impl methods), depth-first.
    pub fn functions(&self) -> Vec<FnRef<'_>> {
        let mut out = Vec::new();
        collect_fns(&self.items, &mut Vec::new(), None, false, &mut out);
        out
    }
}

/// A function together with where it sits.
#[derive(Debug)]
pub struct FnRef<'a> {
    /// The function.
    pub item: &'a FnItem,
    /// Inline-module path inside the file (not including the file itself).
    pub modules: Vec<String>,
    /// Impl/trait type name for methods, `None` for free fns.
    pub owner: Option<&'a str>,
    /// True when the fn or an enclosing mod/impl is `#[cfg(test)]`-gated.
    pub in_test: bool,
}

fn collect_fns<'a>(
    items: &'a [Item],
    modules: &mut Vec<String>,
    owner: Option<&'a str>,
    in_test: bool,
    out: &mut Vec<FnRef<'a>>,
) {
    for item in items {
        match item {
            Item::Fn(f) => out.push(FnRef {
                item: f,
                modules: modules.clone(),
                owner,
                in_test: in_test || f.is_test,
            }),
            Item::Mod(m) => {
                modules.push(m.name.clone());
                collect_fns(&m.items, modules, None, in_test || m.cfg_test, out);
                modules.pop();
            }
            Item::Impl(i) => {
                for f in &i.fns {
                    out.push(FnRef {
                        item: f,
                        modules: modules.clone(),
                        owner: Some(&i.type_name),
                        in_test: in_test || i.cfg_test || f.is_test,
                    });
                }
            }
            Item::Trait(t) => {
                for f in &t.fns {
                    out.push(FnRef {
                        item: f,
                        modules: modules.clone(),
                        owner: Some(&t.name),
                        in_test: in_test || f.is_test,
                    });
                }
            }
        }
    }
}
