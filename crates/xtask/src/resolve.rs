//! Workspace symbol resolution for the interprocedural analysis layer.
//!
//! Walks every analyzed file's token tree and collects the *definition
//! index* the call-graph builder resolves against:
//!
//! * **fn items** — free functions, inherent/trait-impl methods and
//!   trait default methods, each with the token range of its body, its
//!   visibility and its enclosing self type. Items under a
//!   definitively-false `#[cfg]` and everything inside `macro_rules!`
//!   bodies are skipped (a macro body is a template, not code).
//! * **impl blocks** — the self type is resolved from the header
//!   (`impl<T> Ring<T>`, `impl Trait for Type`, `impl fmt::Debug for X`
//!   all yield the final type segment), so `self.method()` and
//!   `Self::assoc()` calls resolve precisely.
//! * **struct fields and fn parameters/let bindings** — the *first
//!   significant* type segment (skipping `&`, `mut`, lifetimes and the
//!   transparent wrappers `Arc`/`Rc`/`Box`) is recorded so one-hop
//!   receiver chains like `self.store.probe(..)` or `lane.queue.push(..)`
//!   resolve by receiver type instead of falling back to name matching.
//! * **`use` renames** — `use a::b as c` registers a global alias
//!   `c → b`, so a call through a re-exported rename still reaches the
//!   real definition. Resolution is name-global (no module hygiene):
//!   a deliberate over-approximation, which is sound for reachability.
//!
//! Everything here is *conservative*: when two definitions share a name
//! the resolver keeps all of them as candidates; precision only ever
//! removes edges that provably cannot exist (a receiver typed `Vec`
//! never dispatches into a workspace method).

use std::collections::{HashMap, HashSet};

use crate::lexer::{is_keyword, TokenKind};
use crate::tokentree::{Delim, Tree};
use crate::FileAnalysis;

/// Type names treated as transparent for receiver typing: a method call
/// on `Arc<SpscRing<T>>` dispatches (via auto-deref) into `SpscRing`.
const TRANSPARENT_WRAPPERS: &[&str] = &["Arc", "Rc", "Box"];

/// One collected function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Enclosing impl/trait self type, if any (`None` for free fns).
    pub self_type: Option<String>,
    /// Token index (in the file's token vector) of the name.
    pub name_token: usize,
    /// Token index of the first token of the item (`pub`, `fn`, …) —
    /// the anchor for doc-comment lookups.
    pub first_token: usize,
    /// Unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// Token range `(open, close)` of the body brace group, `None` for
    /// bodyless declarations (trait requirements, extern fns).
    pub body: Option<(usize, usize)>,
    /// Position of the name token, for diagnostics.
    pub line: usize,
    pub col: usize,
    /// Local name → first significant type segment, from typed
    /// parameters and annotated/constructor `let` bindings.
    pub local_types: HashMap<String, String>,
}

impl FnDef {
    /// `Type::name` or the bare name for free fns.
    pub fn display(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One analyzed file plus its workspace-relative path.
#[derive(Debug)]
pub struct FileSyms {
    pub rel: String,
    pub fa: FileAnalysis,
}

/// The resolved workspace: every file's analysis plus the definition
/// indexes the call-graph builder queries.
#[derive(Debug, Default)]
pub struct Workspace {
    pub files: Vec<FileSyms>,
    pub fns: Vec<FnDef>,
    /// Free functions by bare name.
    pub free_by_name: HashMap<String, Vec<usize>>,
    /// Methods by bare name across all self types (conservative pool).
    pub methods_by_name: HashMap<String, Vec<usize>>,
    /// Methods by `(self type, name)`.
    pub methods_by_type: HashMap<(String, String), Vec<usize>>,
    /// `use … as alias` renames: alias → original final segment.
    pub aliases: HashMap<String, String>,
    /// `(struct, field)` → first significant type segment.
    pub field_types: HashMap<(String, String), String>,
    /// Every type-like name defined in the workspace (structs, enums,
    /// traits, impl self types, type aliases).
    pub types: HashSet<String>,
}

impl Workspace {
    /// Add one analyzed file and collect its symbols.
    pub fn add_file(&mut self, rel: &str, fa: FileAnalysis) {
        let file = self.files.len();
        let mut collector = Collector {
            ws: self,
            file,
            fa: &fa,
        };
        collector.scope(&fa.root, None);
        self.files.push(FileSyms {
            rel: rel.to_string(),
            fa,
        });
    }

    /// Follow the rename-alias chain from `name` to a fixpoint
    /// (bounded, so an accidental alias cycle cannot loop).
    pub fn resolve_alias<'a>(&'a self, name: &'a str) -> &'a str {
        let mut current = name;
        for _ in 0..8 {
            match self.aliases.get(current) {
                Some(next) if next != current => current = next,
                _ => break,
            }
        }
        current
    }

    /// Strip transparent wrappers from a receiver type.
    pub fn concrete_type<'a>(&'a self, name: &'a str) -> &'a str {
        // The wrapper strip happens at collection time; here we only
        // chase renames.
        self.resolve_alias(name)
    }
}

/// Token-tree walker collecting definitions for one file.
struct Collector<'a> {
    ws: &'a mut Workspace,
    file: usize,
    fa: &'a FileAnalysis,
}

impl Collector<'_> {
    fn text(&self, tree: &Tree) -> &str {
        match tree {
            Tree::Leaf(i) => self.fa.tokens.get(*i).map_or("", |t| t.text.as_str()),
            Tree::Group(_) => "",
        }
    }

    fn is_exempt(&self, token: usize) -> bool {
        self.fa.exempt.get(token).copied().unwrap_or(false)
    }

    /// Walk one brace scope (or the file root). `self_type` is the
    /// enclosing impl/trait type for method registration.
    fn scope(&mut self, trees: &[Tree], self_type: Option<&str>) {
        let mut pending_pub: Option<bool> = None; // Some(restricted?)
        let mut i = 0;
        while i < trees.len() {
            let tree = &trees[i];
            match tree {
                Tree::Leaf(tok) => {
                    let text = self
                        .fa
                        .tokens
                        .get(*tok)
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    match text.as_str() {
                        "pub" => {
                            pending_pub = Some(false);
                            // `pub(crate)` / `pub(super)`: a paren group
                            // directly after marks the visibility as
                            // restricted.
                            if let Some(Tree::Group(g)) = trees.get(i.saturating_add(1)) {
                                if g.delim == Delim::Paren {
                                    pending_pub = Some(true);
                                    i = i.saturating_add(1);
                                }
                            }
                        }
                        "fn" => {
                            i = self.fn_item(trees, i, *tok, self_type, pending_pub);
                            pending_pub = None;
                        }
                        "impl" => {
                            i = self.impl_item(trees, i);
                            pending_pub = None;
                        }
                        "trait" => {
                            i = self.trait_item(trees, i);
                            pending_pub = None;
                        }
                        "struct" => {
                            i = self.struct_item(trees, i);
                            pending_pub = None;
                        }
                        "enum" | "union" => {
                            self.register_type_after(trees, Some(i.saturating_add(1)));
                            i = self.skip_item_with_body(trees, i);
                            pending_pub = None;
                        }
                        "type" => {
                            // `type Alias = …;` — register the name as a
                            // type; the walker skips to the `;`.
                            self.register_type_after(trees, Some(i.saturating_add(1)));
                            i = skip_to_semi(trees, i, self);
                            pending_pub = None;
                        }
                        "use" => {
                            i = self.use_item(trees, i);
                            pending_pub = None;
                        }
                        "mod" => {
                            // Inline `mod name { … }` — descend (names
                            // are global in this model); `mod name;` — skip.
                            let mut j = i.saturating_add(1);
                            while j < trees.len() {
                                match &trees[j] {
                                    Tree::Group(g) if g.delim == Delim::Brace => {
                                        self.scope(&g.children, None);
                                        break;
                                    }
                                    Tree::Leaf(t)
                                        if self
                                            .fa
                                            .tokens
                                            .get(*t)
                                            .is_some_and(|t| t.text == ";") =>
                                    {
                                        break;
                                    }
                                    _ => j = j.saturating_add(1),
                                }
                            }
                            i = j;
                            pending_pub = None;
                        }
                        "macro_rules" => {
                            // `macro_rules! name { … }` — the body is a
                            // template, never walked.
                            i = self.skip_item_with_body(trees, i);
                            pending_pub = None;
                        }
                        ";" => pending_pub = None,
                        _ => {}
                    }
                }
                Tree::Group(g) => {
                    // A stray brace group at item level (e.g. a block
                    // expression in a body scope we descended into):
                    // walk it for nested items.
                    if g.delim == Delim::Brace {
                        self.scope(&g.children, self_type);
                    }
                }
            }
            i = i.saturating_add(1);
        }
    }

    /// Parse a `fn` item starting at sibling index `i` (the `fn` leaf).
    /// Returns the sibling index of the last consumed tree (body or `;`).
    fn fn_item(
        &mut self,
        trees: &[Tree],
        i: usize,
        fn_tok: usize,
        self_type: Option<&str>,
        pending_pub: Option<bool>,
    ) -> usize {
        // Name is the next leaf identifier.
        let Some(name_tree) = trees.get(i.saturating_add(1)) else {
            return i;
        };
        let Tree::Leaf(name_tok) = name_tree else {
            return i;
        };
        let Some(name) = self.fa.tokens.get(*name_tok).filter(|t| {
            matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) && !is_keyword(&t.text)
        }) else {
            return i;
        };
        let name_text = name.text.trim_start_matches("r#").to_string();
        let (line, col) = (name.line, name.col);
        let name_tok = *name_tok;

        // Scan forward for the parameter list, then the body brace (or a
        // `;` for bodyless declarations). Paren/bracket groups in the
        // signature (params, return types, where clauses) never contain a
        // top-level brace group, so the first brace sibling is the body.
        let mut params: Option<&Tree> = None;
        let mut body: Option<(usize, usize)> = None;
        let mut j = i.saturating_add(2);
        while j < trees.len() {
            match &trees[j] {
                Tree::Group(g) if g.delim == Delim::Paren && params.is_none() => {
                    params = Some(&trees[j]);
                }
                Tree::Group(g) if g.delim == Delim::Brace => {
                    body = Some((g.open, g.close));
                    break;
                }
                Tree::Leaf(t) if self.fa.tokens.get(*t).is_some_and(|t| t.text == ";") => break,
                _ => {}
            }
            j = j.saturating_add(1);
        }

        if !self.is_exempt(fn_tok) {
            let mut local_types = HashMap::new();
            if let Some(Tree::Group(g)) = params {
                self.param_types(&g.children, &mut local_types);
            }
            if body.is_some() {
                if let Some(Tree::Group(g)) = trees.get(j) {
                    self.let_types(&g.children, &mut local_types);
                }
            }
            let id = self.ws.fns.len();
            self.ws.fns.push(FnDef {
                file: self.file,
                name: name_text.clone(),
                self_type: self_type.map(str::to_string),
                name_token: name_tok,
                first_token: fn_tok,
                is_pub: pending_pub == Some(false),
                body,
                line,
                col,
                local_types,
            });
            match self_type {
                Some(t) => {
                    self.ws
                        .methods_by_type
                        .entry((t.to_string(), name_text.clone()))
                        .or_default()
                        .push(id);
                    self.ws
                        .methods_by_name
                        .entry(name_text)
                        .or_default()
                        .push(id);
                }
                None => {
                    self.ws.free_by_name.entry(name_text).or_default().push(id);
                }
            }
        }

        // Walk the body for nested items (nested fns are free fns).
        if let Some(Tree::Group(g)) = trees.get(j) {
            if g.delim == Delim::Brace {
                self.scope_nested_items(&g.children);
            }
        }
        j
    }

    /// Inside fn bodies only nested `fn`/`use` items matter; walking the
    /// full item grammar over expression code would misread `match` arms.
    fn scope_nested_items(&mut self, trees: &[Tree]) {
        let mut i = 0;
        while i < trees.len() {
            match &trees[i] {
                Tree::Leaf(tok) => {
                    let text = self.fa.tokens.get(*tok).map_or("", |t| t.text.as_str());
                    if text == "fn" {
                        i = self.fn_item(trees, i, *tok, None, None);
                    } else if text == "use" {
                        i = self.use_item(trees, i);
                    }
                }
                Tree::Group(g) if g.delim == Delim::Brace => {
                    self.scope_nested_items(&g.children);
                }
                _ => {}
            }
            i = i.saturating_add(1);
        }
    }

    /// Parse an `impl` header and descend into the body with the
    /// resolved self type. Returns the index of the body group.
    fn impl_item(&mut self, trees: &[Tree], i: usize) -> usize {
        let mut depth: i64 = 0;
        let mut last_ident: Option<String> = None;
        let mut j = i.saturating_add(1);
        while j < trees.len() {
            match &trees[j] {
                Tree::Group(g) if g.delim == Delim::Brace => {
                    let self_type = last_ident.clone();
                    self.scope(&g.children, self_type.as_deref());
                    if let Some(t) = self_type {
                        self.ws.types.insert(t);
                    }
                    return j;
                }
                Tree::Leaf(tok) => {
                    let Some(t) = self.fa.tokens.get(*tok) else {
                        j = j.saturating_add(1);
                        continue;
                    };
                    match t.text.as_str() {
                        "<" => depth = depth.saturating_add(1),
                        ">" => depth = depth.saturating_sub(1),
                        "<<" => depth = depth.saturating_add(2),
                        ">>" => depth = depth.saturating_sub(2),
                        "for" if depth == 0 => last_ident = None,
                        "where" if depth == 0 => {
                            // Bounds follow; the type is settled.
                        }
                        text if depth == 0 && t.kind == TokenKind::Ident && !is_keyword(text) => {
                            last_ident = Some(text.to_string());
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
            j = j.saturating_add(1);
        }
        j
    }

    /// `trait Name { … }` — default methods register under the trait
    /// name, so trait-method calls resolve conservatively.
    fn trait_item(&mut self, trees: &[Tree], i: usize) -> usize {
        let name = trees.get(i.saturating_add(1)).and_then(|t| match t {
            Tree::Leaf(tok) => self
                .fa
                .tokens
                .get(*tok)
                .filter(|t| t.kind == TokenKind::Ident && !is_keyword(&t.text))
                .map(|t| t.text.clone()),
            Tree::Group(_) => None,
        });
        let mut j = i.saturating_add(1);
        while j < trees.len() {
            match &trees[j] {
                Tree::Group(g) if g.delim == Delim::Brace => {
                    if let Some(name) = &name {
                        self.ws.types.insert(name.clone());
                    }
                    self.scope(&g.children, name.as_deref());
                    return j;
                }
                Tree::Leaf(tok) if self.fa.tokens.get(*tok).is_some_and(|t| t.text == ";") => {
                    return j;
                }
                _ => j = j.saturating_add(1),
            }
        }
        j
    }

    /// `struct Name { field: Type, … }` — record field types for
    /// receiver-chain resolution.
    fn struct_item(&mut self, trees: &[Tree], i: usize) -> usize {
        let Some(name) = trees.get(i.saturating_add(1)).and_then(|t| match t {
            Tree::Leaf(tok) => self
                .fa
                .tokens
                .get(*tok)
                .filter(|t| t.kind == TokenKind::Ident && !is_keyword(&t.text))
                .map(|t| t.text.clone()),
            Tree::Group(_) => None,
        }) else {
            return i;
        };
        self.ws.types.insert(name.clone());
        let mut j = i.saturating_add(2);
        while j < trees.len() {
            match &trees[j] {
                Tree::Group(g) if g.delim == Delim::Brace => {
                    self.struct_fields(&name, &g.children);
                    return j;
                }
                Tree::Leaf(tok) if self.fa.tokens.get(*tok).is_some_and(|t| t.text == ";") => {
                    return j; // unit or tuple struct
                }
                _ => j = j.saturating_add(1),
            }
        }
        j
    }

    /// Parse `field: Type` pairs from a struct body.
    fn struct_fields(&mut self, struct_name: &str, trees: &[Tree]) {
        let mut i = 0;
        while i < trees.len() {
            // Skip attributes (`#` + bracket group) and visibility.
            match &trees[i] {
                Tree::Leaf(tok) => {
                    let text = self.fa.tokens.get(*tok).map_or("", |t| t.text.as_str());
                    if text == "#" || text == "pub" {
                        i = i.saturating_add(1);
                        continue;
                    }
                    let is_field_name = self
                        .fa
                        .tokens
                        .get(*tok)
                        .is_some_and(|t| t.kind == TokenKind::Ident && !is_keyword(&t.text))
                        && matches!(trees.get(i.saturating_add(1)), Some(t) if self.text(t) == ":");
                    if is_field_name {
                        let field = self
                            .fa
                            .tokens
                            .get(*tok)
                            .map(|t| t.text.clone())
                            .unwrap_or_default();
                        // Type = first significant ident until a
                        // top-level comma.
                        let mut depth: i64 = 0;
                        let mut ty: Option<String> = None;
                        let mut j = i.saturating_add(2);
                        while j < trees.len() {
                            match &trees[j] {
                                Tree::Leaf(t2) => {
                                    let Some(t) = self.fa.tokens.get(*t2) else {
                                        break;
                                    };
                                    match t.text.as_str() {
                                        "<" => depth = depth.saturating_add(1),
                                        ">" => depth = depth.saturating_sub(1),
                                        "<<" => depth = depth.saturating_add(2),
                                        ">>" => depth = depth.saturating_sub(2),
                                        "," if depth <= 0 => break,
                                        text if t.kind == TokenKind::Ident
                                            && !is_keyword(text)
                                            && ty.is_none()
                                            && !TRANSPARENT_WRAPPERS.contains(&text) =>
                                        {
                                            ty = Some(text.to_string());
                                        }
                                        _ => {}
                                    }
                                }
                                Tree::Group(_) => {
                                    // `[T; N]`, `(A, B)`, `dyn Fn(..)` —
                                    // composite types yield no usable
                                    // receiver type.
                                    if ty.is_none() {
                                        ty = Some(String::new());
                                    }
                                }
                            }
                            j = j.saturating_add(1);
                        }
                        if let Some(ty) = ty.filter(|t| !t.is_empty()) {
                            self.ws
                                .field_types
                                .insert((struct_name.to_string(), field), ty);
                        }
                        i = j;
                        continue;
                    }
                }
                Tree::Group(_) => {}
            }
            i = i.saturating_add(1);
        }
    }

    /// Parameter types from a fn's paren group: `name: Type` pairs.
    fn param_types(&self, trees: &[Tree], out: &mut HashMap<String, String>) {
        let mut i = 0;
        while i < trees.len() {
            let is_name = matches!(&trees[i], Tree::Leaf(tok) if self
                .fa
                .tokens
                .get(*tok)
                .is_some_and(|t| t.kind == TokenKind::Ident && !is_keyword(&t.text)))
                && matches!(trees.get(i.saturating_add(1)), Some(t) if self.text(t) == ":");
            if is_name {
                let Tree::Leaf(tok) = &trees[i] else {
                    i = i.saturating_add(1);
                    continue;
                };
                let name = self
                    .fa
                    .tokens
                    .get(*tok)
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                let mut depth: i64 = 0;
                let mut ty: Option<String> = None;
                let mut j = i.saturating_add(2);
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Leaf(t2) => {
                            let Some(t) = self.fa.tokens.get(*t2) else {
                                break;
                            };
                            match t.text.as_str() {
                                "<" => depth = depth.saturating_add(1),
                                ">" => depth = depth.saturating_sub(1),
                                "<<" => depth = depth.saturating_add(2),
                                ">>" => depth = depth.saturating_sub(2),
                                "," if depth <= 0 => break,
                                text if t.kind == TokenKind::Ident
                                    && !is_keyword(text)
                                    && ty.is_none()
                                    && !TRANSPARENT_WRAPPERS.contains(&text) =>
                                {
                                    ty = Some(text.to_string());
                                }
                                _ => {}
                            }
                        }
                        Tree::Group(_) => {
                            if ty.is_none() {
                                ty = Some(String::new());
                            }
                        }
                    }
                    j = j.saturating_add(1);
                }
                if let Some(ty) = ty.filter(|t| !t.is_empty()) {
                    out.insert(name, ty);
                }
                i = j;
                continue;
            }
            i = i.saturating_add(1);
        }
    }

    /// `let` binding types from a fn body (recursing into nested
    /// blocks): `let x: Type = …` and `let x = Type::ctor(…)`.
    fn let_types(&self, trees: &[Tree], out: &mut HashMap<String, String>) {
        let mut i = 0;
        while i < trees.len() {
            match &trees[i] {
                Tree::Group(g) if g.delim == Delim::Brace => self.let_types(&g.children, out),
                Tree::Leaf(tok) if self.fa.tokens.get(*tok).is_some_and(|t| t.text == "let") => {
                    let mut j = i.saturating_add(1);
                    if matches!(trees.get(j), Some(t) if self.text(t) == "mut") {
                        j = j.saturating_add(1);
                    }
                    let Some(Tree::Leaf(name_tok)) = trees.get(j) else {
                        i = i.saturating_add(1);
                        continue;
                    };
                    let Some(name) = self
                        .fa
                        .tokens
                        .get(*name_tok)
                        .filter(|t| t.kind == TokenKind::Ident && !is_keyword(&t.text))
                        .map(|t| t.text.clone())
                    else {
                        i = i.saturating_add(1);
                        continue;
                    };
                    match self.text(trees.get(j.saturating_add(1)).unwrap_or(&trees[j])) {
                        ":" => {
                            // Annotated: first significant ident of the
                            // type, stopping at `=` or `;`.
                            let mut ty: Option<String> = None;
                            let mut k = j.saturating_add(2);
                            while k < trees.len() {
                                match &trees[k] {
                                    Tree::Leaf(t2) => {
                                        let Some(t) = self.fa.tokens.get(*t2) else {
                                            break;
                                        };
                                        match t.text.as_str() {
                                            "=" | ";" => break,
                                            text if t.kind == TokenKind::Ident
                                                && !is_keyword(text)
                                                && ty.is_none()
                                                && !TRANSPARENT_WRAPPERS.contains(&text) =>
                                            {
                                                ty = Some(text.to_string());
                                            }
                                            _ => {}
                                        }
                                    }
                                    Tree::Group(_) => {
                                        if ty.is_none() {
                                            ty = Some(String::new());
                                        }
                                    }
                                }
                                k = k.saturating_add(1);
                            }
                            if let Some(ty) = ty.filter(|t| !t.is_empty()) {
                                out.insert(name, ty);
                            }
                        }
                        "=" => {
                            // Constructor inference: `let x = Type::…`.
                            if let Some(Tree::Leaf(t2)) = trees.get(j.saturating_add(2)) {
                                let is_ctor_path = self.fa.tokens.get(*t2).is_some_and(|t| {
                                    t.kind == TokenKind::Ident
                                        && t.text.chars().next().is_some_and(char::is_uppercase)
                                }) && matches!(
                                    trees.get(j.saturating_add(3)),
                                    Some(t) if self.text(t) == "::"
                                );
                                if is_ctor_path {
                                    if let Some(t) = self.fa.tokens.get(*t2) {
                                        out.insert(name, t.text.clone());
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
            i = i.saturating_add(1);
        }
    }

    /// `use path::to::{a, b as c};` — register every `as` rename.
    /// Returns the index of the terminating `;`.
    fn use_item(&mut self, trees: &[Tree], i: usize) -> usize {
        let mut j = i.saturating_add(1);
        let mut last_seg: Option<String> = None;
        let mut pending_as = false;
        while j < trees.len() {
            match &trees[j] {
                Tree::Leaf(tok) => {
                    let Some(t) = self.fa.tokens.get(*tok) else {
                        j = j.saturating_add(1);
                        continue;
                    };
                    match t.text.as_str() {
                        ";" => return j,
                        "as" => pending_as = true,
                        "," => {
                            last_seg = None;
                            pending_as = false;
                        }
                        text if matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent)
                            && !is_keyword(text) =>
                        {
                            let text = text.trim_start_matches("r#").to_string();
                            if pending_as {
                                if let Some(orig) = last_seg.take() {
                                    if text != "_" {
                                        self.ws.aliases.insert(text, orig);
                                    }
                                }
                                pending_as = false;
                            } else {
                                last_seg = Some(text);
                            }
                        }
                        _ => {}
                    }
                }
                Tree::Group(g) if g.delim == Delim::Brace => {
                    // `{a, b as c}` — each element resolves its own
                    // final segment; recurse with the same machinery.
                    self.use_group(&g.children);
                }
                _ => {}
            }
            j = j.saturating_add(1);
        }
        j
    }

    fn use_group(&mut self, trees: &[Tree]) {
        let mut last_seg: Option<String> = None;
        let mut pending_as = false;
        for tree in trees {
            match tree {
                Tree::Leaf(tok) => {
                    let Some(t) = self.fa.tokens.get(*tok) else {
                        continue;
                    };
                    match t.text.as_str() {
                        "as" => pending_as = true,
                        "," => {
                            last_seg = None;
                            pending_as = false;
                        }
                        text if matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent)
                            && !is_keyword(text) =>
                        {
                            let text = text.trim_start_matches("r#").to_string();
                            if pending_as {
                                if let Some(orig) = last_seg.take() {
                                    if text != "_" {
                                        self.ws.aliases.insert(text, orig);
                                    }
                                }
                                pending_as = false;
                            } else {
                                last_seg = Some(text);
                            }
                        }
                        _ => {}
                    }
                }
                Tree::Group(g) if g.delim == Delim::Brace => self.use_group(&g.children),
                _ => {}
            }
        }
    }

    /// Skip an item of the form `kw name … { … }` (enum, union,
    /// macro_rules). Returns the index of the body group.
    fn skip_item_with_body(&mut self, trees: &[Tree], i: usize) -> usize {
        let mut j = i.saturating_add(1);
        while j < trees.len() {
            match &trees[j] {
                Tree::Group(g) if g.delim == Delim::Brace => return j,
                Tree::Leaf(tok) if self.fa.tokens.get(*tok).is_some_and(|t| t.text == ";") => {
                    return j;
                }
                _ => j = j.saturating_add(1),
            }
        }
        j
    }

    /// Register the identifier at sibling index `at` as a type name.
    fn register_type_after(&mut self, trees: &[Tree], at: Option<usize>) {
        if let Some(Tree::Leaf(tok)) = at.and_then(|at| trees.get(at)) {
            if let Some(t) = self
                .fa
                .tokens
                .get(*tok)
                .filter(|t| t.kind == TokenKind::Ident && !is_keyword(&t.text))
            {
                self.ws.types.insert(t.text.clone());
            }
        }
    }
}

/// Skip to the `;` terminating a simple item.
fn skip_to_semi(trees: &[Tree], i: usize, c: &Collector<'_>) -> usize {
    let mut j = i.saturating_add(1);
    while j < trees.len() {
        if let Tree::Leaf(tok) = &trees[j] {
            if c.fa.tokens.get(*tok).is_some_and(|t| t.text == ";") {
                return j;
            }
        }
        j = j.saturating_add(1);
    }
    j
}
