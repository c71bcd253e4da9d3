//! A lightweight item parser over the token stream: per-file trees of
//! structs (with named fields), enums, impl blocks (trait + self type),
//! and fns (name + body token range).
//!
//! This is *not* a Rust parser — it recognizes just enough item structure
//! for the workspace-consistency passes (snapshot-completeness,
//! metrics-merge-completeness) to resolve "which struct does
//! this impl serialize" and "which tokens are inside this fn's body". It
//! must never panic and must degrade gracefully on malformed input: an
//! unparsable construct yields no item (the surrounding items still
//! parse), never an error. Conservative failure is safe because every
//! consumer treats "item not found" as "skip the check".

use crate::lexer::TokKind;
use crate::source::SourceFile;

/// What kind of item a node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `struct Name { fields }` / tuple / unit struct.
    Struct,
    /// `enum Name { … }`.
    Enum,
    /// `union Name { … }`.
    Union,
    /// `trait Name { … }` — children are its member fns.
    Trait,
    /// `impl [Trait for] Type { … }` — children are its member fns.
    Impl,
    /// `fn name(…) { … }` — `body` is the sig-index range of the body.
    Fn,
    /// `mod name { … }` — children are the contained items.
    Mod,
    /// `type Name = …;`
    TypeAlias,
    /// `const NAME: … = …;` / `static NAME: … = …;`
    Const,
    /// `macro_rules! name { … }` — body deliberately not descended into.
    MacroDef,
    /// `use …;` / `extern crate …;` — anonymous.
    Use,
}

/// One named field of a struct (or union).
#[derive(Clone, Debug)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Declared with a visibility (`pub`, `pub(crate)`, …).
    pub is_pub: bool,
    /// 1-based line of the field name.
    pub line: u32,
    /// 1-based column of the field name.
    pub col: u32,
}

/// One parsed item.
#[derive(Clone, Debug)]
pub struct Item {
    /// Kind tag.
    pub kind: ItemKind,
    /// Item name; empty for impl blocks and `use` items.
    pub name: String,
    /// Declared with a visibility (`pub`, `pub(crate)`, …).
    pub is_pub: bool,
    /// For impls: last path segment of the implemented trait, if any
    /// (`Persist` in `impl snapshot::Persist for Acc`).
    pub impl_trait: Option<String>,
    /// For impls: last depth-0 ident of the self type (`Acc` above,
    /// `Vec` in `impl<T> Persist for Vec<T>`).
    pub impl_self: Option<String>,
    /// Named fields (structs/unions with brace bodies only).
    pub fields: Vec<FieldDef>,
    /// 1-based line of the introducing keyword.
    pub line: u32,
    /// 1-based column of the introducing keyword.
    pub col: u32,
    /// Byte span start (first token of the item, attributes included).
    pub start: usize,
    /// Byte span end (one past the item's last token).
    pub end: usize,
    /// For fns with bodies: sig-index range `[open+1, close)` of the body
    /// tokens (outer braces excluded).
    pub body: Option<(usize, usize)>,
    /// Contained items (mods, traits, impls).
    pub children: Vec<Item>,
}

/// Parse a file's item tree.
pub fn parse_items(file: &SourceFile) -> Vec<Item> {
    let mut p = Parser { f: file, n: 0 };
    p.container_body(file.sig.len())
}

struct Parser<'a> {
    f: &'a SourceFile,
    /// Cursor: position in the file's significant-token list.
    n: usize,
}

impl<'a> Parser<'a> {
    fn tok(&self, n: usize) -> Option<&crate::lexer::Token> {
        self.f.sig_tok(n)
    }

    fn is_punct(&self, n: usize, p: u8) -> bool {
        self.f.sig_is_punct(n, p)
    }

    fn is_ident(&self, n: usize, s: &str) -> bool {
        self.f.sig_is_ident(n, s)
    }

    fn ident_text(&self, n: usize) -> Option<&str> {
        self.tok(n).and_then(|t| {
            if t.kind == TokKind::Ident {
                Some(t.text(&self.f.text))
            } else {
                None
            }
        })
    }

    /// Byte offset one past the token at sig position `n` (or file end).
    fn end_byte(&self, n: usize) -> usize {
        self.tok(n).map_or(self.f.text.len(), |t| t.end)
    }

    /// Token kind at the cursor, bounded by the enclosing container: a
    /// malformed item may never scan past its parent's close brace.
    fn bounded_kind(&self, end: usize) -> Option<TokKind> {
        if self.n >= end {
            None
        } else {
            self.tok(self.n).map(|t| t.kind)
        }
    }

    /// Parse items until `end` (exclusive sig position). Non-item tokens
    /// are skipped one at a time, so progress is guaranteed.
    fn container_body(&mut self, end: usize) -> Vec<Item> {
        let mut items = vec![];
        while self.n < end {
            let save = self.n;
            if let Some(item) = self.try_item(end) {
                items.push(item);
            }
            if self.n <= save {
                self.n = save + 1;
            }
        }
        self.n = end;
        items
    }

    /// Skip `#[…]` / `#![…]` attributes starting at the cursor.
    fn skip_attrs(&mut self, end: usize) {
        loop {
            if !self.is_punct(self.n, b'#') || self.n >= end {
                return;
            }
            let mut m = self.n + 1;
            if self.is_punct(m, b'!') {
                m += 1;
            }
            if !self.is_punct(m, b'[') {
                return;
            }
            let mut depth = 0usize;
            while m < end {
                if self.is_punct(m, b'[') {
                    depth += 1;
                } else if self.is_punct(m, b']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                m += 1;
            }
            self.n = (m + 1).min(end);
        }
    }

    /// Skip `pub` / `pub(crate)` / `pub(in path)` visibility.
    fn skip_visibility(&mut self, end: usize) {
        if !self.is_ident(self.n, "pub") {
            return;
        }
        self.n += 1;
        if self.is_punct(self.n, b'(') {
            let mut depth = 0usize;
            let mut m = self.n;
            while m < end {
                if self.is_punct(m, b'(') {
                    depth += 1;
                } else if self.is_punct(m, b')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                m += 1;
            }
            self.n = (m + 1).min(end);
        }
    }

    /// Skip a `<…>` generics list at the cursor, if present.
    fn skip_generics(&mut self, end: usize) {
        if !self.is_punct(self.n, b'<') {
            return;
        }
        let mut depth = 0usize;
        let mut m = self.n;
        while m < end {
            if self.is_punct(m, b'<') {
                depth += 1;
            } else if self.is_punct(m, b'>') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            m += 1;
        }
        self.n = (m + 1).min(end);
    }

    /// From an opening brace at sig position `open`, the matching close
    /// (or the last in-range position when unbalanced).
    fn matching_brace(&self, open: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut m = open;
        while m < end {
            if self.is_punct(m, b'{') {
                depth += 1;
            } else if self.is_punct(m, b'}') {
                depth -= 1;
                if depth == 0 {
                    return m;
                }
            }
            m += 1;
        }
        end.saturating_sub(1)
    }

    /// Advance to the terminating `;` of a brace-free-at-depth-0 item
    /// (use/const/static/type), tracking all three bracket kinds so
    /// `const X: Foo = Foo { a: [1; 2] };` terminates correctly.
    fn skip_to_semi(&mut self, end: usize) {
        let mut depth = 0usize;
        while self.n < end {
            match self.tok(self.n).map(|t| t.kind) {
                Some(TokKind::Punct(b'{' | b'(' | b'[')) => depth += 1,
                Some(TokKind::Punct(b'}' | b')' | b']')) => {
                    depth = depth.saturating_sub(1)
                }
                Some(TokKind::Punct(b';')) if depth == 0 => {
                    self.n += 1;
                    return;
                }
                _ => {}
            }
            self.n += 1;
        }
    }

    /// Try to parse one item at the cursor. On success the cursor is past
    /// the item; on failure the caller restores it.
    fn try_item(&mut self, end: usize) -> Option<Item> {
        let start_byte = self.tok(self.n).map(|t| t.start)?;
        self.skip_attrs(end);
        let is_pub = self.is_ident(self.n, "pub");
        self.skip_visibility(end);
        // Fn qualifiers; a `const` followed by another qualifier or `fn`
        // is a qualifier, otherwise it introduces a const item.
        loop {
            let cur = self.ident_text(self.n);
            match cur {
                Some("unsafe") | Some("async") => self.n += 1,
                Some("default") if self.is_ident(self.n + 1, "fn") => self.n += 1,
                Some("extern")
                    if self
                        .tok(self.n + 1)
                        .is_some_and(|t| t.kind == TokKind::Str) =>
                {
                    self.n += 2
                }
                Some("const")
                    if matches!(
                        self.ident_text(self.n + 1),
                        Some("fn") | Some("unsafe") | Some("async") | Some("extern")
                    ) =>
                {
                    self.n += 1
                }
                _ => break,
            }
        }
        let kw_tok = self.tok(self.n)?;
        let (line, col) = (kw_tok.line, kw_tok.col);
        let kw = self.ident_text(self.n)?;
        let mut item = match kw {
            "struct" | "union" => self.named_type(
                if kw == "struct" {
                    ItemKind::Struct
                } else {
                    ItemKind::Union
                },
                start_byte,
                line,
                col,
                end,
            ),
            "enum" => self.braced_type(ItemKind::Enum, start_byte, line, col, end),
            "trait" | "mod" => self.container(
                if kw == "trait" {
                    ItemKind::Trait
                } else {
                    ItemKind::Mod
                },
                start_byte,
                line,
                col,
                end,
            ),
            "impl" => self.impl_block(start_byte, line, col, end),
            "fn" => self.fn_item(start_byte, line, col, end),
            "type" => {
                self.n += 1;
                let name = self.ident_text(self.n)?.to_string();
                self.skip_to_semi(end);
                Some(self.leaf(ItemKind::TypeAlias, name, start_byte, line, col))
            }
            "const" | "static" => {
                self.n += 1;
                if self.is_ident(self.n, "mut") {
                    self.n += 1;
                }
                let name = self.ident_text(self.n)?.to_string();
                self.skip_to_semi(end);
                Some(self.leaf(ItemKind::Const, name, start_byte, line, col))
            }
            "use" | "extern" => {
                self.n += 1;
                self.skip_to_semi(end);
                Some(self.leaf(ItemKind::Use, String::new(), start_byte, line, col))
            }
            "macro_rules" => {
                // `macro_rules ! name { … }` — the body is free-form token
                // soup; never descend into it.
                if !self.is_punct(self.n + 1, b'!') {
                    return None;
                }
                let name = self.ident_text(self.n + 2)?.to_string();
                self.n += 3;
                let open = self.n;
                if !self.is_punct(open, b'{') {
                    self.skip_to_semi(end);
                    return Some(self.leaf(ItemKind::MacroDef, name, start_byte, line, col));
                }
                let close = self.matching_brace(open, end);
                self.n = (close + 1).min(end);
                Some(Item {
                    kind: ItemKind::MacroDef,
                    name,
                    is_pub: false,
                    impl_trait: None,
                    impl_self: None,
                    fields: vec![],
                    line,
                    col,
                    start: start_byte,
                    end: self.end_byte(close),
                    body: None,
                    children: vec![],
                })
            }
            _ => None,
        }?;
        item.is_pub = is_pub;
        Some(item)
    }

    fn leaf(
        &self,
        kind: ItemKind,
        name: String,
        start: usize,
        line: u32,
        col: u32,
    ) -> Item {
        Item {
            kind,
            name,
            is_pub: false,
            impl_trait: None,
            impl_self: None,
            fields: vec![],
            line,
            col,
            start,
            end: self.end_byte(self.n.saturating_sub(1)),
            body: None,
            children: vec![],
        }
    }

    /// `struct` / `union`: unit (`;`), tuple (`(…);`), or named fields.
    fn named_type(
        &mut self,
        kind: ItemKind,
        start: usize,
        line: u32,
        col: u32,
        end: usize,
    ) -> Option<Item> {
        self.n += 1;
        let name = self.ident_text(self.n)?.to_string();
        self.n += 1;
        self.skip_generics(end);
        // Scan to the struct's shape marker: `;`, `(`, or `{` (a where
        // clause may intervene; it contains no braces of its own).
        let mut fields = vec![];
        let last;
        loop {
            match self.bounded_kind(end) {
                None => {
                    last = self.n.saturating_sub(1);
                    break;
                }
                Some(TokKind::Punct(b';')) => {
                    last = self.n;
                    self.n += 1;
                    break;
                }
                Some(TokKind::Punct(b'(')) => {
                    // Tuple struct: skip the parens, then the trailing `;`.
                    let mut depth = 0usize;
                    while self.n < end {
                        if self.is_punct(self.n, b'(') {
                            depth += 1;
                        } else if self.is_punct(self.n, b')') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        self.n += 1;
                    }
                    self.n += 1;
                    self.skip_to_semi(end);
                    last = self.n.saturating_sub(1);
                    break;
                }
                Some(TokKind::Punct(b'{')) => {
                    let open = self.n;
                    let close = self.matching_brace(open, end);
                    fields = self.named_fields(open + 1, close);
                    self.n = (close + 1).min(end);
                    last = close;
                    break;
                }
                _ => self.n += 1,
            }
        }
        Some(Item {
            kind,
            name,
            is_pub: false,
            impl_trait: None,
            impl_self: None,
            fields,
            line,
            col,
            start,
            end: self.end_byte(last),
            body: None,
            children: vec![],
        })
    }

    /// Named fields between `open+1` and `close`: at depth 0, each
    /// `[attrs] [vis] name :` starts a field; its type runs to the next
    /// depth-0 `,`.
    fn named_fields(&mut self, open: usize, close: usize) -> Vec<FieldDef> {
        let mut out = vec![];
        let save = self.n;
        self.n = open;
        while self.n < close {
            self.skip_attrs(close);
            let is_pub = self.is_ident(self.n, "pub");
            self.skip_visibility(close);
            let at_field = self
                .ident_text(self.n)
                .is_some()
                .then(|| self.is_punct(self.n + 1, b':'))
                == Some(true);
            if at_field {
                if let (Some(t), Some(name)) = (self.tok(self.n), self.ident_text(self.n)) {
                    out.push(FieldDef {
                        name: name.to_string(),
                        is_pub,
                        line: t.line,
                        col: t.col,
                    });
                }
            }
            // Skip to the next depth-0 comma (the field separator).
            let mut depth = 0usize;
            while self.n < close {
                match self.tok(self.n).map(|t| t.kind) {
                    Some(TokKind::Punct(b'{' | b'(' | b'[' | b'<')) => depth += 1,
                    Some(TokKind::Punct(b'}' | b')' | b']' | b'>')) => {
                        depth = depth.saturating_sub(1)
                    }
                    Some(TokKind::Punct(b',')) if depth == 0 => {
                        self.n += 1;
                        break;
                    }
                    _ => {}
                }
                self.n += 1;
            }
        }
        self.n = save;
        out
    }

    /// `enum`: name, skip to the brace body, do not model variants.
    fn braced_type(
        &mut self,
        kind: ItemKind,
        start: usize,
        line: u32,
        col: u32,
        end: usize,
    ) -> Option<Item> {
        self.n += 1;
        let name = self.ident_text(self.n)?.to_string();
        self.n += 1;
        self.skip_generics(end);
        let last = loop {
            match self.bounded_kind(end) {
                None => break self.n.saturating_sub(1),
                Some(TokKind::Punct(b';')) => {
                    self.n += 1;
                    break self.n - 1;
                }
                Some(TokKind::Punct(b'{')) => {
                    let close = self.matching_brace(self.n, end);
                    self.n = (close + 1).min(end);
                    break close;
                }
                _ => self.n += 1,
            }
        };
        Some(Item {
            kind,
            name,
            is_pub: false,
            impl_trait: None,
            impl_self: None,
            fields: vec![],
            line,
            col,
            start,
            end: self.end_byte(last),
            body: None,
            children: vec![],
        })
    }

    /// `trait Name { … }` / `mod name { … }`: children parsed recursively.
    fn container(
        &mut self,
        kind: ItemKind,
        start: usize,
        line: u32,
        col: u32,
        end: usize,
    ) -> Option<Item> {
        self.n += 1;
        let name = self.ident_text(self.n)?.to_string();
        self.n += 1;
        self.skip_generics(end);
        // To the body `{` or an out-lined `;` (supertraits / where clauses
        // may intervene).
        let mut children = vec![];
        let last = loop {
            match self.bounded_kind(end) {
                None => break self.n.saturating_sub(1),
                Some(TokKind::Punct(b';')) => {
                    self.n += 1;
                    break self.n - 1;
                }
                Some(TokKind::Punct(b'{')) => {
                    let open = self.n;
                    let close = self.matching_brace(open, end);
                    self.n = open + 1;
                    children = self.container_body(close);
                    self.n = (close + 1).min(end);
                    break close;
                }
                _ => self.n += 1,
            }
        };
        Some(Item {
            kind,
            name,
            is_pub: false,
            impl_trait: None,
            impl_self: None,
            fields: vec![],
            line,
            col,
            start,
            end: self.end_byte(last),
            body: None,
            children,
        })
    }

    /// `impl [<…>] [!] TraitPath for SelfType { … }` or an inherent
    /// `impl [<…>] SelfType { … }`. For both paths only the last ident at
    /// bracket-depth 0 is kept — `snapshot::Persist` → `Persist`,
    /// `Vec<T>` → `Vec`, `&mut [T]` → none.
    fn impl_block(
        &mut self,
        start: usize,
        line: u32,
        col: u32,
        end: usize,
    ) -> Option<Item> {
        self.n += 1;
        self.skip_generics(end);
        if self.is_punct(self.n, b'!') {
            self.n += 1;
        }
        let mut first: Option<String> = None;
        let mut second: Option<String> = None;
        let mut saw_for = false;
        let mut depth = 0usize;
        let open = loop {
            let Some(t) = self.tok(self.n) else {
                return None;
            };
            if self.n >= end {
                return None;
            }
            match t.kind {
                TokKind::Punct(b'<' | b'(' | b'[') => depth += 1,
                TokKind::Punct(b'>' | b')' | b']') => depth = depth.saturating_sub(1),
                TokKind::Punct(b'{') if depth == 0 => break self.n,
                TokKind::Ident if depth == 0 => {
                    let s = t.text(&self.f.text);
                    if s == "for" && !saw_for {
                        saw_for = true;
                    } else if s == "where" {
                        // Type grammar ends here; scan on to the `{`.
                    } else if !matches!(s, "dyn" | "mut" | "where") {
                        let slot = if saw_for { &mut second } else { &mut first };
                        *slot = Some(s.to_string());
                    }
                }
                _ => {}
            }
            self.n += 1;
        };
        let (impl_trait, impl_self) = if saw_for {
            (first, second)
        } else {
            (None, first)
        };
        let close = self.matching_brace(open, end);
        self.n = open + 1;
        let children = self.container_body(close);
        self.n = (close + 1).min(end);
        Some(Item {
            kind: ItemKind::Impl,
            name: String::new(),
            is_pub: false,
            impl_trait,
            impl_self,
            fields: vec![],
            line,
            col,
            start,
            end: self.end_byte(close),
            body: None,
            children,
        })
    }

    /// `fn name [<…>] ( … ) [-> …] [where …] { body }` (or `;` for a
    /// trait-method declaration).
    fn fn_item(
        &mut self,
        start: usize,
        line: u32,
        col: u32,
        end: usize,
    ) -> Option<Item> {
        self.n += 1;
        let name = self.ident_text(self.n)?.to_string();
        self.n += 1;
        self.skip_generics(end);
        // Parameter list.
        if self.is_punct(self.n, b'(') {
            let mut depth = 0usize;
            while self.n < end {
                if self.is_punct(self.n, b'(') {
                    depth += 1;
                } else if self.is_punct(self.n, b')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                self.n += 1;
            }
            self.n += 1;
        }
        // Return type / where clause, to the body `{` or a `;`. The only
        // braces that can appear before the body belong to bracketed
        // constructs already at depth > 0 (e.g. `-> [u8; { N }]`).
        let mut depth = 0usize;
        let (body, last) = loop {
            match self.bounded_kind(end) {
                None => break (None, self.n.saturating_sub(1)),
                Some(TokKind::Punct(b'(' | b'[' | b'<')) => {
                    depth += 1;
                    self.n += 1;
                }
                Some(TokKind::Punct(b')' | b']' | b'>')) => {
                    depth = depth.saturating_sub(1);
                    self.n += 1;
                }
                Some(TokKind::Punct(b';')) if depth == 0 => {
                    self.n += 1;
                    break (None, self.n - 1);
                }
                Some(TokKind::Punct(b'{')) if depth == 0 => {
                    let open = self.n;
                    let close = self.matching_brace(open, end);
                    self.n = (close + 1).min(end);
                    break (Some((open + 1, close)), close);
                }
                _ => self.n += 1,
            }
        };
        Some(Item {
            kind: ItemKind::Fn,
            name,
            is_pub: false,
            impl_trait: None,
            impl_self: None,
            fields: vec![],
            line,
            col,
            start,
            end: self.end_byte(last),
            body,
            children: vec![],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<Item> {
        parse_items(&SourceFile::parse("crates/x/src/lib.rs", src.to_string()))
    }

    fn find<'a>(items: &'a [Item], name: &str) -> &'a Item {
        items
            .iter()
            .find(|i| i.name == name)
            .unwrap_or_else(|| panic!("no item `{name}` in {items:?}"))
    }

    #[test]
    fn struct_fields_are_collected_with_positions() {
        let src = "pub struct Acc {\n    pub cpu_busy_us: u64,\n    #[allow(dead_code)]\n    net: Vec<(u32, u64)>,\n    pub shed_by_tier: [u64; 4],\n}\n";
        let items = parse(src);
        let s = find(&items, "Acc");
        assert_eq!(s.kind, ItemKind::Struct);
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["cpu_busy_us", "net", "shed_by_tier"]);
        assert_eq!(s.fields[0].line, 2);
    }

    #[test]
    fn tuple_and_unit_structs_have_no_named_fields() {
        let items = parse("struct T(u64, u32);\nstruct U;\nstruct W<T> where T: Copy { a: T }\n");
        assert!(find(&items, "T").fields.is_empty());
        assert!(find(&items, "U").fields.is_empty());
        assert_eq!(find(&items, "W").fields.len(), 1);
    }

    #[test]
    fn impl_trait_and_self_type_resolve_to_last_segment() {
        let src = "impl snapshot::Persist for model::Acc { fn save(&self) {} }\n\
                   impl<T: Persist> Persist for Vec<T> { }\n\
                   impl Acc { fn add(&mut self) { self.x += 1; } }\n";
        let items = parse(src);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].impl_trait.as_deref(), Some("Persist"));
        assert_eq!(items[0].impl_self.as_deref(), Some("Acc"));
        assert_eq!(items[1].impl_trait.as_deref(), Some("Persist"));
        assert_eq!(items[1].impl_self.as_deref(), Some("Vec"));
        assert_eq!(items[2].impl_trait, None);
        assert_eq!(items[2].impl_self.as_deref(), Some("Acc"));
        assert_eq!(items[2].children.len(), 1);
        assert_eq!(items[2].children[0].name, "add");
    }

    #[test]
    fn fn_bodies_are_sig_ranges_excluding_braces() {
        let src = "fn f(x: u64) -> u64 { let y = x + 1; y }\nfn decl();\n";
        let items = parse(src);
        let f = find(&items, "f");
        let (lo, hi) = f.body.expect("f has a body");
        assert!(lo < hi);
        assert_eq!(find(&items, "decl").body, None);
    }

    #[test]
    fn mods_nest_and_spans_are_ordered_and_nested() {
        let src = "mod outer {\n    struct In { a: u8 }\n    mod inner { fn g() {} }\n}\nfn after() {}\n";
        let items = parse(src);
        let outer = find(&items, "outer");
        assert_eq!(outer.children.len(), 2);
        let inner = find(&outer.children, "inner");
        assert_eq!(inner.children[0].name, "g");
        // Nesting: children inside parent span; siblings ordered.
        for c in &outer.children {
            assert!(c.start >= outer.start && c.end <= outer.end);
        }
        let after = find(&items, "after");
        assert!(after.start >= outer.end);
    }

    #[test]
    fn malformed_input_degrades_without_panicking() {
        for src in [
            "struct",
            "struct {",
            "impl {{{",
            "fn ) ( }",
            "struct S { a: , , }",
            "impl for for for {}",
            "mod m { struct T { x: u8 }",
            "#[derive(]) struct Q { b: u8 }",
        ] {
            let _ = parse(src);
        }
        // A malformed item does not eat its well-formed successor.
        let items = parse("struct ;;; struct Ok { a: u8 }\n");
        assert_eq!(find(&items, "Ok").fields.len(), 1);
    }

    #[test]
    fn visibility_and_use_items_are_recorded() {
        let src = "pub fn a() {}\nfn b() {}\npub(crate) struct C;\n\
                   pub use x::y;\nuse z::w;\nimpl C { pub fn m() {} fn p() {} }\n";
        let items = parse(src);
        assert!(find(&items, "a").is_pub);
        assert!(!find(&items, "b").is_pub);
        assert!(find(&items, "C").is_pub);
        let uses: Vec<bool> = items
            .iter()
            .filter(|i| i.kind == ItemKind::Use)
            .map(|i| i.is_pub)
            .collect();
        assert_eq!(uses, [true, false]);
        let methods: Vec<bool> = items[5].children.iter().map(|c| c.is_pub).collect();
        assert_eq!(methods, [true, false]);
    }

    #[test]
    fn const_items_and_qualified_fns_parse() {
        let src = "pub const N: usize = { 3 };\nstatic mut S: u8 = 0;\n\
                   pub(crate) const unsafe fn q() {}\nextern \"C\" fn c() {}\n\
                   macro_rules! m { ($x:expr) => { struct NotAnItem; } }\n";
        let items = parse(src);
        assert_eq!(find(&items, "N").kind, ItemKind::Const);
        assert_eq!(find(&items, "S").kind, ItemKind::Const);
        assert_eq!(find(&items, "q").kind, ItemKind::Fn);
        assert_eq!(find(&items, "c").kind, ItemKind::Fn);
        assert_eq!(find(&items, "m").kind, ItemKind::MacroDef);
        // The struct inside the macro body is not modeled as an item.
        assert!(items.iter().all(|i| i.name != "NotAnItem"));
    }
}
