//! Offline stand-in for `serde_derive`.
//!
//! The build container has no access to crates.io, so the workspace vendors
//! a minimal `serde` whose `Serialize`/`Deserialize` traits convert through
//! a JSON `serde::Value` tree.  This proc-macro derives those traits for the
//! shapes the HIOS crates actually use:
//!
//! * structs with named fields (`#[serde(skip)]` supported, filled from
//!   `Default` on deserialization; `#[serde(default)]` supported, filled
//!   from `Default` when the key is absent — for fields added after data
//!   was serialized);
//! * one-field tuple structs marked `#[serde(transparent)]`;
//! * plain tuple structs (serialized as arrays);
//! * enums with unit, newtype, tuple and struct variants (externally
//!   tagged, matching serde's default representation).
//!
//! Generics, lifetimes and the rest of serde's attribute language are
//! intentionally unsupported and fail loudly at compile time.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    skip: bool,
    default: bool,
}

#[derive(Debug)]
enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: VariantShape,
}

#[derive(Debug)]
enum Kind {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Input {
    name: String,
    kind: Kind,
    transparent: bool,
}

/// Serde attribute flags gathered from one `#[serde(...)]` list.
#[derive(Default)]
struct SerdeFlags {
    transparent: bool,
    skip: bool,
    default: bool,
}

fn parse_serde_flags(tokens: &mut Vec<TokenTree>, flags: &mut SerdeFlags) {
    // Called with the contents of a `#[...]` group; tokens = [ident, ...].
    let mut it = tokens.drain(..);
    let Some(TokenTree::Ident(head)) = it.next() else {
        return;
    };
    if head.to_string() != "serde" {
        return;
    }
    if let Some(TokenTree::Group(g)) = it.next() {
        for t in g.stream() {
            if let TokenTree::Ident(i) = t {
                match i.to_string().as_str() {
                    "transparent" => flags.transparent = true,
                    "skip" => flags.skip = true,
                    "default" => flags.default = true,
                    other => panic!("serde shim: unsupported serde attribute `{other}`"),
                }
            }
        }
    }
}

/// Consumes leading attributes (`#[...]`), folding serde flags.
fn eat_attrs(tokens: &[TokenTree], mut pos: usize, flags: &mut SerdeFlags) -> usize {
    while pos < tokens.len() {
        match &tokens[pos] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                let TokenTree::Group(g) = &tokens[pos + 1] else {
                    panic!("serde shim: malformed attribute");
                };
                let mut inner: Vec<TokenTree> = g.stream().into_iter().collect();
                parse_serde_flags(&mut inner, flags);
                pos += 2;
            }
            _ => break,
        }
    }
    pos
}

/// Consumes a visibility qualifier if present.
fn eat_vis(tokens: &[TokenTree], mut pos: usize) -> usize {
    if let Some(TokenTree::Ident(i)) = tokens.get(pos) {
        if i.to_string() == "pub" {
            pos += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(pos) {
                if g.delimiter() == Delimiter::Parenthesis {
                    pos += 1;
                }
            }
        }
    }
    pos
}

/// Counts top-level comma-separated items in a token sequence, tracking
/// angle-bracket depth (parens/brackets/braces arrive as single groups).
fn count_top_level_items(tokens: &[TokenTree]) -> usize {
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut items = 1usize;
    let mut saw_token_since_comma = false;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    items += 1;
                    saw_token_since_comma = false;
                    continue;
                }
                _ => {}
            }
        }
        saw_token_since_comma = true;
    }
    if !saw_token_since_comma {
        items -= 1; // trailing comma
    }
    items
}

/// Parses the named fields inside a struct (or struct-variant) brace group.
fn parse_named_fields(group: &TokenTree) -> Vec<Field> {
    let TokenTree::Group(g) = group else {
        panic!("serde shim: expected brace-delimited fields");
    };
    let tokens: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        let mut flags = SerdeFlags::default();
        pos = eat_attrs(&tokens, pos, &mut flags);
        pos = eat_vis(&tokens, pos);
        if pos >= tokens.len() {
            break;
        }
        let TokenTree::Ident(name) = &tokens[pos] else {
            panic!("serde shim: expected field name, got {:?}", tokens[pos]);
        };
        fields.push(Field {
            name: name.to_string(),
            skip: flags.skip,
            default: flags.default,
        });
        pos += 1; // name
        pos += 1; // ':'
        // Skip the type: everything until a top-level comma.
        let mut depth = 0i32;
        while pos < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[pos] {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => {
                        pos += 1;
                        break;
                    }
                    _ => {}
                }
            }
            pos += 1;
        }
    }
    fields
}

fn parse_variants(group: &TokenTree) -> Vec<Variant> {
    let TokenTree::Group(g) = group else {
        panic!("serde shim: expected enum body");
    };
    let tokens: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        let mut flags = SerdeFlags::default();
        pos = eat_attrs(&tokens, pos, &mut flags);
        if pos >= tokens.len() {
            break;
        }
        let TokenTree::Ident(name) = &tokens[pos] else {
            panic!("serde shim: expected variant name, got {:?}", tokens[pos]);
        };
        let name = name.to_string();
        pos += 1;
        let shape = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                pos += 1;
                VariantShape::Tuple(count_top_level_items(&inner))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(&tokens[pos]);
                pos += 1;
                VariantShape::Named(fields.into_iter().map(|f| f.name).collect())
            }
            _ => VariantShape::Unit,
        };
        variants.push(Variant { name, shape });
        // Skip to past the next top-level comma (discriminants unsupported).
        if let Some(TokenTree::Punct(p)) = tokens.get(pos) {
            if p.as_char() == ',' {
                pos += 1;
            }
        }
    }
    variants
}

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut flags = SerdeFlags::default();
    let mut pos = eat_attrs(&tokens, 0, &mut flags);
    pos = eat_vis(&tokens, pos);
    let TokenTree::Ident(kw) = &tokens[pos] else {
        panic!("serde shim: expected struct/enum");
    };
    let kw = kw.to_string();
    pos += 1;
    let TokenTree::Ident(name) = &tokens[pos] else {
        panic!("serde shim: expected type name");
    };
    let name = name.to_string();
    pos += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(pos) {
        if p.as_char() == '<' {
            panic!("serde shim: generic types are unsupported ({name})");
        }
    }
    let kind = match kw.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(parse_named_fields(&tokens[pos]))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                // Tuple-struct "fields" include visibility tokens; counting
                // top-level commas is still correct.
                Kind::TupleStruct(count_top_level_items(&inner))
            }
            other => panic!("serde shim: unsupported struct body {other:?}"),
        },
        "enum" => Kind::Enum(parse_variants(&tokens[pos])),
        other => panic!("serde shim: cannot derive for `{other}`"),
    };
    Input {
        name,
        kind,
        transparent: flags.transparent,
    }
}

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::NamedStruct(fields) => {
            let mut s = String::from(
                "let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n",
            );
            for f in fields.iter().filter(|f| !f.skip) {
                s.push_str(&format!(
                    "__fields.push((::std::string::String::from(\"{0}\"), ::serde::Serialize::to_value(&self.{0})));\n",
                    f.name
                ));
            }
            s.push_str("::serde::Value::Object(__fields)");
            s
        }
        Kind::TupleStruct(arity) => {
            if input.transparent {
                assert_eq!(*arity, 1, "serde shim: transparent needs exactly one field");
                "::serde::Serialize::to_value(&self.0)".to_string()
            } else {
                let elems: Vec<String> = (0..*arity)
                    .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                    .collect();
                format!("::serde::Value::Array(vec![{}])", elems.join(", "))
            }
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::Str(::std::string::String::from(\"{vn}\")),\n"
                    )),
                    VariantShape::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(__a0) => ::serde::Value::Object(vec![(::std::string::String::from(\"{vn}\"), ::serde::Serialize::to_value(__a0))]),\n"
                    )),
                    VariantShape::Tuple(k) => {
                        let binds: Vec<String> = (0..*k).map(|i| format!("__a{i}")).collect();
                        let elems: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => ::serde::Value::Object(vec![(::std::string::String::from(\"{vn}\"), ::serde::Value::Array(vec![{}]))]),\n",
                            binds.join(", "),
                            elems.join(", ")
                        ));
                    }
                    VariantShape::Named(fields) => {
                        let binds = fields.join(", ");
                        let elems: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(vec![(::std::string::String::from(\"{vn}\"), ::serde::Value::Object(vec![{}]))]),\n",
                            elems.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n fn to_value(&self) -> ::serde::Value {{\n {body}\n }}\n}}\n"
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::NamedStruct(fields) => {
            let mut inits = String::new();
            for f in fields {
                if f.skip {
                    inits.push_str(&format!(
                        "{}: ::std::default::Default::default(),\n",
                        f.name
                    ));
                } else if f.default {
                    inits.push_str(&format!(
                        "{0}: match ::serde::field(__v, \"{0}\") {{\n\
                         ::std::result::Result::Ok(__f) => ::serde::Deserialize::from_value(__f)?,\n\
                         ::std::result::Result::Err(_) => ::std::default::Default::default(),\n\
                         }},\n",
                        f.name
                    ));
                } else {
                    inits.push_str(&format!(
                        "{0}: ::serde::Deserialize::from_value(::serde::field(__v, \"{0}\")?)?,\n",
                        f.name
                    ));
                }
            }
            format!("::std::result::Result::Ok({name} {{\n{inits}}})")
        }
        Kind::TupleStruct(arity) => {
            if input.transparent {
                format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
            } else {
                let elems: Vec<String> = (0..*arity)
                    .map(|i| {
                        format!("::serde::Deserialize::from_value(::serde::element(__v, {i})?)?")
                    })
                    .collect();
                format!("::std::result::Result::Ok({name}({}))", elems.join(", "))
            }
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => arms.push_str(&format!(
                        "(\"{vn}\", _) => ::std::result::Result::Ok({name}::{vn}),\n"
                    )),
                    VariantShape::Tuple(1) => arms.push_str(&format!(
                        "(\"{vn}\", __inner) => ::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::from_value(__inner)?)),\n"
                    )),
                    VariantShape::Tuple(k) => {
                        let elems: Vec<String> = (0..*k)
                            .map(|i| {
                                format!("::serde::Deserialize::from_value(::serde::element(__inner, {i})?)?")
                            })
                            .collect();
                        arms.push_str(&format!(
                            "(\"{vn}\", __inner) => ::std::result::Result::Ok({name}::{vn}({})),\n",
                            elems.join(", ")
                        ));
                    }
                    VariantShape::Named(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::Deserialize::from_value(::serde::field(__inner, \"{f}\")?)?"
                                )
                            })
                            .collect();
                        arms.push_str(&format!(
                            "(\"{vn}\", __inner) => ::std::result::Result::Ok({name}::{vn} {{ {} }}),\n",
                            inits.join(", ")
                        ));
                    }
                }
            }
            format!(
                "let (__tag, __inner) = ::serde::variant(__v)?;\nmatch (__tag, __inner) {{\n{arms}(__other, _) => ::std::result::Result::Err(::serde::Error::new(format!(\"unknown variant `{{__other}}` for {name}\"))),\n}}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n {body}\n }}\n}}\n"
    )
}

/// Derives the shim `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives the shim `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("generated Deserialize impl parses")
}
