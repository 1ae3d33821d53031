//! Offline shim for `serde_derive`.
//!
//! Generates `Serialize`/`Deserialize` impls for the serde *shim*, both of
//! its paths: the tree methods (`to_value`/`from_value`) and the streaming
//! ones (`write_json`/`read_json`, which go straight between a value and
//! JSON text), mirroring upstream serde's default externally-tagged
//! representation. Since the usual helper crates (`syn`, `quote`) are
//! unavailable offline, the item is parsed directly from the raw
//! `proc_macro::TokenStream`.
//!
//! Supported input — exactly what this workspace derives on:
//! non-generic structs (named, tuple, unit) and enums (unit, tuple and
//! struct variants) without `#[serde(...)]` attributes. Anything else
//! panics with a clear compile-time message.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

#[derive(Debug)]
enum Body {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

struct Item {
    name: String,
    body: Body,
}

/// Derive `serde::Serialize` (shim data model).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("serde_derive shim: generated invalid Serialize impl")
}

/// Derive `serde::Deserialize` (shim data model).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item).parse().expect("serde_derive shim: generated invalid Deserialize impl")
}

// ---------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

fn skip_attributes(toks: &mut Tokens) {
    while let Some(TokenTree::Punct(p)) = toks.peek() {
        if p.as_char() != '#' {
            break;
        }
        toks.next(); // '#'
        match toks.next() {
            Some(TokenTree::Group(_)) => {}
            other => panic!("serde_derive shim: malformed attribute near {other:?}"),
        }
    }
}

fn skip_visibility(toks: &mut Tokens) {
    if let Some(TokenTree::Ident(id)) = toks.peek() {
        if id.to_string() == "pub" {
            toks.next();
            // `pub(crate)` / `pub(super)` / ...
            if let Some(TokenTree::Group(g)) = toks.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    toks.next();
                }
            }
        }
    }
}

fn expect_ident(toks: &mut Tokens, what: &str) -> String {
    match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected {what}, found {other:?}"),
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut toks = input.into_iter().peekable();
    skip_attributes(&mut toks);
    skip_visibility(&mut toks);
    let kw = expect_ident(&mut toks, "`struct` or `enum`");
    let name = expect_ident(&mut toks, "type name");
    if let Some(TokenTree::Punct(p)) = toks.peek() {
        if p.as_char() == '<' {
            panic!("serde_derive shim: generic type `{name}` is not supported");
        }
    }
    let body = match kw.as_str() {
        "struct" => match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::UnitStruct,
            other => panic!("serde_derive shim: unexpected struct body {other:?}"),
        },
        "enum" => match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde_derive shim: unexpected enum body {other:?}"),
        },
        other => panic!("serde_derive shim: cannot derive for `{other}` items (unions?)"),
    };
    Item { name, body }
}

/// Parse `name: Type, ...` field lists, returning the names. Types are
/// skipped with angle-bracket depth tracking so `HashMap<K, V>` commas do
/// not split fields.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut toks = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attributes(&mut toks);
        skip_visibility(&mut toks);
        let Some(tree) = toks.next() else { break };
        let TokenTree::Ident(id) = tree else {
            panic!("serde_derive shim: expected field name, found {tree:?}");
        };
        fields.push(id.to_string());
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive shim: expected `:` after field, found {other:?}"),
        }
        let mut depth = 0i32;
        for tree in toks.by_ref() {
            match tree {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
        }
    }
    fields
}

/// Count the elements of a tuple-struct/tuple-variant field list.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut count = 0usize;
    let mut in_element = false;
    for tree in stream {
        match tree {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => in_element = false,
            _ => {
                if !in_element {
                    count += 1;
                    in_element = true;
                }
            }
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut toks = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attributes(&mut toks);
        let Some(tree) = toks.next() else { break };
        let TokenTree::Ident(id) = tree else {
            panic!("serde_derive shim: expected variant name, found {tree:?}");
        };
        let kind = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                toks.next();
                VariantKind::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                toks.next();
                VariantKind::Tuple(n)
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name: id.to_string(), kind });
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            other => panic!("serde_derive shim: expected `,` after variant, found {other:?}"),
        }
    }
    variants
}

// ---------------------------------------------------------------------
// Code generation.
// ---------------------------------------------------------------------

fn object_literal(entries: &[(String, String)]) -> String {
    let mut s = String::from("::serde::Value::Object(::std::vec![");
    for (key, expr) in entries {
        s.push_str(&format!("(::std::string::String::from(\"{key}\"), {expr}),"));
    }
    s.push_str("])");
    s
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::NamedStruct(fields) => {
            let entries: Vec<(String, String)> = fields
                .iter()
                .map(|f| (f.clone(), format!("::serde::Serialize::to_value(&self.{f})")))
                .collect();
            object_literal(&entries)
        }
        Body::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Body::TupleStruct(n) => {
            let items: Vec<String> =
                (0..*n).map(|i| format!("::serde::Serialize::to_value(&self.{i})")).collect();
            format!("::serde::Value::Array(::std::vec![{}])", items.join(","))
        }
        Body::UnitStruct => "::serde::Value::Null".to_string(),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vname} => \
                         ::serde::Value::Str(::std::string::String::from(\"{vname}\")),"
                    )),
                    VariantKind::Tuple(1) => {
                        let payload = "::serde::Serialize::to_value(f0)".to_string();
                        let obj = object_literal(&[(vname.clone(), payload)]);
                        arms.push_str(&format!("{name}::{vname}(f0) => {obj},"));
                    }
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        let payload =
                            format!("::serde::Value::Array(::std::vec![{}])", items.join(","));
                        let obj = object_literal(&[(vname.clone(), payload)]);
                        arms.push_str(&format!("{name}::{vname}({}) => {obj},", binds.join(",")));
                    }
                    VariantKind::Named(fields) => {
                        let entries: Vec<(String, String)> = fields
                            .iter()
                            .map(|f| (f.clone(), format!("::serde::Serialize::to_value({f})")))
                            .collect();
                        let payload = object_literal(&entries);
                        let obj = object_literal(&[(vname.clone(), payload)]);
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {obj},",
                            fields.join(",")
                        ));
                    }
                }
            }
            format!("match self {{ {arms} }}")
        }
    };
    let write = gen_write_json(item);
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
             fn write_json(&self, __w: &mut ::serde::json::Writer) -> \
                 ::serde::json::WriteResult {{ {write} }}\n\
         }}"
    )
}

/// The streaming writer: the same document as `to_value`'s tree, written
/// straight into `__w`. A refused non-finite float gains one path segment
/// per level on the way out (`Writer::field`/`Writer::item`).
fn gen_write_json(item: &Item) -> String {
    let name = &item.name;
    let fields_of = |fields: &[String], access: &dyn Fn(&str) -> String, outer: &str| {
        let mut s = String::from("__w.begin('{');");
        for (i, f) in fields.iter().enumerate() {
            s.push_str(&format!("__w.field({i}, \"{f}\", {}){outer}?;", access(f)));
        }
        s.push_str(&format!("__w.end('}}', {});", fields.len()));
        s
    };
    let items_of = |n: usize, access: &dyn Fn(usize) -> String, outer: &str| {
        let mut s = String::from("__w.begin('[');");
        for i in 0..n {
            s.push_str(&format!("__w.item({i}, {}){outer}?;", access(i)));
        }
        s.push_str(&format!("__w.end(']', {n});"));
        s
    };
    let ok = "::std::result::Result::Ok(())";
    match &item.body {
        Body::NamedStruct(fields) => {
            format!("{} {ok}", fields_of(fields, &|f| format!("&self.{f}"), ""))
        }
        Body::TupleStruct(1) => "::serde::Serialize::write_json(&self.0, __w)".to_string(),
        Body::TupleStruct(n) => {
            format!("{} {ok}", items_of(*n, &|i| format!("&self.{i}"), ""))
        }
        Body::UnitStruct => format!("__w.null(); {ok}"),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                // A variant with a payload is the one-entry object
                // `{"Variant": payload}`.
                let tagged = |payload: String| {
                    format!("__w.begin('{{'); __w.key(0, \"{vname}\"); {payload} __w.end('}}', 1); {ok}")
                };
                let outer = format!(".map_err(|e| e.field(\"{vname}\"))");
                match &v.kind {
                    VariantKind::Unit => arms
                        .push_str(&format!("{name}::{vname} => {{ __w.str(\"{vname}\"); {ok} }},")),
                    VariantKind::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vname}(f0) => {{ {} }},",
                        tagged(format!("::serde::Serialize::write_json(f0, __w){outer}?;"))
                    )),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => {{ {} }},",
                            binds.join(","),
                            tagged(items_of(*n, &|i| format!("f{i}"), &outer))
                        ));
                    }
                    VariantKind::Named(fields) => arms.push_str(&format!(
                        "{name}::{vname} {{ {} }} => {{ {} }},",
                        fields.join(","),
                        tagged(fields_of(fields, &|f| f.to_string(), &outer))
                    )),
                }
            }
            format!("match self {{ {arms} }}")
        }
    }
}

fn named_fields_constructor(path: &str, fields: &[String], source: &str) -> String {
    let mut s = format!("{path} {{");
    for f in fields {
        s.push_str(&format!(
            "{f}: ::serde::Deserialize::from_value(::serde::field({source}, \"{f}\"))?,"
        ));
    }
    s.push('}');
    s
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::NamedStruct(fields) => {
            let ctor = named_fields_constructor(name, fields, "entries");
            format!(
                "let entries = v.as_object().ok_or_else(|| \
                     ::serde::Error::custom(\"{name}: expected object\"))?;\n\
                 ::std::result::Result::Ok({ctor})"
            )
        }
        Body::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Body::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                .collect();
            format!(
                "let items = v.as_array().ok_or_else(|| \
                     ::serde::Error::custom(\"{name}: expected array\"))?;\n\
                 if items.len() != {n} {{ return ::std::result::Result::Err(\
                     ::serde::Error::custom(\"{name}: wrong tuple arity\")); }}\n\
                 ::std::result::Result::Ok({name}({}))",
                items.join(",")
            )
        }
        Body::UnitStruct => format!("::std::result::Result::Ok({name})"),
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => unit_arms.push_str(&format!(
                        "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),"
                    )),
                    VariantKind::Tuple(1) => tagged_arms.push_str(&format!(
                        "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}(\
                             ::serde::Deserialize::from_value(payload)?)),"
                    )),
                    VariantKind::Tuple(n) => tagged_arms.push_str(&format!(
                        "\"{vname}\" => {{\n\
                             let items = payload.as_array().ok_or_else(|| \
                                 ::serde::Error::custom(\"{name}::{vname}: expected array\"))?;\n\
                             if items.len() != {n} {{ return ::std::result::Result::Err(\
                                 ::serde::Error::custom(\"{name}::{vname}: wrong arity\")); }}\n\
                             ::std::result::Result::Ok({name}::{vname}({items_expr}))\n\
                         }},",
                        items_expr = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                            .collect::<Vec<_>>()
                            .join(",")
                    )),
                    VariantKind::Named(fields) => {
                        let ctor =
                            named_fields_constructor(&format!("{name}::{vname}"), fields, "inner");
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => {{\n\
                                 let inner = payload.as_object().ok_or_else(|| \
                                     ::serde::Error::custom(\
                                         \"{name}::{vname}: expected object\"))?;\n\
                                 ::std::result::Result::Ok({ctor})\n\
                             }},"
                        ));
                    }
                }
            }
            format!(
                "match v {{\n\
                     ::serde::Value::Str(tag) => match tag.as_str() {{\n\
                         {unit_arms}\n\
                         other => ::std::result::Result::Err(::serde::Error::custom(\
                             ::std::format!(\"{name}: unknown variant {{other}}\"))),\n\
                     }},\n\
                     ::serde::Value::Object(entries) if entries.len() == 1 => {{\n\
                         let (tag, payload) = &entries[0];\n\
                         match tag.as_str() {{\n\
                             {tagged_arms}\n\
                             other => ::std::result::Result::Err(::serde::Error::custom(\
                                 ::std::format!(\"{name}: unknown variant {{other}}\"))),\n\
                         }}\n\
                     }},\n\
                     other => ::std::result::Result::Err(::serde::Error::custom(\
                         ::std::format!(\"{name}: unexpected value {{other:?}}\"))),\n\
                 }}"
            )
        }
    };
    let read = gen_read_json(item);
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
             fn read_json(__p: &mut ::serde::json::Parser<'_>) -> \
                 ::std::result::Result<Self, ::serde::Error> {{ {read} }}\n\
         }}"
    )
}

/// Read `{ "field": value, ... }` into the constructor `path { .. }`.
/// Like the tree path's `::serde::field` lookup, the first entry of a key
/// wins, unknown and repeated keys are skipped (but still parsed), and a
/// missing field reads as `null`.
fn named_fields_reader(path: &str, fields: &[String]) -> String {
    let mut s = String::from("{ __p.begin(b'{')?; let mut __first = true;");
    for f in fields {
        s.push_str(&format!("let mut __f_{f} = ::std::option::Option::None;"));
    }
    s.push_str(
        "while let ::std::option::Option::Some(__key) = __p.next_key(&mut __first)? { \
         match &*__key {",
    );
    for f in fields {
        s.push_str(&format!(
            "\"{f}\" if __f_{f}.is_none() => __f_{f} = \
             ::std::option::Option::Some(::serde::Deserialize::read_json(__p)?),"
        ));
    }
    s.push_str(&format!("_ => __p.skip()?, }} }} {path} {{"));
    for f in fields {
        s.push_str(&format!("{f}: ::serde::json::or_missing(__f_{f})?,"));
    }
    s.push_str("} }");
    s
}

/// Read a `[a, b, ...]` of exactly `n` elements into `path(a, b, ...)`.
fn tuple_reader(path: &str, n: usize) -> String {
    let items: Vec<String> = (0..n)
        .map(|_| "{ __p.tuple_elem(&mut __first)?; ::serde::Deserialize::read_json(__p)? }".into())
        .collect();
    format!(
        "{{ __p.begin(b'[')?; let mut __first = true; let __v = {path}({}); \
         __p.tuple_end(&mut __first)?; __v }}",
        items.join(",")
    )
}

/// The streaming reader: accepts exactly the documents `from_value`
/// accepts (on the parsed tree) and builds the same value, reading
/// straight from `__p`.
fn gen_read_json(item: &Item) -> String {
    let name = &item.name;
    let ok = |v: String| format!("::std::result::Result::Ok({v})");
    match &item.body {
        Body::NamedStruct(fields) => ok(named_fields_reader(name, fields)),
        Body::TupleStruct(1) => ok(format!("{name}(::serde::Deserialize::read_json(__p)?)")),
        Body::TupleStruct(n) => ok(tuple_reader(name, *n)),
        Body::UnitStruct => format!("__p.skip()?; {}", ok(name.clone())),
        Body::Enum(variants) => {
            let err = |what: &str| {
                format!(
                    "::std::result::Result::Err(::serde::Error::custom(\
                     ::std::format!(\"{name}: {what}\")))"
                )
            };
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vname = &v.name;
                let path = format!("{name}::{vname}");
                match &v.kind {
                    VariantKind::Unit => {
                        unit_arms.push_str(&format!("\"{vname}\" => {},", ok(path)))
                    }
                    VariantKind::Tuple(1) => tagged_arms.push_str(&format!(
                        "\"{vname}\" => {path}(::serde::Deserialize::read_json(__p)?),"
                    )),
                    VariantKind::Tuple(n) => tagged_arms
                        .push_str(&format!("\"{vname}\" => {},", tuple_reader(&path, *n))),
                    VariantKind::Named(fields) => tagged_arms.push_str(&format!(
                        "\"{vname}\" => {},",
                        named_fields_reader(&path, fields)
                    )),
                }
            }
            let unknown = err("unknown variant {__other}");
            let unit = format!("match &*__p.string()? {{ {unit_arms} __other => {unknown} }}");
            if tagged_arms.is_empty() {
                return unit;
            }
            // `"Unit"` or the one-entry object `{"Variant": payload}`.
            format!(
                "if __p.peek() == ::std::option::Option::Some(b'\"') {{ return {unit}; }}\n\
                 __p.begin(b'{{')?; let mut __first = true;\n\
                 let ::std::option::Option::Some(__tag) = __p.next_key(&mut __first)? else {{ \
                     return {one}; }};\n\
                 let __v = match &*__tag {{ {tagged_arms} __other => return {unknown}, }};\n\
                 if __p.next_key(&mut __first)?.is_some() {{ return {one}; }}\n\
                 {}",
                ok("__v".into()),
                one = err("expected one variant"),
            )
        }
    }
}
